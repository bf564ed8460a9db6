"""causekit benchmark: verdict latency on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ts-large --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workload runs in a fresh child process (perfbench/workload.py) as a
closed loop: one client, one process, one thread.  ``setup_s`` runs from
spawning that process until it is ready to send its first timed query,
covering ``import causekit.cli`` and writing the instance files; it is set
up several times and the median is reported.  Every verdict document is
checked against perfbench/reference.py after the timed region.

Times are scaled to a reference host speed by a calibration probe that runs
between queries (see workload.py), because this kind of shared host drifts
by a quarter within seconds.  Percentiles are Harrell-Davis estimates.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workload import CALIBRATION_MS, TAIL_PERCENTILE, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ts-large", "game-large", "small-instances")
SETUPS = 3
TIME_LIMIT_S = 170


def host_speed():
    """CALIBRATION_MS over the median of a few probes, as in workload.py."""
    return CALIBRATION_MS / (statistics.median(calibrate() for _ in range(15)) * 1000.0)


def spawn(workdir, keep, args, deadline, setup_only, result=None):
    """Start a workload process; return the speed-scaled seconds until it is
    ready to send its first query."""
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", workdir, "--keep", keep,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if result:
        cmd += ["--result", result]
    speed = host_speed()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("workload process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return ready * (speed + host_speed()) / 2


def show(name, value, unit, note=""):
    print(f"{name:36s} {value:14.6g} {unit:6s} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))

    if not os.path.isfile(os.path.join(ROOT, "src", "causekit", "cli.py")):
        sys.stderr.write("perfbench: no causekit sources under src/ in this checkout\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    keep = os.path.join(ROOT, ".perfbench_work")
    run_dir = os.path.join(keep, f"run-{os.getpid()}")
    result_path = os.path.join(run_dir, "result.json")
    os.makedirs(run_dir, exist_ok=True)
    try:
        setups = [spawn(os.path.join(run_dir, "main"), keep, args, deadline, False, result_path)]
        if not args.trace:
            for i in range(1, SETUPS):
                setups.append(spawn(os.path.join(run_dir, f"setup{i}"), keep, args, deadline, True))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    s = result["summary"]
    print(f"workload {args.workload}, seed {args.seed}: {result['queries']} queries per pass, "
          f"{s['passes']} passes, {s['attempted']} timed samples")
    print(f"checked: {result['checked']}; per-query records in "
          f".perfbench_work/records-{args.workload}-trace{args.trace}.jsonl")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")
    for kind, (count, p50) in s["kinds"].items():
        print(f"  {kind:34s} {count:6d} samples  p50 {p50:10.3f} ms")
    metrics = {}
    if args.trace:
        import tracer

        for name, (value, unit) in result["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
            show(name, value, unit, tracer.moves(name))
        print(f"{result['spans']} spans in .perfbench_work/spans-{args.workload}.tsv; "
              "per-layer values are per pass of the query list")
        if result["absent"]:
            print(f"absent (reported as 0): {', '.join(result['absent'])}")
    else:
        tail = f"p{TAIL_PERCENTILE} (Harrell-Davis) of {s['attempted']} samples"
        values = {
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
            "verdicts_per_s": (s["verdicts_per_s"], "1/s", ""),
            "verdict_p50_ms": (s["p50_ms"], "ms", f"Harrell-Davis, of {s['attempted']} samples"),
            "verdict_tail_ms": (s["tail_ms"], "ms", tail),
            "verdict_geomean_ms": (s["geomean_ms"], "ms", "kinds weigh the same"),
            "peak_rss_mb": (s["peak_rss_mb"], "MB", ""),
        }
        for name, (value, unit, note) in values.items():
            metrics[name] = {"value": value, "unit": unit}
            show(name, value, unit, note)
        show("failed_share", s["failed"] / s["attempted"], "ratio", "in the result line as failed")
        show("wrong_answers", s["wrong"], "count", "counted in failed")
        show("raw_verdicts_per_s", s["raw_verdicts_per_s"], "1/s", "before speed scaling")
    show("host_speed", s["speed"], "ratio", "scaling applied to raw times (median)")
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
