"""One workload process: set up, run the closed loop, check the answers.

Started by run.py.  It prints ``ready`` right before the first timed query,
so the parent can time set-up from process start.  One client, one thread:
each query runs to completion before the next starts, in-process through
``causekit.cli.main(argv)`` with stdout captured, or through
``game_causality.min_dstar_winning_strategy_acyclic`` for the repair.
"""

import argparse
import bisect
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TAIL_PERCENTILE = 90
MIN_SAMPLES = 10 * 100 // (100 - TAIL_PERCENTILE)

# The host's speed drifts by a quarter within seconds, as neighbours come
# and go.  A fixed pure-Python probe runs before every query, and each
# query's time is scaled by how long the probes around it took against
# CALIBRATION_MS, the probe's time on an idle 2-vCPU 2.0 GHz host.  Raw
# times are kept in the per-query records.
CALIBRATION_MS = 0.35
CALIBRATION_WINDOW_S = 1.5
_rng = random.Random(0)
_GRAPH = {v: tuple(_rng.randrange(400) for _ in range(3)) for v in range(400)}
_WORDS = [f"s{_rng.randrange(10**6)}_{i}" for i in range(300)]


def calibrate():
    """Seconds one fixed graph walk, sort and dict build take right now."""
    t0 = time.perf_counter()
    seen = {0}
    stack = [0]
    while stack:
        for u in _GRAPH[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    index = {w: i for i, w in enumerate(sorted(_WORDS))}
    sorted((index[w], len(w)) for w in _WORDS)
    return time.perf_counter() - t0


def speed_factors(samples):
    """Per sample: CALIBRATION_MS over the median probe within the window."""
    starts = [s["t"] for s in samples]
    probes = [s["probe_ms"] for s in samples]
    out = []
    for s in samples:
        lo = bisect.bisect_left(starts, s["t"] - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(starts, s["t"] + CALIBRATION_WINDOW_S)
        lo, hi = min(lo, max(0, s["i"] - 2)), max(hi, s["i"] + 3)
        out.append(CALIBRATION_MS / statistics.median(probes[lo:hi]))
    return out


def run_query(q, cli, pkg):
    """Execute one query; return (exit code or exception name, output text)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        if q["argv"] is None:
            code = repair(q, pkg)
        else:
            code = cli.main(q["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed query, not a benchmark crash
        code = type(exc).__name__
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def repair(q, pkg):
    """The acyclic d* repair has no CLI command; emit a document like one."""
    game = pkg.model.load_model(q["model"])
    sigma = pkg.model.load_strategy(q["strategy"])
    budget = pkg.errors.Budget()
    tau, value = pkg.game_causality.min_dstar_winning_strategy_acyclic(game, sigma, budget=budget)
    doc = {
        "command": "repair",
        "strategy": pkg.model.strategy_to_json(tau),
        "value": pkg.distances.format_distance(value),
        "diagnostics": {"budgetLimit": budget.limit, "budgetUsed": budget.used},
    }
    sys.stdout.write(pkg.model.dumps_canonical(doc))
    return 0


def closed_loop(queries, cli, pkg, seconds, min_passes, outputs, recorder=None):
    """Whole passes over the query list until the next would overrun `seconds`.

    Returns one sample per query run, with its raw and its speed-scaled
    time, and the number of passes.
    """
    clock = time.perf_counter
    samples = []
    passes = 0
    start = clock()
    while True:
        t_pass = clock()
        for q in queries:
            if recorder is not None:
                recorder.query = q["id"]
            probe = calibrate()
            t0 = clock()
            code, text = run_query(q, cli, pkg)
            ms = (clock() - t0) * 1000.0
            first = outputs.setdefault(q["id"], (code, text))
            samples.append({
                "i": len(samples), "t": t0 - start, "query": q["id"], "pass": passes,
                "exit": code, "raw_ms": ms, "probe_ms": probe * 1000.0,
                "same": first == (code, text),
            })
        passes += 1
        elapsed = clock() - start
        if passes >= min_passes and elapsed + (clock() - t_pass) > seconds:
            break
    for s, f in zip(samples, speed_factors(samples)):
        s["ms"] = s["raw_ms"] * f
    return samples, passes


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(sorted_values, p):
    """Harrell-Davis estimate of the p-th percentile.

    A beta-weighted mean of the order statistics around rank p, so one
    sample moving across a gap between query kinds shifts it only a little.
    """
    n = len(sorted_values)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def verdict_expected_exit(doc):
    if doc.get("command") == "solve" or doc.get("command") == "repair":
        return 0
    return 0 if doc.get("verdict") else 1


def check_answers(queries, outputs):
    """Reference-check the first output of every query; return per-query status."""
    import reference

    status = {}
    for q in queries:
        code, text = outputs[q["id"]]
        if code not in (0, 1):
            status[q["id"]] = ("failed", f"exit {code}", None)
            continue
        try:
            doc = json.loads(text)
            how = reference.check(doc, q)
            if verdict_expected_exit(doc) != code:
                raise reference.Mismatch(f"exit {code} does not match the verdict")
        except Exception as exc:  # a malformed document is a wrong answer
            status[q["id"]] = ("wrong", f"{type(exc).__name__}: {exc}", None)
            continue
        status[q["id"]] = ("ok", how, doc.get("diagnostics", {}).get("budgetUsed"))
    return status


def summarize(queries, samples, passes, status):
    """End-to-end figures over the speed-scaled times of every sample."""
    by_id = {q["id"]: q for q in queries}
    times = sorted(s["ms"] for s in samples)
    bad = [s for s in samples if status[s["query"]][0] != "ok" or not s["same"]]
    kinds = {}
    for s in samples:
        kinds.setdefault(by_id[s["query"]]["kind"], []).append(s["ms"])
    geo = math.exp(
        sum(sum(math.log(t) for t in v) / len(v) for v in kinds.values()) / len(kinds)
    )
    return {
        "attempted": len(samples),
        "failed": len(bad),
        "wrong": sum(1 for s in bad if status[s["query"]][0] != "failed"),
        "passes": passes,
        "verdicts_per_s": 1000.0 * len(samples) / sum(times),
        "raw_verdicts_per_s": 1000.0 * len(samples) / sum(s["raw_ms"] for s in samples),
        "p50_ms": percentile(times, 50),
        "tail_ms": percentile(times, TAIL_PERCENTILE),
        "geomean_ms": geo,
        "speed": statistics.median(s["ms"] / s["raw_ms"] for s in samples),
        "kinds": {k: (len(v), percentile(sorted(v), 50)) for k, v in sorted(kinds.items())},
    }


def write_records(path, queries, samples, status):
    """One JSON line per timed query run."""
    by_id = {q["id"]: q for q in queries}
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            q = by_id[s["query"]]
            st = status[s["query"]]
            fh.write(json.dumps({
                "query": s["query"],
                "pass": s["pass"],
                "kind": q["kind"],
                "command": q["argv"][0] if q["argv"] else "repair",
                "exit": s["exit"],
                "ms": round(s["ms"], 4),
                "raw_ms": round(s["raw_ms"], 4),
                "budgetUsed": st[2],
                "check": st[1] if s["same"] else "output differs between passes",
            }) + "\n")


def layer_metrics(recorder, queries, status, traced, untraced, npasses):
    """Per-layer figures per pass of the query list, from the traced run."""
    import tracer

    speed = statistics.median(s["ms"] / s["raw_ms"] for s in traced)
    totals = recorder.self_times()
    out = {}
    accounted = 0.0
    for name in tracer.TIMED:
        ms = totals[name][0] * 1000.0 / npasses if name in totals else 0.0
        accounted += ms
        out[f"{name}_ms"] = (ms * speed, "ms")
    for name in tracer.CALLS:
        calls = totals[name][1] / npasses if name in totals else 0
        out[f"{name}.calls"] = (calls, "count")
    out["ts.product_nodes"] = (recorder.product_nodes / npasses, "count")
    out["ts.settled_nodes"] = (recorder.settled_nodes / npasses, "count")
    share = recorder.settled_nodes / recorder.product_nodes if recorder.product_nodes else 0.0
    out["ts.settled_share"] = (share, "ratio")
    budget = {k: 0 for k in tracer.BUDGET_KINDS}
    for q in queries:
        kind = "ts-cause" if q["kind"].startswith("ts-cause") else q["kind"]
        if kind in budget and status[q["id"]][2] is not None:
            budget[kind] += status[q["id"]][2]
    for k, used in budget.items():
        out[f"budget.used.{k}"] = (used, "count")
    traced_ms = sum(s["ms"] for s in traced)
    untraced_ms = sum(s["ms"] for s in untraced)
    raw_per_pass = sum(s["raw_ms"] for s in traced) / npasses
    out["trace.overhead_share"] = (traced_ms / untraced_ms - 1.0, "ratio")
    out["trace.remainder_share"] = ((raw_per_pass - accounted) / raw_per_pass, "ratio")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--keep", default=None)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import causekit.cli as cli
    import instances

    queries = instances.build(args.workload, args.seed, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import causekit as pkg
    from causekit import distances, errors, game_causality, model  # noqa: F401

    min_passes = max(1, math.ceil(MIN_SAMPLES / len(queries)))
    outputs = {}
    result = {"queries": len(queries), "min_passes": min_passes}
    if args.trace:
        import tracer

        samples, passes = closed_loop(queries, cli, pkg, args.seconds / 2, 1, outputs)
        recorder = tracer.Recorder()
        recorder.install(pkg)
        try:
            traced, _ = closed_loop(queries, cli, pkg, 0.0, passes, outputs, recorder)
        finally:
            recorder.uninstall()
        status = check_answers(queries, outputs)
        summary = summarize(queries, samples + traced, 2 * passes, status)
        metrics = layer_metrics(recorder, queries, status, traced, samples, passes)
        recorder.write(os.path.join(args.keep, f"spans-{args.workload}.tsv"))
        result.update(
            summary=summary,
            layers=metrics,
            absent=recorder.absent,
            spans=len(recorder.starts),
        )
    else:
        samples, passes = closed_loop(queries, cli, pkg, args.seconds, min_passes, outputs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        status = check_answers(queries, outputs)
        summary = summarize(queries, samples, passes, status)
        summary["peak_rss_mb"] = rss_mb
        result.update(summary=summary)
    write_records(
        os.path.join(args.keep, f"records-{args.workload}-trace{args.trace}.jsonl"),
        queries, samples, status,
    )
    kind = {q["id"]: q["kind"] for q in queries}
    result["problems"] = sorted(
        {f"{kind[qid]}: {why}" for qid, (st, why, _b) in status.items() if st != "ok"}
    )
    checked = {}
    for st, why, _b in status.values():
        if st == "ok":
            checked[why] = checked.get(why, 0) + 1
    result["checked"] = checked
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
