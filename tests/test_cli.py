import json
import subprocess
import sys
from pathlib import Path

import pytest

from causekit.model import dumps_canonical, model_from_json

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "causekit" / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "causekit.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def branching_args(metric):
    return [
        "ts-cause",
        "--model", str(FIXDIR / "branching_ts.json"),
        "--path", str(FIXDIR / "branching_ts_run.json"),
        "--cause", "s2",
        "--effect", "s6,s8",
        "--phi", "reach",
        "--metric", metric,
    ]


def test_branching_exit_codes():
    assert run_cli(*branching_args("ghamm")).returncode == 0
    assert run_cli(*branching_args("pref")).returncode == 1


def test_ts_cause_document_shape():
    proc = run_cli(*branching_args("ghamm"))
    doc = json.loads(proc.stdout)
    assert doc["verdict"] is True
    assert doc["minDistance"] == "0"
    assert doc["witnesses"]
    assert doc["command"] == "ts-cause"


def test_oracle_subcommand_agrees():
    fast = json.loads(run_cli(*branching_args("lev")).stdout)
    slow = json.loads(run_cli("oracle", "ts-cause", *branching_args("lev")[1:]).stdout)
    assert fast["verdict"] == slow["verdict"]
    assert fast["minDistance"] == slow["minDistance"]


def test_game_cause_and_solve():
    args = [
        "game-cause",
        "--model", str(FIXDIR / "tree_game.json"),
        "--player", "reach",
        "--strategy", str(FIXDIR / "tree_game_sigma.json"),
        "--cause", "v2,v3",
        "--metric", "pref-h",
    ]
    proc = run_cli(*args)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] is True and doc["minDistance"] == "1/4"

    proc = run_cli("solve", "--model", str(FIXDIR / "tree_game.json"))
    doc = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert doc["verdict"] == "reach"
    assert "start" in doc["reachRegion"]


def test_explain_commands():
    base = [
        "--model", str(FIXDIR / "loop_game.json"),
        "--strategy", str(FIXDIR / "loop_game_sigma.json"),
    ]
    extract = json.loads(run_cli("explain", *base).stdout)
    assert extract["explanation"] == ["v1", "v2"]
    assert run_cli("explain", *base, "--check", "v1").returncode == 0
    assert run_cli("explain", *base, "--check-minimal", "v1", "--metric", "dstar").returncode == 0
    assert (
        run_cli("explain", *base, "--check-minimal", "v1,v2", "--metric", "hamm-s").returncode
        == 1
    )


def test_distance_command():
    doc = json.loads(run_cli("distance", "lev", "--u", "a,b,b,c", "--v", "a,c,c,b,c").stdout)
    assert doc["verdict"] == "2"
    doc = json.loads(
        run_cli(
            "distance", "pref-h",
            "--model", str(FIXDIR / "loop_game.json"),
            "--sigma", str(FIXDIR / "loop_game_sigma.json"),
            "--tau", str(FIXDIR / "loop_game_sigma.json"),
        ).stdout
    )
    assert doc["verdict"] == "0"


def test_sem_commands(tmp_path):
    sem_file = tmp_path / "sem.json"
    sem_file.write_text(
        json.dumps(
            {"kind": "sem", "variables": ["X1", "X2"], "tables": [[True], [False, True]]}
        )
    )
    proc = run_cli(
        "sem", "butfor",
        "--model", str(sem_file),
        "--effect", "[[true, true]]",
        "--vars", "X1",
    )
    assert proc.returncode == 0
    bridge = run_cli(
        "sem", "bridge",
        "--model", str(sem_file),
        "--effect", "[[true, true]]",
        "--vars", "X2",
    )
    assert bridge.returncode == 0
    doc = json.loads(bridge.stdout)
    assert doc["butFor"] is True and doc["verdict"] is True


def test_malformed_model_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "ts", "states": []}')
    proc = run_cli(
        "ts-cause",
        "--model", str(bad),
        "--path", str(FIXDIR / "branching_ts_run.json"),
        "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "pref",
    )
    assert proc.returncode == 2
    assert proc.stderr


TS_DUP = {
    "kind": "ts",
    "alphabet": ["a"],
    "states": [{"id": "s0", "label": "a"}, {"id": "s0", "label": "a"}],
    "initial": "s0",
    "transitions": [],
}
GAME_DUP = {
    "kind": "game",
    "vertices": [{"id": "v0", "owner": "reach"}, {"id": "v0", "owner": "safe"}],
    "initial": "v0",
    "edges": [["v0", "v0"]],
}


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (
            ["ts-cause", "--model", "{bad}", "--path", str(FIXDIR / "branching_ts_run.json"),
             "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "pref"],
            {"bad": [1, 2]},
            "model: expected a JSON object, got list",
        ),
        (
            ["ts-cause", "--model", "{bad}", "--path", str(FIXDIR / "branching_ts_run.json"),
             "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "pref"],
            {"bad": TS_DUP},
            "duplicate state id 's0'",
        ),
        (
            ["ts-cause", "--model", str(FIXDIR / "branching_ts.json"), "--path", "{bad}",
             "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "pref"],
            {"bad": "s0"},
            "path: expected a JSON array, got str",
        ),
        (
            ["game-cause", "--model", str(FIXDIR / "tree_game.json"), "--player", "reach",
             "--strategy", "{bad}", "--cause", "v3", "--metric", "dstar"],
            {"bad": [["v0", "v1"]]},
            "strategy: expected a JSON object, got list",
        ),
        (["solve", "--model", "{bad}"], {"bad": GAME_DUP}, "duplicate vertex id 'v0'"),
        (
            ["sem", "butfor", "--model", "{bad}", "--effect", "[[true]]", "--vars", "X1"],
            {"bad": [1]},
            "not a SEM document",
        ),
    ],
    ids=[
        "model-list", "duplicate-state", "path-string", "strategy-list",
        "duplicate-vertex", "sem-list",
    ],
)
def test_malformed_json_shapes_exit_2(tmp_path, argv, files, message):
    names = {}
    for key, value in files.items():
        names[key] = tmp_path / f"{key}.json"
        names[key].write_text(json.dumps(value))
    proc = run_cli(*(a.format(**names) for a in argv))
    assert proc.returncode == 2
    assert proc.stderr.startswith("causekit: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_budget_exit_3():
    proc = run_cli(
        "game-cause",
        "--model", str(FIXDIR / "tree_game.json"),
        "--player", "reach",
        "--strategy", str(FIXDIR / "tree_game_sigma.json"),
        "--cause", "v3",
        "--metric", "dstar",
        "--budget", "1",
    )
    assert proc.returncode == 3


def test_gen_roundtrip_and_determinism(tmp_path):
    out1 = run_cli("gen", "--family", "acyclic-game", "--seed", "7")
    out2 = run_cli("gen", "--family", "acyclic-game", "--seed", "7")
    assert out1.stdout == out2.stdout
    model = model_from_json(json.loads(out1.stdout))
    assert dumps_canonical(json.loads(out1.stdout)) == out1.stdout
    f = tmp_path / "g.json"
    proc = run_cli("gen", "--family", "layered-ts", "--seed", "3", "--out", str(f))
    assert proc.returncode == 0
    model_from_json(json.loads(f.read_text()))


def test_verdict_documents_byte_identical():
    for args in (
        branching_args("ghamm"),
        [
            "game-cause",
            "--model", str(FIXDIR / "loop_game.json"),
            "--player", "reach",
            "--strategy", str(FIXDIR / "loop_game_sigma.json"),
            "--cause", "v1",
            "--metric", "pref-h",
        ],
    ):
        a = run_cli(*args, "--seed", "1", "--budget", "100000")
        b = run_cli(*args, "--seed", "1", "--budget", "100000")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode


def test_pretty_flag_appends_human_lines():
    proc = run_cli(*branching_args("ghamm"), "--pretty")
    assert proc.returncode == 0
    body = proc.stdout
    doc_end = body.index("}\n") if body.startswith("{") else 0
    assert "verdict" in body[doc_end:]
    again = run_cli(*branching_args("ghamm"), "--pretty")
    assert again.stdout == body
