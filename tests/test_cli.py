import gc
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
    assert extract["inputs"]["cause"] == []
    assert run_cli("explain", *base, "--check", "v1").returncode == 0
    assert run_cli("explain", *base, "--check-minimal", "v1", "--metric", "dstar").returncode == 0
    assert (
        run_cli("explain", *base, "--check-minimal", "v1,v2", "--metric", "hamm-s").returncode
        == 1
    )


@pytest.mark.parametrize(
    "modes",
    [
        ["--check", "v1", "--check-minimal", "v1", "--metric", "dstar"],
        ["--cause", "v9", "--check", "v1"],
        ["--check-minimal", "v1", "--cause", "v1"],
        ["--cause", "", "--check", "v1"],
        ["--cause", "", "--check-minimal", "v1"],
    ],
)
def test_explain_modes_exclude_each_other(modes):
    """Two of --cause, --check and --check-minimal are a usage error, even
    where one alone would run (v9 is not a vertex of the game) and where
    --cause is given empty."""
    proc = run_cli(
        "explain",
        "--model", str(FIXDIR / "loop_game.json"),
        "--strategy", str(FIXDIR / "loop_game_sigma.json"),
        *modes,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert ": not allowed with argument --" in proc.stderr


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
TS_OK = {
    "kind": "ts",
    "alphabet": ["a"],
    "states": [{"id": "s0", "label": "a"}, {"id": "s1", "label": "a"}],
    "initial": "s0",
    "transitions": [["s0", "s1"]],
}
GAME_OK = {
    "kind": "game",
    "vertices": [{"id": "v0", "owner": "reach"}, {"id": "v1", "owner": "effect"}],
    "initial": "v0",
    "edges": [["v0", "v1"]],
}
SEM_OK = {"kind": "sem", "variables": ["X1", "X2"], "tables": [[True], [False, True]]}
TS_ARGS = ["--path", str(FIXDIR / "branching_ts_run.json"),
           "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "pref"]


def ts_case(message, **fields):
    return ["ts-cause", "--model", "{bad}", *TS_ARGS], {"bad": {**TS_OK, **fields}}, message


def game_case(message, **fields):
    return ["solve", "--model", "{bad}"], {"bad": {**GAME_OK, **fields}}, message


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def sem_case(message, **fields):
    argv = ["sem", "butfor", "--model", "{bad}", "--effect", "[[true, true]]", "--vars", "X1"]
    return argv, {"bad": {**SEM_OK, **fields}}, message


def effect_case(effect, message):
    effect = effect.replace("{", "{{").replace("}", "}}")
    return (
        ["sem", "bridge", "--model", "{sem}", "--effect", effect, "--vars", "X1"],
        {"sem": SEM_OK},
        message,
    )


TREE_CAUSE = ["game-cause", "--model", str(FIXDIR / "tree_game.json"), "--player", "reach",
              "--strategy", "{bad}", "--cause", "v3", "--metric", "dstar"]
TS_PATH = ["ts-cause", "--model", str(FIXDIR / "branching_ts.json"), "--path", "{bad}",
           "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "pref"]
MISSING_FIELD_CASES = [
    *(
        (["ts-cause", "--model", "{bad}", *TS_ARGS], {"bad": without(TS_OK, key)},
         f"model: missing field {key!r}")
        for key in ("states", "initial", "transitions", "alphabet")
    ),
    ts_case("states[0]: missing field 'id'", states=[{"label": "a"}, {"id": "s1", "label": "a"}]),
    ts_case("states[1]: missing field 'label'", states=[{"id": "s0", "label": "a"}, {"id": "s1"}]),
    *(
        (["solve", "--model", "{bad}"], {"bad": without(GAME_OK, key)},
         f"model: missing field {key!r}")
        for key in ("vertices", "initial", "edges")
    ),
    game_case("vertices[1]: missing field 'id'", vertices=[{"id": "v0", "owner": "reach"}, {}]),
    game_case("vertices[0]: missing field 'owner'",
              vertices=[{"id": "v0"}, {"id": "v1", "owner": "effect"}]),
    (TREE_CAUSE, {"bad": {"player": "reach"}}, "strategy: missing field 'choices'"),
    (TREE_CAUSE, {"bad": {"choices": {}}}, "strategy: missing field 'player'"),
    (TS_PATH, {"bad": {"states": ["s0"]}}, "path: missing field 'path'"),
    *(
        (["sem", "butfor", "--model", "{bad}", "--effect", "[[true, true]]", "--vars", "X1"],
         {"bad": without(SEM_OK, key)}, f"model: missing field {key!r}")
        for key in ("variables", "tables")
    ),
    effect_case('{"values": [[true]]}', "effect: missing field 'last'"),
    effect_case('{"last": 1}', "effect: missing field 'values'"),
]
MISSING_FIELD_IDS = [
    "ts-no-states-field", "ts-no-initial", "ts-no-transitions", "ts-no-alphabet",
    "state-no-id", "state-no-label", "game-no-vertices-field", "game-no-initial",
    "game-no-edges", "vertex-no-id", "vertex-no-owner", "strategy-no-choices",
    "strategy-no-player", "path-no-path", "sem-no-variables", "sem-no-tables",
    "effect-no-last", "effect-no-values",
]


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
        ts_case(
            "states[1].id: expected a JSON string, got int",
            states=[{"id": "s0", "label": "a"}, {"id": 1, "label": "a"}],
        ),
        ts_case(
            "states[0].label: expected a JSON string, got list",
            states=[{"id": "s0", "label": ["a"]}, {"id": "s1", "label": "a"}],
        ),
        ts_case("alphabet[1]: expected a JSON string, got int", alphabet=["a", 2]),
        ts_case("transitions[0][1]: expected a JSON string, got int", transitions=[["s0", 1]]),
        ts_case("transitions[0]: expected a pair, got 3 items", transitions=[["s0", "s1", "s1"]]),
        ts_case("initial: expected a JSON string, got list", initial=["s0"]),
        game_case(
            "vertices[1].id: expected a JSON string, got int",
            vertices=[{"id": "v0", "owner": "reach"}, {"id": 1, "owner": "effect"}],
        ),
        game_case("edges[0][0]: expected a JSON string, got int", edges=[[0, "v1"]]),
        game_case("edges[0]: expected a JSON array, got str", edges=["v0"]),
        (
            ["ts-cause", "--model", str(FIXDIR / "branching_ts.json"), "--path", "{bad}",
             "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "pref"],
            {"bad": ["s0", ["s2"]]},
            "path[1]: expected a JSON string, got list",
        ),
        (
            ["game-cause", "--model", str(FIXDIR / "tree_game.json"), "--player", "reach",
             "--strategy", "{bad}", "--cause", "v3", "--metric", "dstar"],
            {"bad": {"player": "reach", "choices": {"v0": ["s00"], "v1": "v3"}}},
            "choices.v0: expected a JSON string, got list",
        ),
        effect_case("5", "effect must be an array of arrays"),
        effect_case("[5]", "effect must be an array of arrays"),
        effect_case('{"last": 1, "values": 5}', "predicate values must be an array of arrays"),
        sem_case("tables must be an array of arrays", tables=5),
        sem_case("variables must be an array of strings", variables=5),
        sem_case("tables must be an array of arrays", tables=[True]),
        sem_case("duplicate variable 'X1'", variables=["X1", "X1"]),
        sem_case("tables[1][0]: expected a JSON Boolean, got str", tables=[[True], ["no", True]]),
        sem_case("tables[0][0]: expected a JSON Boolean, got int", tables=[[5], [False, True]]),
        effect_case("[[true, 1]]", "effect[0][1]: expected a JSON Boolean, got int"),
        effect_case(
            '{"last": 1, "values": [["no"]]}',
            "predicate values[0][0]: expected a JSON Boolean, got str",
        ),
        effect_case(
            '{"last": true, "values": [[true]]}', "effect.last: expected a JSON integer, got bool"
        ),
        effect_case(
            '{"last": 1.5, "values": [[true]]}', "effect.last: expected a JSON integer, got float"
        ),
        effect_case(
            '{"last": "x", "values": [[true]]}', "effect.last: expected a JSON integer, got str"
        ),
        ts_case("transition system has no states", states=[], transitions=[]),
        ts_case("initial state 'zz' is not a state", initial="zz"),
        ts_case("transition ('s0', 'zz') leaves the state set", transitions=[["s0", "zz"]]),
        ts_case("transition ('zz', 's1') leaves the state set", transitions=[["zz", "s1"]]),
        ts_case(
            "state 's1' carries label 'b' outside the alphabet",
            states=[{"id": "s0", "label": "a"}, {"id": "s1", "label": "b"}],
        ),
        ts_case(
            "transition ('s0', 'yy') leaves the state set",
            transitions=[["s1", "zz"], ["s0", "yy"]],
        ),
        game_case("game has no vertices", vertices=[], edges=[]),
        game_case("initial vertex 'zz' is not a vertex", initial="zz"),
        game_case("initial vertex lies in the effect set", initial="v1"),
        game_case("edge ('zz', 'v1') leaves the vertex set", edges=[["v0", "v1"], ["zz", "v1"]]),
        game_case("edge ('v0', 'zz') leaves the vertex set", edges=[["v0", "v1"], ["v0", "zz"]]),
        game_case("effect vertex 'v1' has an outgoing edge", edges=[["v0", "v1"], ["v1", "v0"]]),
        game_case(
            "non-effect vertex 'v2' is a dead end",
            vertices=[*GAME_OK["vertices"], {"id": "v2", "owner": "safe"}],
        ),
        game_case(
            "vertex 'v1' has unknown owner 'boss'",
            vertices=[{"id": "v0", "owner": "reach"}, {"id": "v1", "owner": "boss"}],
        ),
        game_case("unknown model kind 'dag'", kind="dag"),
        *MISSING_FIELD_CASES,
    ],
    ids=[
        "model-list", "duplicate-state", "path-string", "strategy-list",
        "duplicate-vertex", "sem-list", "int-state-id", "list-label", "int-letter",
        "int-endpoint", "triple-transition", "list-initial", "int-vertex-id",
        "int-edge-endpoint", "string-edge", "list-path-step", "list-choice", "effect-int", "effect-int-row",
        "effect-values-int", "sem-tables-int", "sem-variables-int", "sem-tables-bool-row",
        "sem-duplicate-variable", "sem-table-string-entry", "sem-table-int-entry",
        "effect-int-entry", "effect-values-string-entry", "effect-last-bool",
        "effect-last-float", "effect-last-string",
        "ts-no-states", "ts-unknown-initial", "ts-unknown-target", "ts-unknown-source",
        "ts-label-outside-alphabet", "ts-first-bad-transition-sorted", "game-no-vertices",
        "game-unknown-initial", "game-initial-in-effect", "game-unknown-source",
        "game-unknown-target", "game-effect-with-edge", "game-dead-end", "unknown-owner",
        "unknown-kind", *MISSING_FIELD_IDS,
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


LOOP_GAME = ["--model", str(FIXDIR / "loop_game.json")]
LOOP_SIGMA = str(FIXDIR / "loop_game_sigma.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["distance", "pref", "--p", LOOP_SIGMA, "--q", LOOP_SIGMA], "distance pref needs --model"),
        (["distance", "dstar", *LOOP_GAME, "--tau", LOOP_SIGMA], "distance dstar needs --sigma"),
        (["distance", "dstrat", *LOOP_GAME, "--sigma", LOOP_SIGMA], "distance dstrat needs --tau"),
        (["distance", "hamm-s", "--sigma", LOOP_SIGMA, "--tau", LOOP_SIGMA], "distance hamm-s needs --model"),
    ],
    ids=["pref-model", "dstar-sigma", "dstrat-tau", "hamm-s-model"],
)
def test_distance_missing_operand_exit_2(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr == f"causekit: {message}\n"


BRANCHING_TS = ["--model", str(FIXDIR / "branching_ts.json")]
BRANCHING_RUN = str(FIXDIR / "branching_ts_run.json")
TREE_GAME = ["--model", str(FIXDIR / "tree_game.json")]
TREE_SIGMA = str(FIXDIR / "tree_game_sigma.json")


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["distance", "pref", *BRANCHING_TS, "--p", "{zz}", "--q", "{zz}"],
         {"zz": ["zz", "qq"]}, "'zz' is not a state"),
        (["distance", "pref", *BRANCHING_TS, "--p", BRANCHING_RUN, "--q", "{short}"],
         {"short": ["s0", "s2"]}, "path ends at non-terminal state 's2'"),
        (["distance", "pref", *BRANCHING_TS, "--p", "{hop}", "--q", BRANCHING_RUN],
         {"hop": ["s0", "s8"]}, "('s0', 's8') is not a transition"),
        (["explain", *LOOP_GAME, "--strategy", LOOP_SIGMA, "--cause", "zz"], {},
         "'zz' is not a vertex"),
        (["distance", "pref", *LOOP_GAME, "--p", BRANCHING_RUN, "--q", BRANCHING_RUN], {},
         "model: expected kind 'ts', got 'game'"),
        (["ts-cause", *LOOP_GAME, *TS_ARGS], {}, "model: expected kind 'ts', got 'game'"),
        (["solve", *BRANCHING_TS], {}, "model: expected kind 'game', got 'ts'"),
        (["explain", *BRANCHING_TS, "--strategy", LOOP_SIGMA], {},
         "model: expected kind 'game', got 'ts'"),
        (["game-cause", *BRANCHING_TS, "--player", "reach", "--strategy", LOOP_SIGMA,
          "--cause", "s2", "--metric", "dstar"], {}, "model: expected kind 'game', got 'ts'"),
        (["distance", "dstar", *BRANCHING_TS, "--sigma", LOOP_SIGMA, "--tau", LOOP_SIGMA], {},
         "model: expected kind 'game', got 'ts'"),
        *(
            (["game-cause", *TREE_GAME, "--player", "reach", "--strategy", TREE_SIGMA,
              "--cause", "e000", "--metric", metric], {},
             "cause vertex 'e000' lies in the effect set")
            for metric in ("pref-h", "hamm-s", "dstar")
        ),
        (["explain", *TREE_GAME, "--strategy", TREE_SIGMA, "--cause", "e000"], {},
         "cause vertex 'e000' lies in the effect set"),
    ],
    ids=[
        "pref-unknown-states", "pref-not-maximal", "pref-not-a-transition",
        "explain-unknown-cause", "pref-game-model", "ts-cause-game-model",
        "solve-ts-model", "explain-ts-model", "game-cause-ts-model", "dstar-ts-model",
        "pref-h-effect-cause", "hamm-s-effect-cause", "dstar-effect-cause",
        "explain-effect-cause",
    ],
)
def test_operands_checked_against_the_model_exit_2(tmp_path, capsys, argv, files, message):
    from causekit import cli

    names = {}
    for key, value in files.items():
        names[key] = tmp_path / f"{key}.json"
        names[key].write_text(json.dumps(value))
    assert cli.main([a.format(**names) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"causekit: {message}\n")


def test_sem_bridge_over_the_unroll_cap_exit_3(tmp_path, capsys):
    from causekit import cli

    n = 17
    sem = tmp_path / "sem.json"
    sem.write_text(json.dumps({
        "kind": "sem",
        "variables": [f"X{i + 1}" for i in range(n)],
        "tables": [[False] * 2 ** i for i in range(n)],
    }))
    argv = ["sem", "bridge", "--model", str(sem), "--effect", json.dumps([[False] * n]),
            "--vars", "X1"]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", "causekit: unrolling 17 variables needs 262143 states\n")


@pytest.mark.parametrize("action, causes", [("butfor", 0), ("bridge", 2)])
def test_sem_expansions_are_charged_to_the_budget(tmp_path, capsys, action, causes):
    """One unit per effect row and, for the bridge, per cause state: at
    exactly that many units the bytes are the default's, one fewer exits 3."""
    from causekit import cli

    sem = tmp_path / "sem.json"
    sem.write_text(json.dumps({
        "kind": "sem",
        "variables": ["X1", "X2", "X3"],
        "tables": [[True], [False, True], [True, False, False, True]],
    }))
    effect = json.dumps({"last": 1, "values": [[True], [True]]})
    argv = ["sem", action, "--model", str(sem), "--effect", effect, "--vars", "X2"]
    rows = 4  # 2**(3 - 1) prefixes times one distinct accepted row
    code = cli.main(argv)
    default = capsys.readouterr()
    assert cli.main([*argv, "--budget", str(rows + causes)]) == code
    assert capsys.readouterr() == default
    for units in {rows - 1, rows + causes - 1}:
        assert cli.main([*argv, "--budget", str(units)]) == 3
        message = f"causekit: search budget of {units} units exhausted\n"
        assert capsys.readouterr() == ("", message)


NESTED = "[" * 100_000  # deeper than the JSON decoder can recurse


@pytest.mark.parametrize("command", [["solve"], ["explain", "--strategy", "{sigma}"]])
def test_a_deeply_nested_model_file_exits_2(tmp_path, capsys, command):
    from causekit import cli

    model = tmp_path / "deep.json"
    model.write_text(NESTED)
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps({"player": "reach", "choices": {}}))
    argv = [*command, "--model", str(model)]
    assert cli.main([a.format(sigma=sigma) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"causekit: {model}: JSON nested too deeply\n")


def test_a_deeply_nested_effect_flag_exits_2(tmp_path, capsys):
    from causekit import cli

    sem = tmp_path / "sem.json"
    sem.write_text(json.dumps({"kind": "sem", "variables": ["X1"], "tables": [[True]]}))
    argv = ["sem", "butfor", "--model", str(sem), "--effect", NESTED, "--vars", "X1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "causekit: --effect: JSON nested too deeply\n")


DEEP = 1100  # deeper than the interpreter's default recursion limit


def test_hamm_s_on_a_deep_tree_game(tmp_path, capsys):
    # A chain of single-successor Safe vertices ends at the one Reach choice,
    # between the effect and a trap that sigma takes.
    from causekit import cli

    chain = [f"c{i:04d}" for i in range(DEEP)]
    game, sigma = tmp_path / "game.json", tmp_path / "sigma.json"
    game.write_text(json.dumps({
        "kind": "game",
        "initial": chain[0],
        "vertices": [{"id": v, "owner": "safe"} for v in chain + ["t"]]
        + [{"id": "r", "owner": "reach"}, {"id": "g", "owner": "effect"}],
        "edges": [[a, b] for a, b in zip(chain, chain[1:] + ["r"])]
        + [["r", "g"], ["r", "t"], ["t", "t"]],
    }))
    sigma.write_text(json.dumps({"player": "reach", "choices": {"r": "t"}}))
    argv = ["game-cause", "--model", str(game), "--player", "reach",
            "--strategy", str(sigma), "--cause", "t", "--metric", "hamm-s"]
    assert cli.main(argv) in (0, 1)
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (doc["verdict"], doc["minDistance"], err) == (True, "1", "")


def test_oracle_on_a_long_chain(tmp_path, capsys):
    from causekit import cli

    chain = [f"s{i:04d}" for i in range(DEEP)]
    ts, path = tmp_path / "ts.json", tmp_path / "path.json"
    ts.write_text(json.dumps({
        "kind": "ts",
        "alphabet": ["a", "b"],
        "initial": chain[0],
        "states": [{"id": s, "label": "a"} for s in chain] + [{"id": "x", "label": "b"}],
        "transitions": [[a, b] for a, b in zip(chain, chain[1:])] + [[chain[0], "x"]],
    }))
    path.write_text(json.dumps(chain))
    argv = ["oracle", "ts-cause", "--model", str(ts), "--path", str(path),
            "--cause", chain[1], "--effect", chain[-1], "--phi", "reach", "--metric", "ghamm"]
    assert cli.main(argv) in (0, 1)
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (doc["verdict"], doc["diagnostics"]["budgetUsed"], err) == (True, DEEP + 1, "")


def test_oracle_hamm_rejects_a_non_layered_system_like_ts_cause(tmp_path, capsys):
    from causekit import cli

    chain = [f"s{i:04d}" for i in range(DEEP)]
    ts, path = tmp_path / "ts.json", tmp_path / "path.json"
    ts.write_text(json.dumps({
        "kind": "ts",
        "alphabet": ["a", "b"],
        "initial": chain[0],
        "states": [{"id": s, "label": "a"} for s in chain] + [{"id": "x", "label": "b"}],
        "transitions": [[a, b] for a, b in zip(chain, chain[1:])] + [[chain[0], "x"]],
    }))
    path.write_text(json.dumps(chain))
    argv = ["ts-cause", "--model", str(ts), "--path", str(path),
            "--cause", chain[1], "--effect", chain[-1], "--phi", "reach", "--metric", "hamm"]
    message = f"causekit: terminal state 'x' sits at depth 1, not the last layer {DEEP - 1}\n"
    for command in (argv, ["oracle", *argv]):
        assert cli.main(command) == 2
        assert capsys.readouterr() == ("", message)


BAD_TAUS = [
    ({"v0": "t101", "v1": "v3"}, "strategy choice 't101' is not a successor of 'v0'"),
    ({"v0": "s00"}, "strategy undefined at owned vertex 'v1'"),
    ({"v0": "s00", "v1": "v3", "start": "v0"}, "strategy defined at non-owned vertex 'start'"),
]


@pytest.mark.parametrize("metric", ["pref-h", "hamm-s", "dstar", "dstrat"])
@pytest.mark.parametrize("choices, message", BAD_TAUS, ids=["off-edge", "undefined", "non-owned"])
def test_distance_rejects_invalid_strategies(tmp_path, capsys, metric, choices, message):
    from causekit import cli

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"player": "reach", "choices": choices}))
    for sigma, tau in ((TREE_SIGMA, bad), (bad, TREE_SIGMA)):
        argv = ["distance", metric, *TREE_GAME, "--sigma", str(sigma), "--tau", str(tau)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"causekit: {message}\n")


@pytest.mark.parametrize("count", ["-1", "x"])
def test_negative_witness_count_exit_2(count):
    proc = run_cli(*branching_args("ghamm"), "--witnesses", count)
    assert proc.returncode == 2
    assert "argument --witnesses: expected a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def oracle_hamm_args(*extra):
    return [
        "oracle", "ts-cause",
        "--model", str(FIXDIR / "branching_ts.json"),
        "--path", str(FIXDIR / "branching_ts_run.json"),
        "--cause", "s2", "--effect", "s8", "--phi", "reach", "--metric", "hamm",
        *extra,
    ]


DSTAR_TREE = [
    "game-cause", *TREE_GAME, "--player", "reach", "--strategy", TREE_SIGMA,
    "--cause", "v3", "--metric", "dstar",
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (DSTAR_TREE + ["--budget", "-1"], "--budget: expected a non-negative integer, got '-1'"),
        (branching_args("ghamm") + ["--budget", "-5"], "--budget: expected a non-negative integer, got '-5'"),
        (branching_args("ghamm") + ["--budget", "1e3"], "--budget: expected a non-negative integer, got '1e3'"),
        (oracle_hamm_args("--max-len", "-1"), "--max-len: expected a positive integer, got '-1'"),
        (oracle_hamm_args("--max-len", "0"), "--max-len: expected a positive integer, got '0'"),
    ],
    ids=["dstar-budget-negative", "ts-budget-negative", "budget-float", "max-len-negative", "max-len-zero"],
)
def test_malformed_budget_and_max_len_exit_2(capsys, argv, message):
    from causekit import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {message}\n" in err


def test_zero_budget_and_positive_max_len_are_accepted(capsys):
    from causekit import cli

    assert cli.main(branching_args("ghamm") + ["--budget", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == {
        "budgetLimit": 0, "budgetUsed": 0,
    }
    assert cli.main(DSTAR_TREE + ["--budget", "0"]) == 3
    assert capsys.readouterr().err == "causekit: search budget of 0 units exhausted\n"
    assert cli.main(oracle_hamm_args()) == 0
    uncapped = capsys.readouterr().out
    assert cli.main(oracle_hamm_args("--max-len", "9")) == 0
    assert capsys.readouterr().out == uncapped


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    from causekit import cli

    def build_parser():
        raise AssertionError("the parser is built once per process")

    solve = ["solve", "--model", str(FIXDIR / "tree_game.json")]
    expected = [run_cli(*argv) for argv in (branching_args("ghamm"), solve)]
    monkeypatch.setattr(cli, "build_parser", build_parser)
    for argv, proc in zip((branching_args("ghamm"), solve), expected):
        assert cli.main(argv) == proc.returncode == 0
        assert capsys.readouterr().out == proc.stdout


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



def tree_game_args(command, cause, metric):
    return [
        *command,
        "--model", str(FIXDIR / "tree_game.json"),
        "--player", "reach",
        "--strategy", str(FIXDIR / "tree_game_sigma.json"),
        "--cause", cause,
        "--metric", metric,
    ]


# One command per exit code: 0, 1, 2 (the model file is missing) and 3.
EXIT_CASES = [
    (branching_args("ghamm"), 0),
    (branching_args("pref"), 1),
    (["solve", "--model", str(FIXDIR / "missing.json")], 2),
    ([*tree_game_args(["game-cause"], "v3", "dstar"), "--budget", "1"], 3),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
@pytest.mark.parametrize("argv, code", EXIT_CASES, ids=["exit0", "exit1", "exit2", "exit3"])
def test_main_restores_the_collector_state(capsys, enabled, argv, code):
    from causekit import cli

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    # `main` pauses the cyclic collector, which is only sound if no command
    # builds a reference cycle: under DEBUG_SAVEALL, a collection after each
    # command counts every object that only the collector could free.
    from causekit import cli

    sem = str(tmp_path / "sem.json")
    sem_args = ["--model", sem, "--effect", '{"last": 1, "values": [[false]]}', "--vars", "X1"]
    loop_game = ["--model", str(FIXDIR / "loop_game.json")]
    loop_sigma = str(FIXDIR / "loop_game_sigma.json")
    explain = ["explain", *loop_game, "--strategy", loop_sigma]
    ts_metrics = ("pref", "pref-ap", "hamm", "ghamm", "lev")
    cases = [
        (["gen", "--family", "boolean-sem", "--seed", "1", "--out", sem], 0),
        (["solve", *loop_game], 0),
        (explain, 0),
        ([*explain, "--check", "v1"], 0),
        ([*explain, "--check-minimal", "v1,v2", "--metric", "hamm-s"], 1),
        (tree_game_args(["game-cause"], "v2,v3", "pref-h"), 0),
        (tree_game_args(["game-cause"], "v3", "hamm-s"), 0),
        (tree_game_args(["game-cause"], "v3", "dstar"), 1),
        *((branching_args(m), int(m == "pref")) for m in ts_metrics),
        (["oracle", "ts-cause", *branching_args("lev")[1:]], 0),
        (tree_game_args(["oracle", "game-cause"], "v3", "dstar"), 1),
        (["distance", "lev", "--u", "a,b,b,c", "--v", "a,c,c,b,c"], 0),
        (["distance", "dstar", *loop_game, "--sigma", loop_sigma, "--tau", loop_sigma], 0),
        (["sem", "bridge", *sem_args], 0),
        (["sem", "butfor", *sem_args], 0),
        *EXIT_CASES[2:],
    ]
    was, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv, code in cases:
            assert (cli.main(argv), gc.collect()) == (code, 0), argv
            capsys.readouterr()
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        (gc.enable if was else gc.disable)()


def test_check_minimal_dstar_ignores_choices_no_play_reaches(tmp_path, capsys):
    # Sigma steers v0 into the trap t.  Sixteen more Reach vertices, each
    # with the same two edges, sit on an island no play reaches, so only
    # v0's two choices are strategies worth measuring: 2^17 products fit no
    # budget of 200 units, the two matched strategies do.
    from causekit import cli

    island = [f"i{k:02d}" for k in range(16)]
    game, sigma = tmp_path / "game.json", tmp_path / "sigma.json"
    game.write_text(json.dumps({
        "kind": "game",
        "initial": "v0",
        "vertices": [{"id": v, "owner": "reach"} for v in ["v0", *island]]
        + [{"id": "t", "owner": "safe"}, {"id": "g", "owner": "effect"}],
        "edges": [[v, w] for v in ["v0", *island] for w in ("g", "t")] + [["t", "t"]],
    }))
    sigma.write_text(json.dumps({
        "player": "reach", "choices": {v: "t" for v in ["v0", *island]},
    }))
    argv = ["explain", "--model", str(game), "--strategy", str(sigma),
            "--check-minimal", "v0", "--metric", "dstar", "--budget", "200"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (doc["verdict"], err) == (True, "")

