"""Damaged input files never crash the CLI.

Each example takes one command over the shipped fixtures or a small SEM
document, damages one of its input files (replaced or deleted JSON values,
sometimes truncated text or nested too deeply to decode) and runs
`cli.main` in-process.  The run must end with an exit code from 0 to 3 and
no uncaught exception.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from causekit import cli
from causekit.fixtures import fixture_json

SEM = {"kind": "sem", "variables": ["X1", "X2"], "tables": [[True], [False, True]]}
BUDGET = ["--budget", "2000"]
TS = ["--cause", "s2", "--effect", "s6,s8", "--phi", "reach", "--metric"]
TREE = ["--player", "reach", "--cause", "v3", "--metric"]
SEM_EFFECT = ["--effect", "[[true, true]]", "--vars"]

# (input documents, argv with {0}, {1} for their files)
COMMANDS = [
    *(
        (("branching_ts.json", "branching_ts_run.json"),
         ["ts-cause", "--model", "{0}", "--path", "{1}", *TS, metric])
        for metric in ("pref", "pref-ap", "hamm", "ghamm", "lev")
    ),
    *(
        (("tree_game.json", "tree_game_sigma.json"),
         ["game-cause", "--model", "{0}", "--strategy", "{1}", *TREE, metric, *BUDGET])
        for metric in ("pref-h", "hamm-s", "dstar")
    ),
    (("loop_game.json", "loop_game_sigma.json"),
     ["explain", "--model", "{0}", "--strategy", "{1}", *BUDGET]),
    (("loop_game.json", "loop_game_sigma.json"),
     ["explain", "--model", "{0}", "--strategy", "{1}", "--check", "v1", *BUDGET]),
    (("tree_game.json", "tree_game_sigma.json"),
     ["explain", "--model", "{0}", "--strategy", "{1}", "--check-minimal", "v1",
      "--metric", "dstar", *BUDGET]),
    (("tree_game.json",), ["solve", "--model", "{0}"]),
    (("loop_game.json", "loop_game_sigma.json"),
     ["distance", "dstar", "--model", "{0}", "--sigma", "{1}", "--tau", "{1}", *BUDGET]),
    ((SEM,), ["sem", "butfor", "--model", "{0}", *SEM_EFFECT, "X1"]),
    ((SEM,), ["sem", "bridge", "--model", "{0}", *SEM_EFFECT, "X2"]),
]

KEYS = st.sampled_from(
    ["kind", "id", "owner", "label", "initial", "states", "vertices", "edges",
     "transitions", "alphabet", "player", "choices", "variables", "tables", "path",
     "v0", "v1", "s0"]
)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(
        ["", "s0", "s2", "v0", "v1", "v3", "reach", "safe", "effect", "ts", "game", "X1"]
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def slots(doc, path=()):
    """Every position in the document, the root included, as a key path."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from slots(value, path + (key,))


def damage(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(slots(doc))))
        value = data.draw(VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = value
        else:
            del parent[path[-1]]
    text = json.dumps(doc)
    if data.draw(st.integers(0, 4)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    if data.draw(st.integers(0, 9)) == 0:  # past the decoder's recursion limit
        depth = 100_000
        text = "[" * depth + text + "]" * data.draw(st.sampled_from((0, depth)))
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_damaged_inputs_exit_0_to_3(data):
    docs, argv = data.draw(st.sampled_from(COMMANDS))
    docs = [fixture_json(d) if isinstance(d, str) else d for d in docs]
    hit = data.draw(st.integers(0, len(docs) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        names = []
        for i, doc in enumerate(docs):
            names.append(Path(tmp) / f"in{i}.json")
            names[-1].write_text(damage(data, doc) if i == hit else json.dumps(doc))
        code = run([arg.format(*names) for arg in argv])
    assert code in (0, 1, 2, 3)
