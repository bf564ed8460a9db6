"""`dumps_canonical` writes the bytes of `json.dumps(sort_keys=True, indent=2)`.

Random JSON values, including nested empty arrays and objects, non-ASCII
text, floats and non-string keys (which the writer hands to `json`); lists
of Boolean rows, which the writer renders a row at a time, and rows that
only look Boolean (1 == True); dicts of many str values, which it joins at
once; and every document the shipped fixtures are and the CLI prints over
them.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from causekit import cli
from causekit.fixtures import fixture_json
from causekit.model import dumps_canonical

from test_fuzz_cli import COMMANDS

FIXTURES = sorted(p.name for p in (Path(cli.__file__).parent / "fixtures").glob("*.json"))


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def outcome(render, obj):
    try:
        return render(obj)
    except TypeError as exc:
        return TypeError, str(exc)


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.sampled_from(["", "é", "naïve ☃", "\x00\n\t\"\\", "퟿\U0001f600"])
)
VALUES = st.recursive(
    SCALARS | st.floats(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3) | st.booleans() | st.none(), inner, max_size=2),
    max_leaves=20,
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(VALUES)
def test_writer_matches_json_dumps(obj):
    assert outcome(dumps_canonical, obj) == outcome(reference, obj)


ROW = (
    st.lists(st.booleans(), max_size=5)
    | st.tuples(st.booleans(), st.booleans())
    | st.lists(st.booleans() | st.sampled_from([0, 1]), max_size=4)
)
ROWS = st.lists(ROW, max_size=6) | st.tuples(ROW, ROW)
ROW_DOCS = (
    ROWS
    | st.dictionaries(st.text(max_size=3), ROWS, max_size=3)
    | st.lists(ROWS | st.booleans(), max_size=3)
)
# Large enough to be joined at once; an int key sends the dict to `json`.
STR_DICTS = st.dictionaries(
    st.text(max_size=3) | st.integers(0, 3), st.text(max_size=3), min_size=9, max_size=12
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ROW_DOCS)
def test_boolean_rows_match_json_dumps(obj):
    assert dumps_canonical(obj) == reference(obj)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(STR_DICTS | st.dictionaries(st.text(max_size=2), STR_DICTS, max_size=2))
def test_dicts_of_str_values_match_json_dumps(obj):
    assert outcome(dumps_canonical, obj) == outcome(reference, obj)


def test_rows_that_only_look_boolean():
    for obj in ([[True, 1]], [[1], [True]], ([False], (0,)), [[], [True], []], {"a": [(True,), []]}):
        assert dumps_canonical(obj) == reference(obj)


def test_empty_containers_and_mixed_keys():
    for obj in ([], {}, [[]], {"a": {}}, [{}, [[], {"b": []}]], {"x": [True, None, 0]}):
        assert dumps_canonical(obj) == reference(obj)
    assert outcome(dumps_canonical, {1: "a", "b": 2}) == outcome(reference, {1: "a", "b": 2})


def cli_documents():
    """The fixture documents and what every command of the fuzz list prints
    over them."""
    docs = [fixture_json(name) for name in FIXTURES]
    with tempfile.TemporaryDirectory() as tmp:
        for inputs, argv in COMMANDS:
            names = []
            for i, doc in enumerate(inputs):
                names.append(Path(tmp) / f"in{i}.json")
                names[-1].write_text(json.dumps(fixture_json(doc) if isinstance(doc, str) else doc))
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                assert cli.main([arg.format(*names) for arg in argv]) in (0, 1)
            docs.append(json.loads(out.getvalue()))
    return docs


def test_every_fixture_and_cli_document():
    docs = cli_documents()
    assert len(docs) == len(FIXTURES) + len(COMMANDS)
    for doc in docs:
        assert dumps_canonical(doc) == reference(doc)
