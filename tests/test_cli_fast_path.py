"""The table parse on drawn argv, and on the argv the CLI serves.

The property draws argv from argparse's view of each leaf command and
damages some of them: abbreviated, "=" joined or repeated flags, values
starting with "-", missing arguments, bad choices and types, "-h", "--"
and extra tokens.  `cli.parse` must return argparse's Namespace or None,
and must return it for every undamaged argv.  With `PARSER.parse_args`
made to raise, every argv of the fuzz list and one per leaf command must
still run, to the same output: argparse is left only what the table parse
defers.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from causekit import cli
from causekit.fixtures import fixture_json

from test_cli_table import LEAVES, argparse_result, arguments, exclusive, flat, tokens, values
from test_fuzz_cli import COMMANDS, SEM

FLAGS = sorted({flag for _path, p in LEAVES for a in arguments(p) for flag in a.option_strings})


def abbreviate(draw, chunk):
    flag = chunk[0]
    if not flag.startswith("--") or len(flag) < 4:
        return [chunk]
    return [[flag[: draw(st.integers(3, len(flag) - 1))], *chunk[1:]]]


def join(draw, chunk):
    return [["=".join(chunk)]] if len(chunk) == 2 else [chunk]


def repeat(draw, chunk):
    return [chunk, chunk]


def dash_value(draw, chunk):
    return [[*chunk[:-1], "-" + draw(st.sampled_from(["x", "1", "-pretty", ""]))]]


def drop(draw, chunk):
    return []


def bad_value(draw, chunk):
    return [[*chunk[:-1], draw(st.sampled_from(["nope", "x", "0", "-1", "1.5", ""]))]]


def insert(draw, chunk):
    token = draw(st.sampled_from(["-h", "--help", "--", "extra", *FLAGS]))
    return [[token], chunk] if draw(st.booleans()) else [chunk, [token]]


DAMAGE = (abbreviate, join, repeat, dash_value, drop, bad_value, insert)


@st.composite
def argvs(draw):
    """(argv, whether it is undamaged and gives at most one explain mode)."""
    path, parser = draw(st.sampled_from(LEAVES))
    chosen = [a for a in arguments(parser) if a.required or draw(st.booleans())]
    chunks = [tokens(a, draw(st.sampled_from(values(a)))) for a in chosen]
    chunks = draw(st.permutations(chunks))
    damaged = False
    for _ in range(draw(st.integers(0, 2))):
        if not chunks:
            break
        i = draw(st.integers(0, len(chunks) - 1))
        chunks[i:i + 1] = draw(st.sampled_from(DAMAGE))(draw, chunks[i])
        damaged = True
    clean = not damaged and all(
        sum(a in chosen for a in group) < 2 for group in exclusive(parser)
    )
    return flat(path, chunks), clean


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_table_parse_equals_argparse_or_defers(drawn):
    argv, clean = drawn
    got = cli.parse(argv)
    want, code = argparse_result(argv)
    if clean:
        assert got is not None and code is None
    assert got is None or (got == want and code is None)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def served(tmp_path):
    """Every argv of the fuzz list and one argv per leaf command, over the
    fixtures."""
    for n, (docs, argv) in enumerate(COMMANDS):
        names = []
        for i, doc in enumerate(docs):
            names.append(tmp_path / f"in{n}-{i}.json")
            names[-1].write_text(json.dumps(fixture_json(doc) if isinstance(doc, str) else doc))
        yield [arg.format(*names) for arg in argv]
    fix = Path(cli.__file__).parent / "fixtures"
    ts = ["--model", str(fix / "branching_ts.json"), "--path", str(fix / "branching_ts_run.json"),
          "--cause", "s2", "--effect", "s6,s8", "--phi", "reach", "--metric", "ghamm"]
    game = ["--model", str(fix / "tree_game.json"), "--player", "reach",
            "--strategy", str(fix / "tree_game_sigma.json"), "--cause", "v3", "--metric", "pref-h"]
    sem = tmp_path / "sem.json"
    sem.write_text(json.dumps(SEM))
    minimal = {
        ("ts-cause",): ts,
        ("game-cause",): game,
        ("solve",): ["--model", str(fix / "tree_game.json")],
        ("explain",): ["--model", str(fix / "loop_game.json"),
                       "--strategy", str(fix / "loop_game_sigma.json")],
        ("distance",): ["lev"],
        ("sem",): ["butfor", "--model", str(sem), "--effect", "[[true, true]]", "--vars", "X1"],
        ("oracle", "ts-cause"): ts,
        ("oracle", "game-cause"): game,
        ("gen",): ["--family", "acyclic-game"],
    }
    assert sorted(minimal) == sorted(cli.LEAVES)
    for path, argv in minimal.items():
        yield [*path, *argv]


def test_served_argv_never_reach_argparse(tmp_path, monkeypatch):
    argvs = list(served(tmp_path))
    expected = [run(argv) for argv in argvs]

    def parse_args(*args, **kwargs):
        raise AssertionError("argparse parsed an argv the table accepts")

    monkeypatch.setattr(cli.PARSER, "parse_args", parse_args)
    for argv, want in zip(argvs, expected):
        assert want[0] in (0, 1)
        assert run(argv) == want
