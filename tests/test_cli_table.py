"""The table parse `cli.parse` against `cli.PARSER.parse_args` on enumerated
argv, with the standard library only.

The argv come from argparse's own view of each leaf command, not from the
command table.  Each valid argv must parse to the Namespace argparse
returns.  One variant of a full argv per rule under which the table parse
leaves argv to argparse (an unknown or abbreviated flag, "--flag=value",
"-h", "--", a value starting with "-", a repeated flag, a missing required
argument, an extra token, a failing type, a value outside the choices, two
explain modes) must give None.

argparse differs between Python versions, so this module needs neither
pytest nor hypothesis: `PYTHONPATH=src python tests/test_cli_table.py`
runs it under any interpreter the package supports.
"""

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from causekit import cli


def leaves(parser=cli.PARSER, path=()):
    """(command path, parser) of each leaf command of the argparse tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaves(sub, path + (name,))
            return
    yield path, parser


LEAVES = list(leaves())


def arguments(parser):
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def exclusive(parser):
    """The action lists of the parser's mutually exclusive groups."""
    return [group._group_actions for group in parser._mutually_exclusive_groups]


def values(action):
    """Values the action accepts: its choices, or one its type takes."""
    if action.choices is not None:
        return list(action.choices)
    return ["3"] if action.type else ["a,b"]


def tokens(action, value):
    if not action.option_strings:
        return [value]
    if action.nargs == 0:
        return [action.option_strings[0]]
    return [action.option_strings[0], value]


def argparse_result(argv):
    """(Namespace or None, exit code or None) of `PARSER.parse_args`."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.PARSER.parse_args(argv), None
        except SystemExit as exc:
            return None, exc.code


def full(parser):
    """One chunk of tokens per argument, the first of each exclusive set
    only."""
    later = {id(a) for group in exclusive(parser) for a in group[1:]}
    return [tokens(a, values(a)[0]) for a in arguments(parser) if id(a) not in later]


def valid_argvs(path, parser):
    """The required arguments alone, with each other argument and value
    added, with each choice of a required argument, and every argument in
    declared and in reversed order."""
    required = [a for a in arguments(parser) if a.required]
    minimal = [tokens(a, values(a)[0]) for a in required]
    yield minimal
    for action in arguments(parser):
        for value in values(action):
            if action.required:
                yield [tokens(a, value if a is action else values(a)[0]) for a in required]
            else:
                yield minimal + [tokens(action, value)]
    yield full(parser)
    yield full(parser)[::-1]


def deferred_argvs(path, parser):
    """(rule, chunks) for each rule under which argparse must decide."""
    chunks = full(parser)
    flagged = [i for i, c in enumerate(chunks) if len(c) == 2 and c[0].startswith("--")]
    i = flagged[0]
    flag, value = chunks[i]

    def replaced(j, new):
        return chunks[:j] + [new] + chunks[j + 1:]

    yield "unknown flag", chunks + [["--no-such-flag", "x"]]
    longest = max((chunks[j][0] for j in flagged), key=len)
    yield "abbreviated flag", [[longest[:-1]] + c[1:] if c[0] == longest else c for c in chunks]
    yield "--flag=value", replaced(i, [f"{flag}={value}"])
    yield "-h", [["-h"]] + chunks
    yield "--help", chunks + [["--help"]]
    yield "--", chunks + [["--"]]
    yield "value starting with -", replaced(i, [flag, "-x"])
    yield "repeated flag", chunks + [[flag, value]]
    yield "flag without its value", chunks + [[flag]]
    yield "extra token", chunks + [["extra"]]
    for action in arguments(parser):
        chunk = tokens(action, values(action)[0])
        if action.required:
            yield f"missing {action.dest}", [c for c in chunks if c != chunk]
        if action.type:
            yield f"bad type of {action.dest}", [tokens(action, "x") if c == chunk else c for c in chunks]
        if action.choices is not None:
            yield f"bad choice of {action.dest}", [tokens(action, "nope") if c == chunk else c for c in chunks]
    for group in exclusive(parser):
        yield "two exclusive arguments", chunks + [tokens(group[1], "a")]


def flat(path, chunks):
    return [*path, *(token for chunk in chunks for token in chunk)]


def test_valid_argv_parse_as_argparse_does():
    count = 0
    for path, parser in LEAVES:
        for chunks in valid_argvs(path, parser):
            argv = flat(path, chunks)
            want, code = argparse_result(argv)
            assert code is None, (argv, code)
            assert cli.parse(argv) == want, argv
            count += 1
    assert count > 100


def test_every_deferral_rule_defers():
    for path, parser in LEAVES:
        for rule, chunks in deferred_argvs(path, parser):
            argv = flat(path, chunks)
            assert cli.parse(argv) is None, (rule, argv)
    for argv in ([], ["nope"], ["ts-caus"], ["oracle"], ["oracle", "nope"], ["-h"], ["--help"]):
        assert cli.parse(argv) is None, argv


def test_the_table_and_argparse_have_the_same_leaves():
    assert sorted(path for path, _parser in LEAVES) == sorted(cli.LEAVES)


if __name__ == "__main__":
    for test in (
        test_valid_argv_parse_as_argparse_does,
        test_every_deferral_rule_defers,
        test_the_table_and_argparse_have_the_same_leaves,
    ):
        test()
    print(f"Python {sys.version.split()[0]}: table parse matches argparse")
