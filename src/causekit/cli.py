"""Command-line interface: machine-readable verdict documents, stable bytes.

`COMMANDS` is the command table: one row per subcommand with its help text,
its handler and its arguments, each declared once.  `oracle ts-cause` and
`oracle game-cause` reuse the rows' argument sets of `ts-cause` and
`game-cause`.  Two readers are built from the table once per process.
`parse` reads a valid argv in one pass, from `LEAVES`, one record per leaf
command.  The argparse tree `PARSER` reads every argv that `parse` does
not fully accept, so help, usage errors and their exit code 2 come from
argparse.  Both give the same `argparse.Namespace`, whose `run`
is the subcommand's handler; `main` runs it and emits its document.

Exit codes: 0 positive verdict, 1 negative verdict, 2 usage or model error,
3 budget exhausted.  Documents serialize with sorted keys so a fixed seed and
budget reproduce identical bytes.
"""

import argparse
import gc
import json
import sys
from functools import partial

from . import distances, game_causality, generators, sem_bridge, ts_causality
from .errors import Budget, BudgetExceeded, CausekitError, NoWinningStrategy
from .model import (
    MaximalFinitePath,
    TransitionSystem,
    dumps_canonical,
    load_model,
    load_path,
    load_strategy,
    model_to_json,
    read_json,
    strategy_to_json,
    validate_maximal_path,
    validate_strategy,
)

PATH_METRICS = ("pref",)
STRATEGY_METRICS = ("pref-h", "hamm-s", "dstar")

WORD_DISTANCES = {
    "pref-ap": distances.d_pref_ap,
    "hamm": distances.d_hamm,
    "ghamm": distances.d_ghamm,
    "lev": distances.d_lev,
}
# Each takes (game, sigma, tau); dstrat is measured from tau to sigma.
STRATEGY_DISTANCES = {
    "pref-h": lambda game, sigma, tau: distances.d_pref_hausdorff(game, sigma, tau),
    "hamm-s": lambda game, sigma, tau: distances.d_hamm_s(game, sigma, tau),
    "dstar": lambda game, sigma, tau: distances.dstar(game, sigma, tau),
    "dstrat": lambda game, sigma, tau: distances.dstrat(game, tau, sigma),
}


def _split(text):
    return frozenset(x for x in (text or "").split(",") if x)


def _word(text):
    return tuple((text or "").split(",")) if text else ()


def _ts_witnesses(verdict):
    return [
        {
            "path": list(w.path),
            "distance": distances.format_distance(w.distance),
            "satisfiesPhi": w.satisfies_phi,
        }
        for w in verdict.witnesses
    ]


def _game_witnesses(verdict):
    return [
        {
            "strategy": strategy_to_json(w.strategy),
            "distance": distances.format_distance(w.distance),
            "winning": w.winning,
        }
        for w in verdict.witnesses
    ]


def _diag(budget):
    return {"budgetLimit": budget.limit, "budgetUsed": budget.used}


def _emit(args, doc):
    sys.stdout.write(dumps_canonical(doc))
    if args.pretty:
        width = max((len(k) for k in doc), default=0)
        for key in sorted(doc):
            sys.stdout.write(f"{key.ljust(width)}  {json.dumps(doc[key], sort_keys=True)}\n")


def _given(args, flag):
    """The value of an option that the chosen distance metric needs."""
    value = getattr(args, flag)
    if value is None:
        raise CausekitError(f"distance {args.metric} needs --{flag}")
    return value


def _load(path, kind):
    """Load a model file that must be of the given kind, "ts" or "game"."""
    model = load_model(path)
    found = "ts" if isinstance(model, TransitionSystem) else "game"
    if found != kind:
        raise CausekitError(f"model: expected kind {kind!r}, got {found!r}")
    return model


def _count(text):
    """argparse type of --witnesses and --budget: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive(text):
    """argparse type of --max-len: a positive integer."""
    if not text.isdecimal() or not int(text):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# commands


def cmd_ts_cause(args, oracle=False):
    ts = _load(args.model, "ts")
    pi = MaximalFinitePath(load_path(args.path))
    query = ts_causality.CauseQuery(
        ts=ts,
        pi=pi,
        cause=_split(args.cause),
        effect=_split(args.effect),
        phi=args.phi,
        metric=args.metric,
        witnesses=args.witnesses,
    )
    budget = Budget(args.budget)
    if oracle:
        verdict = ts_causality.brute_force_check(
            query, max_len=args.max_len, budget=budget
        )
    else:
        verdict = ts_causality.check_cause(query)
    doc = {
        "command": "oracle ts-cause" if oracle else "ts-cause",
        "inputs": {
            "model": args.model,
            "path": list(pi.sequence),
            "cause": sorted(query.cause),
            "effect": sorted(query.effect),
            "phi": args.phi,
            "metric": args.metric,
        },
        "verdict": verdict.is_cause,
        "minDistance": distances.format_distance(verdict.min_distance),
        "condition1": verdict.condition1,
        "witnesses": _ts_witnesses(verdict),
        "diagnostics": _diag(budget),
    }
    return doc, 0 if verdict.is_cause else 1


def cmd_game_cause(args, oracle=False):
    game = _load(args.model, "game")
    sigma = load_strategy(args.strategy)
    query = game_causality.GameCauseQuery(
        game=game,
        player=args.player,
        sigma=sigma,
        cause=_split(args.cause),
        metric=args.metric,
        witnesses=args.witnesses,
    )
    budget = Budget(args.budget)
    if oracle:
        verdict = game_causality.brute_force_check_cause(query, budget=budget)
    else:
        verdict = game_causality.check_cause_game(query, budget=budget)
    doc = {
        "command": "oracle game-cause" if oracle else "game-cause",
        "inputs": {
            "model": args.model,
            "player": args.player,
            "cause": sorted(query.cause),
            "metric": args.metric,
        },
        "verdict": verdict.is_cause,
        "minDistance": distances.format_distance(verdict.min_distance),
        "condition1": verdict.condition1,
        "condition2": verdict.condition2,
        "witnesses": _game_witnesses(verdict),
        "diagnostics": _diag(budget),
    }
    return doc, 0 if verdict.is_cause else 1


def cmd_solve(args):
    game = _load(args.model, "game")
    analysis = game_causality.solve(game)
    winner = "reach" if game.initial in analysis.reach_region else "safe"
    doc = {
        "command": "solve",
        "inputs": {"model": args.model},
        "verdict": winner,
        # the regions in vertex order, which is sorted
        "reachRegion": list(filter(analysis.reach_region.__contains__, game.vertices)),
        "safeRegion": list(filter(analysis.safe_region.__contains__, game.vertices)),
        "reachStrategy": strategy_to_json(analysis.reach_strategy),
        "safeStrategy": strategy_to_json(analysis.safe_strategy),
    }
    return doc, 0


def cmd_explain(args):
    game = _load(args.model, "game")
    sigma = load_strategy(args.strategy)
    budget = Budget(args.budget)
    inputs = {"model": args.model, "player": sigma.player}
    if args.check is not None:
        inputs["set"] = sorted(_split(args.check))
        ok, tau = game_causality.is_explanation(game, sigma, _split(args.check))
        doc = {
            "command": "explain check",
            "verdict": ok,
            "witness": strategy_to_json(tau) if tau else None,
        }
    elif args.check_minimal is not None:
        inputs["set"] = sorted(_split(args.check_minimal))
        inputs["metric"] = args.metric
        ok = game_causality.is_minimal_explanation(
            game, sigma, _split(args.check_minimal), args.metric, budget=budget
        )
        doc = {"command": "explain check-minimal", "verdict": ok}
    else:
        inputs["cause"] = sorted(_split(args.cause))
        try:
            explanation = game_causality.extract_explanation(
                game, sigma, _split(args.cause)
            )
        except NoWinningStrategy as exc:
            doc = {"command": "explain", "verdict": False, "reason": str(exc)}
        else:
            doc = {
                "command": "explain",
                "verdict": True,
                "explanation": sorted(explanation.vertex_set),
                "witness": strategy_to_json(explanation.witness),
            }
    doc["inputs"] = inputs
    doc["diagnostics"] = _diag(budget)
    return doc, 0 if doc["verdict"] else 1


def cmd_distance(args):
    budget = Budget(args.budget)
    metric = args.metric
    doc = {"command": "distance", "inputs": {"metric": metric}}
    if metric in WORD_DISTANCES:
        u, v = _word(args.u), _word(args.v)
        doc["inputs"].update(u=list(u), v=list(v))
        value = WORD_DISTANCES[metric](u, v)
        if metric == "lev":
            value, witness = value
            doc["editSequence"] = [[a, b] for a, b in witness.symbols]
    elif metric in PATH_METRICS:
        ts = _load(_given(args, "model"), "ts")
        p, q = load_path(_given(args, "p")), load_path(_given(args, "q"))
        validate_maximal_path(ts, p)
        validate_maximal_path(ts, q)
        doc["inputs"].update(p=list(p), q=list(q))
        value = distances.d_pref(p, q)
    else:
        game = _load(_given(args, "model"), "game")
        sigma = load_strategy(_given(args, "sigma"))
        tau = load_strategy(_given(args, "tau"))
        validate_strategy(game, sigma)
        validate_strategy(game, tau)
        doc["inputs"]["model"] = args.model
        value = STRATEGY_DISTANCES[metric](game, sigma, tau)
    doc["verdict"] = distances.format_distance(value)
    doc["diagnostics"] = _diag(budget)
    return doc, 0


def cmd_sem(args):
    sem = sem_bridge.sem_from_json(read_json(args.model))
    try:
        effect = json.loads(args.effect)
    except RecursionError:
        raise CausekitError("--effect: JSON nested too deeply") from None
    budget = Budget(args.budget)
    rows = sem_bridge.effect_from_json(sem, effect, budget)  # distinct and sorted, as echoed
    effect = frozenset(rows)
    variables = sorted(_split(args.vars))
    inputs = {"model": args.model, "vars": variables, "effect": rows}
    butfor = sem_bridge.is_but_for_cause(sem, effect, variables)
    if args.action == "butfor":
        doc = {"command": "sem butfor", "inputs": inputs, "verdict": butfor}
        return doc, 0 if butfor else 1
    verdict = sem_bridge.bridge_check(sem, effect, variables, witnesses=args.witnesses)
    doc = {
        "command": "sem bridge",
        "inputs": inputs,
        "butFor": butfor,
        "causeStates": sorted(sem_bridge.butfor_to_cause_set(sem, variables, budget)),
        "verdict": verdict.is_cause,
        "minDistance": distances.format_distance(verdict.min_distance),
        "witnesses": _ts_witnesses(verdict),
    }
    return doc, 0 if verdict.is_cause else 1


def cmd_gen(args):
    spec = generators.GeneratorSpec(
        family=args.family,
        seed=args.seed,
        states=args.states,
        layers=args.layers,
        width=args.width,
        alphabet=args.alphabet,
        variables=args.vars,
    )
    instance = generate_json(spec, Budget(args.budget))
    text = dumps_canonical(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        doc = {
            "command": "gen",
            "inputs": {"family": args.family, "seed": args.seed},
            "out": args.out,
            "verdict": True,
        }
        return doc, 0
    sys.stdout.write(text)
    return None, 0


def generate_json(spec, budget=None):
    instance = generators.generate(spec, budget)
    if isinstance(instance, sem_bridge.StructuralEquationModel):
        return sem_bridge.sem_to_json(instance)
    return model_to_json(instance)


# ---------------------------------------------------------------------------
# command table


def _arg(*flags, **options):
    return flags, options


def _one_of(*arguments):
    """Arguments of which at most one may be given."""
    return None, arguments


MODEL = _arg("--model", required=True)
STRATEGY = _arg("--strategy", required=True)
CAUSE = _arg("--cause", required=True)
TS_CAUSE = (
    MODEL,
    _arg("--path", required=True),
    CAUSE,
    _arg("--effect", required=True),
    _arg("--phi", choices=("reach", "safe"), required=True),
    _arg("--metric", choices=(*PATH_METRICS, *WORD_DISTANCES), required=True),
)
GAME_CAUSE = (
    MODEL,
    _arg("--player", choices=("reach", "safe"), required=True),
    STRATEGY,
    CAUSE,
    _arg("--metric", choices=STRATEGY_METRICS, required=True),
)
EXPLAIN = (
    MODEL,
    STRATEGY,
    _one_of(_arg("--cause"), _arg("--check"), _arg("--check-minimal")),
    _arg("--metric", choices=("hamm-s", "dstar"), default="hamm-s"),
)
DISTANCE = (
    _arg("metric", choices=(*WORD_DISTANCES, *PATH_METRICS, *STRATEGY_DISTANCES)),
    _arg("--u", default=""),
    _arg("--v", default=""),
    _arg("--model"),
    _arg("--p"),
    _arg("--q"),
    _arg("--sigma"),
    _arg("--tau"),
)
SEM = (
    _arg("action", choices=("butfor", "bridge")),
    MODEL,
    _arg("--effect", required=True, help="JSON valuation list or predicate"),
    _arg("--vars", required=True),
)
GEN = (
    _arg("--family", choices=generators.FAMILIES, required=True),
    _arg("--states", type=int, default=8),
    _arg("--layers", type=int, default=4),
    _arg("--width", type=int, default=3),
    _arg("--alphabet", type=int, default=2),
    _arg("--vars", type=int, default=3),
    _arg("--out"),
)
MAX_LEN = _arg("--max-len", type=_positive)
# Every leaf subcommand takes these after its own arguments.
COMMON = (
    _arg("--budget", type=_count, default=Budget.DEFAULT_LIMIT),
    _arg("--seed", type=int, default=0),
    _arg("--witnesses", type=_count, default=3),
    _arg("--pretty", action="store_true"),
)

# Rows are (name, help, handler, arguments).  A row whose handler is itself a
# table is a command group; its subcommand lands in `<name>_command`.  An
# argument whose flags are None is a `_one_of` set.
ORACLE = (
    ("ts-cause", None, partial(cmd_ts_cause, oracle=True), (*TS_CAUSE, MAX_LEN)),
    ("game-cause", None, partial(cmd_game_cause, oracle=True), GAME_CAUSE),
)
COMMANDS = (
    ("ts-cause", "check a cause on an execution", cmd_ts_cause, TS_CAUSE),
    ("game-cause", "check a cause for a losing strategy", cmd_game_cause, GAME_CAUSE),
    ("solve", "winning regions and strategies", cmd_solve, (MODEL,)),
    ("explain", "extract or check strategy explanations", cmd_explain, EXPLAIN),
    ("distance", "evaluate one distance function", cmd_distance, DISTANCE),
    ("sem", "but-for causes and the Hamming bridge", cmd_sem, SEM),
    ("oracle", "brute-force definitional checks", ORACLE, ()),
    ("gen", "seeded random instance generators", cmd_gen, GEN),
)


def _add_commands(parser, dest, table):
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, run, arguments in table:
        p = sub.add_parser(name, help=help_text) if help_text else sub.add_parser(name)
        if isinstance(run, tuple):
            _add_commands(p, f"{name}_command", run)
            continue
        for flags, options in arguments + COMMON:
            if flags is None:  # a _one_of set
                group = p.add_mutually_exclusive_group()
                for member_flags, member_options in options:
                    group.add_argument(*member_flags, **member_options)
            else:
                p.add_argument(*flags, **options)
        p.set_defaults(run=run)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="causekit",
        description="Distance-based counterfactual causality for transition "
        "systems and reachability games.",
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def _dest(flag):
    """argparse's dest of a positional or of a one-flag argument."""
    return flag.lstrip("-").replace("-", "_") if flag.startswith("-") else flag


def _leaves(table, dest="command", names=None):
    """{command path: record} for each leaf command of the table, read as
    `_add_commands` declares it to argparse (see `_leaf`)."""
    leaves = {}
    for name, _help, run, arguments in table:
        named = {**(names or {}), dest: name}
        if isinstance(run, tuple):
            leaves.update(_leaves(run, f"{name}_command", named))
        else:
            leaves[tuple(named.values())] = _leaf(arguments + COMMON, {**named, "run": run})
    return leaves


def _leaf(arguments, defaults):
    """(flags, positionals, defaults, required, exclusive) of one leaf
    command: `flags` maps each flag to its (dest, type, choices, whether it
    takes a value), `positionals` lists their (dest, type, choices) in
    order, `defaults` grows into the Namespace before any argument is read,
    `required` is the set of dests that must be given and `exclusive` lists
    the dest sets of `_one_of`."""
    flags, positionals, required, exclusive = {}, [], set(), []
    for entry in arguments:
        if entry[0] is None:  # a _one_of set
            group = entry[1]
            exclusive.append(frozenset(_dest(flag) for (flag,), _options in group))
        else:
            group = (entry,)
        for (flag,), options in group:
            dest = _dest(flag)
            switch = options.get("action") == "store_true"
            spec = (dest, options.get("type"), options.get("choices"))
            defaults[dest] = False if switch else options.get("default")
            if flag.startswith("-"):
                flags[flag] = (*spec, not switch)
            else:
                positionals.append(spec)
            if options.get("required") or not flag.startswith("-"):
                required.add(dest)
    return flags, positionals, defaults, required, exclusive


PARSER = build_parser()
LEAVES = _leaves(COMMANDS)


def parse(argv):
    """The Namespace `PARSER.parse_args(argv)` returns, for an argv that
    the command table fully accepts, read in one pass; None for any other.

    Command names and flags must match exactly, and each flag may come
    once.  Values and positionals must not start with "-" and must pass
    their type and choices.  No required argument may be missing, no token
    left over, and no two of a `_one_of` set given.  Everything else ("-h",
    "--", "--flag=value", abbreviations) is left to argparse, so help and
    usage errors keep its messages and exit code 2.
    """
    n = 1 if tuple(argv[:1]) in LEAVES else 2
    leaf = LEAVES.get(tuple(argv[:n]))
    if leaf is None:
        return None
    flags, positionals, defaults, required, exclusive = leaf
    values, given, p = dict(defaults), set(), 0
    tokens = iter(argv[n:])
    for token in tokens:
        if token[:1] != "-":
            if p == len(positionals):
                return None
            dest, convert, choices = positionals[p]
            p += 1
        else:
            spec = flags.get(token)
            if spec is None or spec[0] in given:
                return None
            dest, convert, choices, takes_value = spec
            if not takes_value:
                given.add(dest)
                values[dest] = True
                continue
            token = next(tokens, "-")  # a flag at the end lacks its value
            if token[:1] == "-":
                return None
        given.add(dest)
        if convert is not None:
            try:
                token = convert(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and token not in choices:
            return None
        values[dest] = token
    if not required <= given or any(len(group & given) > 1 for group in exclusive):
        return None
    return argparse.Namespace(**values)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = parse(argv)
    if args is None:
        args = PARSER.parse_args(argv)
    # No command builds a reference cycle (tests/test_cli.py checks every
    # subcommand), so the cyclic collector's passes would only cost time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if collecting:
            gc.enable()


def _run(args):
    try:
        doc, code = args.run(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"causekit: {exc}\n")
        return 3
    except (CausekitError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"causekit: {exc}\n")
        return 2
    if doc is not None:
        _emit(args, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
