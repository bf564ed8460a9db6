"""Only the order of ids matters.

Models number their vertices in sorted-id order and every kernel runs on
those numbers, so a strictly increasing renaming of the ids must rename
every verdict document and change nothing else.  Each example draws a model
whose ids mix string and numeric order ("v9" < "v10" as numbers, not as
strings), case and non-ASCII letters, renames it, writes each copy with
its own shuffle of vertices and pairs and some pairs repeated, and runs the
same commands on both files through `cli.main` in-process.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from causekit import cli
from causekit.generators import acyclic_game, acyclic_ts, cyclic_game, layered_ts, random_strategy
from causekit.model import ReachabilityGame, model_from_json, model_to_json

from helpers import with_unreachable_copy

# Ids whose string order differs from their numeric order, or that differ
# only in case or by a non-ASCII letter.
POOL = (
    "v9", "v10", "v100", "9", "10", "100", "a", "A", "b", "B", "e", "é", "E", "É",
    "z", "Z", "ß", "s", "S", "x1", "X1", "x10", "x2", "ü", "u", "U", "ñ", "n",
)
BUDGET = ["--budget", "20000"]
# Document fields that hold ids: lists of ids, and strategy choice maps.
ID_LISTS = (
    "reachRegion", "safeRegion", "explanation", "cause", "effect", "set", "path", "p", "q",
)


class Ids(tuple):
    """An argument that lists ids, comma-separated on the command line."""


def prefixed(ids):
    """A fixed prefix: order-preserving for any ids."""
    return {v: "id:" + v for v in ids}


def padded(ids):
    """The zero-padded rank in sorted order, behind a prefix."""
    return {v: f"q{i:04d}" for i, v in enumerate(sorted(ids))}


def rename_doc(doc, name, key=None):
    """The document with every id renamed by the map `name`."""
    if isinstance(doc, dict):
        if key == "choices":
            return {name[v]: name[u] for v, u in doc.items()}
        return {k: rename_doc(v, name, k) for k, v in doc.items() if k != "model"}
    if isinstance(doc, list):
        if key in ID_LISTS:
            return [name[v] for v in doc]
        return [rename_doc(v, name) for v in doc]
    return doc


def run(argv):
    """(exit code, document or None) of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if text else None


def relabel(data, name):
    """A model document with its ids renamed by `name`."""
    data = json.loads(json.dumps(data))
    items = data["vertices"] if data["kind"] == "game" else data["states"]
    for item in items:
        item["id"] = name[item["id"]]
    data["initial"] = name[data["initial"]]
    key = "edges" if data["kind"] == "game" else "transitions"
    data[key] = [[name[a], name[b]] for a, b in data[key]]
    return data


def scramble(data, rng):
    """The document with shuffled items and pairs, some pairs repeated."""
    data = json.loads(json.dumps(data))
    key = "edges" if data["kind"] == "game" else "transitions"
    data[key] += rng.sample(data[key], rng.randint(0, len(data[key])))
    rng.shuffle(data[key])
    rng.shuffle(data["vertices"] if data["kind"] == "game" else data["states"])
    return data


def tricky_ids(ids, rng):
    """An injective map from `ids` into POOL, extended past it by suffixes."""
    pool = list(POOL)
    pool += [v + "'" for v in POOL] + [v + "9" for v in POOL]
    return dict(zip(ids, rng.sample(pool, len(ids))))


def game_commands(game, rng):
    """(argv with {model}, {sigma} and {tau}, the strategy documents) for a game."""
    player = rng.choice(("reach", "safe"))
    if not game.owned_by(player):
        player = "reach" if player == "safe" else "safe"
    sigma, tau = (random_strategy(rng, game, player) for _ in range(2))
    pool = sorted(set(game.vertices) - game.effect)
    cause = Ids(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
    owned = sorted(v for v in game.owned_by(player) if len(game.successors(v)) > 1)
    chosen = Ids(rng.sample(owned, min(len(owned), rng.randint(1, 2))))
    model, strategy = ["--model", "{model}"], ["--strategy", "{sigma}"]
    argvs = [["solve", *model]]
    argvs += [["explain", *model, *strategy, "--cause", cause, *BUDGET]]
    argvs += [["explain", *model, *strategy, "--cause", "", *BUDGET]]
    if chosen:
        argvs += [["explain", *model, *strategy, "--check", chosen, *BUDGET]]
        argvs += [["explain", *model, *strategy, "--check-minimal", chosen,
                   "--metric", metric, *BUDGET] for metric in ("hamm-s", "dstar")]
    argvs += [["game-cause", *model, "--player", player, *strategy, "--cause", cause,
               "--metric", metric, *BUDGET] for metric in ("pref-h", "hamm-s", "dstar")]
    argvs += [["distance", metric, *model, "--sigma", "{sigma}", "--tau", "{tau}", *BUDGET]
              for metric in ("pref-h", "hamm-s", "dstar", "dstrat")]
    return argvs, {"sigma": sigma, "tau": tau}


def ts_commands(ts, rng):
    """(argv with {model}, {pi} and {rho}, the path documents) for a system."""
    def walk():
        path = [ts.initial]
        while not ts.is_terminal(path[-1]):
            path.append(rng.choice(ts.successors(path[-1])))
        return path

    pi, rho = walk(), walk()
    terminals = sorted(s for s in ts.states if ts.is_terminal(s))
    pool = [s for s in pi if s not in terminals] or pi
    cause = Ids(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
    argvs = []
    for phi in ("reach", "safe"):
        if phi == "reach":
            effect = [pi[-1]] + [t for t in terminals if t != pi[-1] and rng.random() < 0.4]
        else:
            effect = [t for t in terminals if t != pi[-1] and rng.random() < 0.5]
        effect = Ids(effect or terminals[:1])
        argvs += [["ts-cause", "--model", "{model}", "--path", "{pi}", "--cause", cause,
                   "--effect", effect, "--phi", phi, "--metric", metric, *BUDGET]
                  for metric in ("pref", "pref-ap", "hamm", "ghamm", "lev")]
    argvs += [["distance", "pref", "--model", "{model}", "--p", "{pi}", "--q", "{rho}"]]
    return argvs, {"pi": pi, "rho": rho}


def instance(seed, family, island):
    """A generated model, with an unreachable copy when `island` for games."""
    rng = random.Random(seed)
    if family == "acyclic-game":
        model = acyclic_game(rng, 8)
    elif family == "cyclic-game":
        model = cyclic_game(rng, 8)
    elif family == "acyclic-ts":
        model = acyclic_ts(rng, 8, 2)
    else:
        model = layered_ts(rng, 4, 3, 2)
    if island and isinstance(model, ReachabilityGame):
        model = with_unreachable_copy(model, rng)
    return model, rng


def operand(doc, name):
    """An operand document (a strategy or a path) renamed by `name`."""
    if isinstance(doc, list):
        return [name[v] for v in doc]
    return {"player": doc.player, "choices": {name[v]: name[u] for v, u in doc.choice.items()}}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("acyclic-game", "cyclic-game", "acyclic-ts", "layered-ts")),
    st.booleans(),
    st.sampled_from((prefixed, padded)),
)
def test_renaming_ids_in_order_renames_every_document(tmp_path_factory, seed, family, island,
                                                      rename):
    model, rng = instance(seed, family, island)
    base = model_to_json(model)
    ids = [item["id"] for item in (base.get("vertices") or base["states"])]
    tricky = tricky_ids(ids, rng)
    data = scramble(relabel(base, tricky), rng)
    model = model_from_json(data)
    commands = game_commands if family.endswith("game") else ts_commands
    argvs, operands = commands(model, rng)
    name = rename(list(tricky.values()))

    tmp = tmp_path_factory.mktemp("numbering")
    files = {}
    for side, names in (("given", {v: v for v in name}), ("renamed", name)):
        files[side] = {"model": tmp / f"{side}-model.json"}
        text = json.dumps(scramble(relabel(data, names), rng))  # each side its own order
        files[side]["model"].write_text(text, encoding="utf-8")
        for key, doc in operands.items():
            files[side][key] = tmp / f"{side}-{key}.json"
            files[side][key].write_text(json.dumps(operand(doc, names)), encoding="utf-8")

    def materialize(argv, side, names):
        return [
            ",".join(names[v] for v in a) if isinstance(a, Ids) else a.format(**files[side])
            for a in argv
        ]

    same = {v: v for v in name}
    for argv in argvs:
        given_code, given_doc = run(materialize(argv, "given", same))
        renamed_code, renamed_doc = run(materialize(argv, "renamed", name))
        assert (renamed_code, argv) == (given_code, argv)
        if given_doc is not None:
            given_doc = rename_doc(given_doc, name)
            renamed_doc = rename_doc(renamed_doc, {v: v for v in name.values()})
        assert renamed_doc == given_doc, argv
