"""Models hold numbered successor and predecessor lists; the attractor
reads them.

The loader and the constructors must give the successor lists (read through
the `successors` view), predecessor lists and derived pair sets of the naive
per-item loaders, which stay on ids, with duplicate pairs, shuffled input
and unreachable copies.  The attractor kernel with `allowed` overrides and
pins over a model's own lists must give the members of the round-based
attractor over the overridden and pinned id adjacency, with its ranks
before the first pin, and must leave the shared lists as it found them.
"""

import copy
import random

from hypothesis import given, settings, strategies as st

from causekit.generators import GeneratorSpec, generate
from causekit.model import (
    ReachabilityGame,
    TransitionSystem,
    model_from_json,
    model_to_json,
)

from helpers import (
    id_predecessors,
    id_ranks,
    join_order,
    model_attractor,
    naive_attractor,
    naive_model_from_json,
    successor_map,
    with_unreachable_copy,
)

FAMILIES = ("layered-ts", "acyclic-ts", "acyclic-game", "cyclic-game")


def random_model(rng, family):
    spec = GeneratorSpec(family, rng.randrange(10**6), states=rng.randint(4, 14),
                         layers=rng.randint(1, 6), width=rng.randint(1, 4), alphabet=3)
    model = generate(spec)
    if family == "acyclic-ts" and len(model.states) > 1 and rng.random() < 0.5:
        back = {(s, rng.choice(model.states)) for s in rng.sample(model.states, 2)}
        model = TransitionSystem(model.states, model.initial, model.transitions | back,
                                 model.labeling, model.alphabet)
    if isinstance(model, ReachabilityGame) and rng.random() < 0.4:
        model = with_unreachable_copy(model, rng)
    return model


def pairs_of(model):
    return model.transitions if isinstance(model, TransitionSystem) else model.edges


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES))
def test_lists_and_pairs_match_the_naive_loaders(seed, family):
    rng = random.Random(seed)
    model = random_model(rng, family)
    data = model_to_json(model)
    key = "transitions" if family.endswith("ts") else "edges"
    pairs = data[key]
    pairs.extend(copy.deepcopy(rng.sample(pairs, rng.randint(0, len(pairs)))))
    rng.shuffle(pairs)

    reference = naive_model_from_json(copy.deepcopy(data))
    loaded = model_from_json(copy.deepcopy(data))
    fields = {f: getattr(model, f) for f in model.__dataclass_fields__ if not f.startswith("_")}
    fields[key] = [tuple(p) for p in pairs]  # a list with repeats, in any order
    built = type(model)(**fields)
    for got in (loaded, built):
        assert successor_map(got) == successor_map(reference)
        assert id_predecessors(got) == reference.naive_pred
        assert pairs_of(got) == pairs_of(reference) == pairs_of(model)
        assert got == reference
        if isinstance(got, ReachabilityGame):
            assert got.vertices == reference.vertices


def random_overrides(rng, game, universal):
    """Random `allowed` edge tuples (possibly empty) at some vertices, then
    batches of pins at universal vertices to one of their allowed edges."""
    allowed = {}
    for v in rng.sample(game.vertices, rng.randint(0, len(game.vertices))):
        allowed[v] = tuple(u for u in game.successors(v) if rng.random() < 0.6)
    adj = {**successor_map(game), **allowed}
    free = [v for v in game.vertices if v in universal and adj[v]]
    rng.shuffle(free)
    batches = []
    while free:
        size = rng.randint(1, 3)
        batches.append({v: rng.choice(adj[v]) for v in free[:size]})
        free = free[size:]
    return allowed, batches


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("acyclic-game", "cyclic-game")))
def test_overrides_and_pins_match_the_naive_attractor(seed, family):
    rng = random.Random(seed)
    game = random_model(rng, family)
    existential = rng.choice(
        (game.reach_owned, game.safe_owned, (), frozenset(game.vertices))
    )
    universal = {v for v in game.vertices if v not in existential}
    target = set(rng.sample(game.vertices, rng.randint(0, 3))) | set(game.effect)
    allowed, batches = random_overrides(rng, game, universal)
    lists, kept = id_predecessors(game), copy.deepcopy(allowed)

    adj = {**successor_map(game), **allowed}
    fast = model_attractor(game, existential, target, allowed)
    # Before any pin the kernel runs rounds breadth-first: the round-based
    # ranks, joined in rank order.
    ranks, order = id_ranks(game, fast.rank), join_order(game, fast)
    assert ranks == naive_attractor(adj, existential, target)
    assert sorted(order) == sorted(ranks.items())
    assert [r for _v, r in order] == sorted(ranks.values())
    for pins in batches:
        fast.pin({game.index[v]: game.index[u] for v, u in pins.items()})
        adj.update((v, (u,)) for v, u in pins.items())
        # Ranks of later joins count rounds of the resumed run.
        members = id_ranks(game, fast.rank)
        assert members.keys() == naive_attractor(adj, existential, target).keys()
        assert sorted(v for v, _r in join_order(game, fast)) == sorted(members)
    assert id_predecessors(game) == lists and allowed == kept
