import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from causekit.errors import InvalidModel, NotAPath, NotMaximal
from causekit.fixtures import branching_ts, tree_game
from causekit.generators import GeneratorSpec, acyclic_ts, generate, random_strategy
from causekit.model import (
    MDStrategy,
    ReachabilityGame,
    TransitionSystem,
    exists_maximal_path_avoiding,
    is_acyclic,
    is_effectively_acyclic,
    maximal_paths,
    model_from_json,
    model_to_json,
    reachable_set,
    restrict_game,
    strategy_adjacency,
    validate_maximal_path,
    validate_strategy,
)

from helpers import budgeted, naive_maximal_paths


def small_ts():
    return TransitionSystem(
        states=("s0", "s1", "s2", "s3"),
        initial="s0",
        transitions=frozenset({("s0", "s1"), ("s0", "s2"), ("s1", "s3"), ("s2", "s3")}),
        labeling={"s0": "a", "s1": "b", "s2": "b", "s3": "a"},
        alphabet=("a", "b"),
    )


def test_validate_wellformed_ts():
    assert small_ts().successors("s0") == ("s1", "s2")
    labels = {"s0": "a", "s1": "b", "s2": "b"}
    with pytest.raises(InvalidModel, match="^state 's3' has no label$"):
        replace(small_ts(), labeling=labels)


def test_validate_rejects_effect_with_edge():
    with pytest.raises(InvalidModel, match="effect vertex"):
        ReachabilityGame(
            reach_owned=frozenset({"v0"}),
            safe_owned=frozenset(),
            effect=frozenset({"e"}),
            initial="v0",
            edges=frozenset({("v0", "e"), ("e", "v0")}),
        )
    with pytest.raises(InvalidModel, match=r"^vertex partition overlaps at \['e'\]$"):
        ReachabilityGame(
            reach_owned=frozenset({"v0", "e"}),
            safe_owned=frozenset(),
            effect=frozenset({"e"}),
            initial="v0",
            edges=frozenset({("v0", "e")}),
        )


def test_validate_rejects_dead_end():
    with pytest.raises(InvalidModel, match="dead end"):
        ReachabilityGame(
            reach_owned=frozenset({"v0", "v1"}),
            safe_owned=frozenset(),
            effect=frozenset({"e"}),
            initial="v0",
            edges=frozenset({("v0", "e"), ("v0", "v1")}),
        )


def test_unknown_source_raises_invalid_model():
    ts = small_ts()
    with pytest.raises(InvalidModel, match=r"^transition \('zz', 's0'\) leaves the state set$"):
        replace(ts, transitions=ts.transitions | {("zz", "s0")})
    game, _ = tree_game()
    with pytest.raises(InvalidModel, match=r"^edge \('zz', 'v0'\) leaves the vertex set$"):
        replace(game, edges=game.edges | {("zz", "v0")})


def test_restrict_tree_game():
    game, sigma = tree_game()
    restricted = restrict_game(game, sigma)
    assert restricted.successors("v0") == ("s00",)
    assert restricted.successors("v1") == ("v3",)
    assert restricted.successors("start") == ("v0", "v1")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"v3": "e000", "s11": None}, "strategy undefined at owned vertex 's11'"),
        ({"v2": "e000", "t100": "v3"}, "strategy choice 'v3' is not a successor of 't100'"),
        ({"v1": "v3", "e000": "e001"}, "strategy defined at non-owned vertex 'e000'"),
        ({"e000": "e001", "v3": "s11"}, "strategy choice 's11' is not a successor of 'v3'"),
    ],
    ids=["undefined-first", "off-edge-first", "non-owned-first", "owned-before-non-owned"],
)
def test_validate_strategy_names_the_sorted_first_offender(changes, message):
    game, _ = tree_game()
    choice = {v: game.successors(v)[0] for v in game.safe_owned}
    for v, u in changes.items():
        if u is None:
            del choice[v]
        else:
            choice[v] = u
    for order in (sorted(choice), sorted(choice, reverse=True)):
        strategy = MDStrategy("safe", {v: choice[v] for v in order})
        with pytest.raises(InvalidModel) as exc:
            validate_strategy(game, strategy)
        assert str(exc.value) == message


def test_restrict_opponent_only_is_identity():
    game, _ = tree_game()
    sigma = MDStrategy("safe", {v: game.successors(v)[0] for v in game.safe_owned})
    restricted = restrict_game(game, MDStrategy("reach", {"v0": "s00", "v1": "v3"}))
    assert restricted.edges <= game.edges
    safe_only = restrict_game(game, sigma)
    for v in game.safe_owned:
        assert len(safe_only.successors(v)) == 1


def test_restricted_owned_outdegree_one():
    rng = random.Random(7)
    for seed in range(40):
        game = generate(GeneratorSpec("cyclic-game", seed=seed, states=7))
        for player in ("reach", "safe"):
            tau = random_strategy(rng, game, player)
            restricted = restrict_game(game, tau)
            adj = strategy_adjacency(game, tau)
            assert restricted.adjacency() == adj
            for v in reachable_set(adj, game.initial):
                if v in game.owned_by(player):
                    assert len(restricted.successors(v)) == 1


def test_exists_maximal_path_avoiding_branching():
    ts, _pi, cause, _effect = branching_ts()
    assert exists_maximal_path_avoiding(ts, "s0", cause)
    assert exists_maximal_path_avoiding(ts, "s0", frozenset())
    assert not exists_maximal_path_avoiding(ts, "s2", {"s2"})


def test_exists_maximal_path_avoiding_empty_avoid_everywhere():
    ts = small_ts()
    for s in ts.states:
        assert exists_maximal_path_avoiding(ts, s, frozenset())


def test_fixpoint_agrees_with_enumeration_acyclic():
    rng = random.Random(3)
    for seed in range(60):
        ts = generate(GeneratorSpec("acyclic-ts", seed=seed, states=8))
        paths = maximal_paths(ts)
        avoid = set(
            rng.sample(list(ts.states), rng.randint(0, min(3, len(ts.states))))
        )
        expected = any(not (set(p) & avoid) for p in paths)
        assert exists_maximal_path_avoiding(ts, ts.initial, avoid) == expected


def test_validate_maximal_path_branching():
    ts, pi, _c, _e = branching_ts()
    assert validate_maximal_path(ts, pi).sequence == pi
    with pytest.raises(NotMaximal):
        validate_maximal_path(ts, ("s0", "s2", "s7"))
    with pytest.raises(NotAPath):
        validate_maximal_path(ts, ("s1", "s3", "s5"))
    with pytest.raises(NotAPath):
        validate_maximal_path(ts, ("s0", "s7", "s8"))


def test_effective_acyclicity():
    game, _ = tree_game()
    assert is_effectively_acyclic(game.adjacency())
    cyclic = generate(GeneratorSpec("cyclic-game", seed=5, states=6))
    adj = cyclic.adjacency()
    # self-loops at vertices with other edges stay cycles
    looped = {v: s for v, s in adj.items()}
    looped["v0"] = tuple(sorted(set(looped["v0"]) | {"v0"}))
    assert not is_effectively_acyclic(looped)


def test_model_json_roundtrip():
    for model in (small_ts(), tree_game()[0]):
        again = model_from_json(model_to_json(model))
        assert model_to_json(again) == model_to_json(model)


def test_play_validation():
    from causekit.model import Play, validate_play
    from causekit.fixtures import loop_game

    game, _ = loop_game()
    validate_play(game, Play(stem=("v0", "v1", "eff")))
    validate_play(game, Play(stem=("v0", "v2"), cycle=("v1",)))
    with pytest.raises(NotMaximal):
        validate_play(game, Play(stem=("v0", "v1")))
    with pytest.raises(NotAPath):
        validate_play(game, Play(stem=("v1", "eff")))
    with pytest.raises(NotAPath):
        validate_play(game, Play(stem=("v0",), cycle=("v2", "eff")))


def test_maximal_paths_enumeration():
    from causekit.errors import BudgetExceeded, PreconditionViolated
    from causekit.fixtures import branching_ts

    ts, _pi, _c, _e = branching_ts()
    paths = maximal_paths(ts)
    assert len(paths) == 3
    assert paths == sorted(paths)
    with pytest.raises(BudgetExceeded):
        maximal_paths(ts, budget=2)

    cyclic = TransitionSystem(
        states=("s0", "s1"),
        initial="s0",
        transitions=frozenset({("s0", "s1"), ("s1", "s0")}),
        labeling={"s0": "a", "s1": "b"},
        alphabet=("a", "b"),
    )
    with pytest.raises(PreconditionViolated):
        maximal_paths(cyclic)
    assert maximal_paths(cyclic, max_len=5) == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_maximal_paths_match_the_recursive_walk(seed, cyclic):
    rng = random.Random(seed)
    ts = acyclic_ts(rng, 9, 2)
    if cyclic:
        back = [(s, rng.choice(ts.states)) for s in rng.sample(ts.states, 2)]
        ts = replace(ts, transitions=ts.transitions | set(back))
    max_len = rng.choice((None, rng.randint(1, 7))) if is_acyclic(ts._succ) else rng.randint(1, 7)
    limit = rng.choice((None, rng.randint(0, 30)))
    assert budgeted(maximal_paths, ts, max_len, limit=limit) == (
        budgeted(naive_maximal_paths, ts, max_len, limit=limit)
    )
