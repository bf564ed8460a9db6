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
    is_acyclic,
    maximal_paths,
    model_from_json,
    model_to_json,
    play_arena,
    shortest_route,
    validate_strategy,
    validate_maximal_path,
)

from helpers import (
    avoiding,
    budgeted,
    id_adjacency,
    int_graph,
    naive_bfs_path,
    naive_maximal_paths,
    naive_reachable,
    numbers,
    successor_map,
)


def restricted_graph(game, strategy):
    """The strategy's play graph, by `play_arena`, from and to ids."""
    seen, succ = play_arena(game, validate_strategy(game, strategy))
    ids = [game.ids[v] for v in seen]
    return {v: tuple(ids[u] for u in row) for v, row in zip(ids, succ)}


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
    restricted = restricted_graph(game, sigma)
    assert restricted["v0"] == ("s00",)
    assert restricted["v1"] == ("v3",)
    assert restricted["start"] == ("v0", "v1")


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
    restricted = restricted_graph(game, MDStrategy("reach", {"v0": "s00", "v1": "v3"}))
    assert {(v, u) for v, succ in restricted.items() for u in succ} <= game.edges
    safe_only = restricted_graph(game, sigma)
    assert safe_only.keys() & game.safe_owned
    for v in safe_only.keys() & game.safe_owned:
        assert len(safe_only[v]) == 1


def test_restricted_owned_outdegree_one():
    rng = random.Random(7)
    for seed in range(40):
        game = generate(GeneratorSpec("cyclic-game", seed=seed, states=7))
        for player in ("reach", "safe"):
            tau = random_strategy(rng, game, player)
            adj = restricted_graph(game, tau)
            reached = naive_reachable(id_adjacency(game, tau), game.initial)
            assert adj.keys() == reached
            for v in reached:
                if v in game.owned_by(player):
                    assert adj[v] == (tau.choice[v],)
                    assert tau.choice[v] in game.successors(v)
                else:
                    assert adj[v] == game.successors(v)


def test_exists_maximal_path_avoiding_branching():
    ts, _pi, cause, _effect = branching_ts()
    assert "s0" in avoiding(ts, cause)
    assert "s0" in avoiding(ts, frozenset())
    assert "s2" not in avoiding(ts, {"s2"})


def test_exists_maximal_path_avoiding_empty_avoid_everywhere():
    ts = small_ts()
    assert avoiding(ts, frozenset()) == set(ts.states)


def test_fixpoint_agrees_with_enumeration_acyclic():
    rng = random.Random(3)
    for seed in range(60):
        ts = generate(GeneratorSpec("acyclic-ts", seed=seed, states=8))
        paths = maximal_paths(ts)
        avoid = set(
            rng.sample(list(ts.states), rng.randint(0, min(3, len(ts.states))))
        )
        expected = any(not (set(p) & avoid) for p in paths)
        assert (ts.initial in avoiding(ts, avoid)) == expected


def test_validate_maximal_path_branching():
    ts, pi, _c, _e = branching_ts()
    assert validate_maximal_path(ts, pi).sequence == pi
    with pytest.raises(NotMaximal):
        validate_maximal_path(ts, ("s0", "s2", "s7"))
    with pytest.raises(NotAPath):
        validate_maximal_path(ts, ("s1", "s3", "s5"))
    with pytest.raises(NotAPath):
        validate_maximal_path(ts, ("s0", "s7", "s8"))


def test_model_json_roundtrip():
    for model in (small_ts(), tree_game()[0]):
        again = model_from_json(model_to_json(model))
        assert model_to_json(again) == model_to_json(model)


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
    acyclic = is_acyclic(int_graph(ts, successor_map(ts)))
    max_len = rng.choice((None, rng.randint(1, 7))) if acyclic else rng.randint(1, 7)
    limit = rng.choice((None, rng.randint(0, 30)))
    assert budgeted(maximal_paths, ts, max_len, limit=limit) == (
        budgeted(naive_maximal_paths, ts, max_len, limit=limit)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_shortest_route_matches_the_naive_walk(seed, cyclic):
    rng = random.Random(seed)
    ts = acyclic_ts(rng, 9, 2)
    if cyclic:
        back = [(s, rng.choice(ts.states)) for s in rng.sample(ts.states, 2)]
        ts = replace(ts, transitions=ts.transitions | set(back))
    terminals = frozenset(s for s in ts.states if ts.is_terminal(s))
    succ = int_graph(ts, successor_map(ts))

    def route(start, targets, walls):
        """`shortest_route` from and to ids."""
        found = shortest_route(succ, ts.index[start], lambda v: ts.ids[v] in targets,
                               set(numbers(ts, walls)))
        return None if found is None else tuple(ts.ids[v] for v in found)

    for start in ts.states:
        avoid = frozenset(rng.sample(ts.states, rng.randint(0, len(ts.states) // 2)))
        goals = frozenset(rng.sample(ts.states, rng.randint(0, min(3, len(ts.states)))))
        # The empty goal set is unreachable, and so is any goal behind `avoid`.
        for targets in (goals, terminals, frozenset(), frozenset({start})):
            for walls in (avoid - {start}, avoid | {start}):
                assert route(start, targets, walls) == (
                    naive_bfs_path(ts, start, targets, walls)
                )
