"""Strategy predicates and distances on the play graph against their
whole-adjacency references, on games with parts no play reaches."""

import random
from itertools import islice
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from causekit import distances
from causekit import game_causality
from causekit.distances import dstrat
from causekit.errors import Budget, CausekitError, NotAcyclic
from causekit.fixtures import tree_game
from causekit.game_causality import (
    METRIC_DSTAR,
    GameCauseQuery,
    _distinct_matched,
    _matched_strategies,
    _min_winning,
    check_cause_game,
    extract_explanation,
    is_minimal_explanation,
    min_winning_distance,
    _sigma_matched,
    enumerate_strategies,
    losing_play_reaches_cause,
    min_dstar_winning_strategy_acyclic,
    strategy_avoids,
    strategy_is_winning,
)
from causekit.generators import acyclic_game, cyclic_game, random_strategy
from causekit.model import (
    REACH,
    SAFE,
    MDStrategy,
    game_from_owners,
    play_graph,
    play_layers,
    reachable_set,
    strategy_adjacency,
)

from helpers import (
    budgeted,
    naive_distinct_matched,
    naive_dstrat,
    naive_losing_play_reaches_cause,
    naive_min_winning,
    naive_pin_layers,
    naive_sigma_matched,
    naive_strategy_avoids,
    naive_strategy_is_winning,
    with_unreachable_copy,
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_play_graph_helpers_match_the_whole_adjacency(seed, cyclic):
    rng = random.Random(seed)
    game = with_unreachable_copy((cyclic_game if cyclic else acyclic_game)(rng, 10), rng)
    pool = sorted(set(game.vertices) - game.effect)
    for player in (REACH, SAFE):
        if not game.owned_by(player):
            continue
        sigma, tau = (random_strategy(rng, game, player) for _ in range(2))
        adj = strategy_adjacency(game, tau)
        seen = reachable_set(adj, game.initial)
        assert play_graph(game, tau) == {v: adj[v] for v in seen}
        assert list(play_layers(game, tau)) == naive_pin_layers(game, tau)
        assert strategy_is_winning(game, tau) == naive_strategy_is_winning(game, tau)
        cause = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        assert strategy_avoids(game, tau, cause) == naive_strategy_avoids(game, tau, cause)
        assert losing_play_reaches_cause(game, sigma, cause) == (
            naive_losing_play_reaches_cause(game, sigma, cause)
        )
        assert _sigma_matched(game, tau, sigma).choice == (
            naive_sigma_matched(game, tau, sigma).choice
        )
        limit = rng.choice((None, rng.randint(0, 40)))
        for a, b in ((tau, sigma), (sigma, tau)):
            assert budgeted(dstrat, game, a, b, limit=limit) == (
                budgeted(naive_dstrat, game, a, b, limit=limit)
            )


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_distinct_matched_matches_matching_every_candidate(seed, cyclic, shuffled):
    rng = random.Random(seed)
    game = with_unreachable_copy((cyclic_game if cyclic else acyclic_game)(rng, 5), rng)
    for player in (REACH, SAFE):
        if not game.owned_by(player):
            continue
        sigma = random_strategy(rng, game, player)
        candidates = list(islice(enumerate_strategies(game, player), 3000))
        if shuffled:
            rng.shuffle(candidates)
        got = [(key, tau.choice) for key, tau in _distinct_matched(game, sigma, candidates)]
        assert got == naive_distinct_matched(game, sigma, candidates)


def small_games(seed, cyclic, island, limit=5000):
    """(game, player, sigma, rng) on a seeded game of 5 to 8 vertices, with
    an unreachable copy when `island`, for each player whose strategy
    product has at most `limit` members."""
    rng = random.Random(seed)
    game = (cyclic_game if cyclic else acyclic_game)(rng, rng.randint(5, 8))
    if island:
        game = with_unreachable_copy(game, rng)
    for player in (REACH, SAFE):
        owned = game.owned_by(player)
        if owned and prod(len(game.successors(v)) for v in owned) <= limit:
            yield game, player, random_strategy(rng, game, player), rng


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_matched_strategies_are_the_distinct_matched_products(seed, cyclic, island):
    for game, player, sigma, _rng in small_games(seed, cyclic, island):
        budget = Budget()
        got = list(_matched_strategies(game, sigma, game._succ, budget))
        keys = [key for key, _tau in got]
        assert len(set(keys)) == len(keys) == budget.used
        assert all(tau.choice == dict(key) and tau.player == player for key, tau in got)
        want = naive_distinct_matched(game, sigma, enumerate_strategies(game, player))
        assert set(keys) == {key for key, _choice in want}


def reference_min_winning_distance(game, sigma, metric, threshold, budget):
    value, _tau = naive_min_winning(game, sigma, metric, threshold, budget)
    return value if threshold is None else value <= threshold


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_dstar_winning_searches_match_the_product_search(seed, cyclic, island):
    for game, player, sigma, rng in small_games(seed, cyclic, island):
        got, used = budgeted(_min_winning, game, sigma, METRIC_DSTAR, None)
        want, want_used = budgeted(naive_min_winning, game, sigma, METRIC_DSTAR, None)
        assert (got, used <= want_used) == (want, True)
        args = (game, sigma, METRIC_DSTAR, rng.randint(0, 3))
        assert budgeted(min_winning_distance, *args)[0] == (
            budgeted(reference_min_winning_distance, *args)[0]
        )
        owned = game.owned_by(player)
        branching = sorted(v for v in owned if len(game.successors(v)) > 1)
        k = rng.randint(0, min(2, len(branching)))
        sets = [frozenset(rng.sample(branching, k))]
        try:
            sets.append(extract_explanation(game, sigma).vertex_set)
        except CausekitError:
            pass
        for vertex_set in sets:
            args = (game, sigma, vertex_set, METRIC_DSTAR)
            got, used = budgeted(is_minimal_explanation, *args)
            with mock.patch.object(game_causality, "_min_winning", naive_min_winning):
                want, want_used = budgeted(is_minimal_explanation, *args)
            assert (got, used <= want_used) == (want, True)


def test_dstar_search_on_a_long_play_needs_no_recursion():
    # Sigma's play runs through 1100 Reach vertices, each of which could
    # stop in the trap t instead; only the last choice decides the game.
    n = 1100
    chain = [f"c{i:04d}" for i in range(n)]
    owners = {v: REACH for v in chain}
    owners.update(t=SAFE, g="effect")
    edges = {(a, b) for a, b in zip(chain, chain[1:])}
    edges |= {(v, "t") for v in chain} | {(chain[-1], "g"), ("t", "t")}
    game = game_from_owners(owners, chain[0], edges)
    sigma = MDStrategy(REACH, {**dict(zip(chain, chain[1:])), chain[-1]: "t"})
    budget = Budget()
    assert min_winning_distance(game, sigma, METRIC_DSTAR, budget=budget) == 1
    assert budget.used < 10 * n


def test_repair_rejects_a_sigma_cycle_no_play_reaches():
    # v1 <-> v2 is a cycle of sigma's graph that no play from v0 enters.
    game = game_from_owners(
        {"v0": REACH, "v1": REACH, "v2": SAFE, "t": SAFE, "g": "effect"},
        "v0",
        {("v0", "g"), ("v0", "t"), ("t", "t"), ("v1", "v2"), ("v2", "v1"),
         ("v1", "g"), ("v2", "g")},
    )
    sigma = MDStrategy(REACH, {"v0": "t", "v1": "v2"})
    assert set(play_graph(game, sigma)) == {"v0", "t"}
    with pytest.raises(NotAcyclic):
        min_dstar_winning_strategy_acyclic(game, sigma)


def test_dstar_searches_build_sigmas_play_graph_once(monkeypatch):
    """`dstrat` gets sigma's play graph from the search, never builds it."""
    game, sigma = tree_game()
    built = []

    def recording(game, strategy):
        built.append(strategy)
        return play_graph(game, strategy)

    monkeypatch.setattr(distances, "play_graph", recording)
    query = GameCauseQuery(game, REACH, sigma, frozenset({"v3"}), METRIC_DSTAR)
    assert check_cause_game(query).witnesses
    assert min_winning_distance(game, sigma, METRIC_DSTAR) == 1
    assert is_minimal_explanation(game, sigma, {"v1"}, METRIC_DSTAR)
    assert built and all(strategy is not sigma for strategy in built)
