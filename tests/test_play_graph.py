"""Strategy predicates and distances on the play graph against their
whole-adjacency references, on games with parts no play reaches.  The
references run on ids; the kernels get and give picks and vertex numbers,
converted here."""

import json
import random
from functools import partial
from math import prod
from operator import ne
from unittest import mock

from hypothesis import given, settings, strategies as st

from causekit import cli, distances
from causekit import game_causality
from causekit.distances import INF, dstar, dstrat, play_condensation, play_scan
from causekit.errors import Budget, CausekitError
from causekit.fixtures import tree_game
from causekit.game_causality import (
    METRIC_DSTAR,
    METRIC_HAMM_S,
    GameCauseQuery,
    StrategyWitness,
    _deviation_costs,
    _dstar_floor,
    _kept_edges,
    _least,
    _matched_strategies,
    _min_winning,
    check_cause_game,
    extract_explanation,
    is_explanation,
    is_minimal_explanation,
    min_winning_distance,
    _sigma_matched,
    _alternatives,
    _variants,
    _wins,
    _won,
    avoid_region,
    brute_force_check_cause,
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
    attractor,
    game_from_owners,
    model_to_json,
    play_arena,
    play_layers,
    strategy_of,
    strategy_to_json,
    validate_strategy,
)

from helpers import (
    budgeted,
    diamond_game,
    dstar_oracle,
    dstrat_oracle,
    hamm_s_oracle,
    id_adjacency,
    int_graph,
    naive_reachable,
    naive_check_exact,
    naive_distinct_matched,
    naive_is_acyclic,
    naive_is_minimal_dstar,
    naive_losing_play_reaches_cause,
    naive_min_dstar_repair,
    naive_min_winning,
    naive_min_winning_hamm_s,
    naive_pin_layers,
    naive_sigma_matched,
    naive_strategy_avoids,
    naive_strategy_is_winning,
    with_unreachable_copy,
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def id_key(game, player, picks):
    """The sorted (vertex, choice) id pairs of the picks."""
    return tuple(sorted(strategy_of(game, player, picks).choice.items()))


def min_winning(game, sigma, metric, threshold, budget):
    """`_min_winning` from and to strategies."""
    d, picks = _min_winning(
        game, sigma.player, validate_strategy(game, sigma), metric, threshold, budget
    )
    return d, None if picks is None else strategy_of(game, sigma.player, picks)


def naive_min_winning_picks(game, player, sigma, metric, threshold, budget, floor=0, lost=None):
    """`naive_min_winning` with the arguments and the result of `_min_winning`;
    it searches on past `floor` and flags no vertex as lost."""
    d, tau = naive_min_winning(game, strategy_of(game, player, sigma), metric, threshold, budget)
    return d, None if tau is None else validate_strategy(game, tau)


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
        picks, ids = validate_strategy(game, tau), game.ids
        adj = id_adjacency(game, tau)
        seen = naive_reachable(adj, game.initial)
        numbered, succ = play_arena(game, picks)
        assert list(numbered.values()) == list(range(len(numbered)))
        assert numbered[game.index[game.initial]] == 0
        names = [ids[v] for v in numbered]
        graph = {v: tuple(names[i] for i in row) for v, row in zip(names, succ)}
        assert graph == {v: adj[v] for v in seen}
        layers = [[ids[v] for v in layer] for layer in play_layers(game, picks)]
        assert layers == naive_pin_layers(game, tau)
        assert strategy_is_winning(game, tau) == naive_strategy_is_winning(game, tau)
        cause = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        assert strategy_avoids(game, tau, cause) == naive_strategy_avoids(game, tau, cause)
        assert losing_play_reaches_cause(game, sigma, cause) == (
            naive_losing_play_reaches_cause(game, sigma, cause)
        )
        matched = _sigma_matched(game, picks, validate_strategy(game, sigma))
        assert strategy_of(game, player, matched).choice == (
            naive_sigma_matched(game, tau, sigma).choice
        )


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_dstrat_is_the_walk_over_counted_sets(seed, cyclic, island):
    rng = random.Random(seed)
    game = (cyclic_game if cyclic else acyclic_game)(rng, 10)
    if island:
        game = with_unreachable_copy(game, rng)
    for player in (REACH, SAFE):
        if not game.owned_by(player):
            continue
        sigma, tau = (random_strategy(rng, game, player) for _ in range(2))
        t, s = validate_strategy(game, tau), validate_strategy(game, sigma)
        for a, b, x, y in ((tau, sigma, t, s), (sigma, tau, s, t), (tau, tau, t, t)):
            assert dstrat(game, a, b) == play_scan(game, x, y)[0] == dstrat_oracle(game, a, b)
        adj = id_adjacency(game, tau)
        plays = naive_reachable(adj, game.initial)
        assert play_scan(game, t, t)[1] == (not naive_is_acyclic({v: adj[v] for v in plays}))
        owned, reach = play_condensation(game, t)
        plays = [v for v in play_arena(game, t)[0] if t[v] is not None]
        assert sorted(v for v, _k in owned) == sorted(plays)
        assert all(bits < 1 << k for k, bits in enumerate(reach))


def test_dstrat_on_diamonds_is_the_walk_over_counted_sets():
    for k in range(1, 9):
        game, sigma, tau = diamond_game(k)
        for a, b in ((tau, sigma), (sigma, tau)):
            assert dstrat(game, a, b) == dstrat_oracle(game, a, b) == k


def test_dstar_on_many_diamonds_answers_within_any_budget(tmp_path, capsys):
    # The walk over counted sets meets 2^k states here; the scan charges
    # nothing and visits each vertex once.
    game, sigma, tau = diamond_game(200)
    files = {"model": model_to_json(game), "sigma": strategy_to_json(sigma),
             "tau": strategy_to_json(tau)}
    argv = ["distance", "dstar", "--budget", "1"]
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["diagnostics"]["budgetUsed"]) == ("200", 0)
    game, sigma, tau = diamond_game(1000)
    assert dstar(game, sigma, tau) == 1000


def every_matched(game, picks, options, budget, lost=None):
    """The picks `_matched_strategies` yields under an INF limit."""
    condensed, limit = play_condensation(game, picks), [INF]
    pairs = _matched_strategies(game, picks, options, budget, condensed, limit, lost)
    return [t for t, _side in pairs]


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
    for game, player, sigma, rng in small_games(seed, cyclic, island):
        picks = validate_strategy(game, sigma)
        # Every edge everywhere: the distinct matched strategies.
        products = [(int_graph(game, game.adjacency()), enumerate_strategies(game, player))]
        # The avoid region's edges inside it and sigma's pick elsewhere, the
        # candidates of the d* cause check: its `_variants` product.
        plays = play_arena(game, picks)[0]
        pool = [v for v in plays if v != game._init and not game._owns["effect"][v]]
        if pool:
            cause = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            caught = avoid_region(game, player, cause)
            if caught.rank[game._init] is None:
                allowed = _kept_edges(game, player, caught)
                options = [allowed.get(v, (u,)) for v, u in enumerate(picks)]
                variants = _variants(picks, allowed, Budget())
                products.append((options, (strategy_of(game, player, t) for t in variants)))
        for options, strategies in products:
            budget = Budget()
            got = every_matched(game, picks, options, budget)
            keys = [id_key(game, player, tau) for tau in got]
            assert len(set(keys)) == len(keys) == budget.used
            reached = [(t, v) for t in got for v in play_arena(game, t)[0] if t[v] is not None]
            assert all(tau[v] in options[v] for tau, v in reached)
            want = naive_distinct_matched(game, sigma, strategies)
            assert set(keys) == {key for key, _choice in want}


def test_matched_strategies_yield_sigmas_exact_side():
    # Each candidate comes with sigma's side of its d*, the kernel's own
    # bound at the yield: it must be what a scan of sigma's plays against
    # the candidate gives, whatever the flags and however a consumer moves
    # the limit between yields.
    sides = []

    @FUZZ
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
    def yielded_sides_are_scanned_sides(seed, cyclic, island, flagged):
        for game, player, sigma, rng in small_games(seed, cyclic, island):
            picks = validate_strategy(game, sigma)
            lost = [rng.random() < 0.2 for _ in picks] if flagged else None
            condensed = play_condensation(game, picks)
            limit = [rng.choice((INF, rng.randint(0, 3)))]
            for tau, side in _matched_strategies(
                game, picks, game._succ, Budget(), condensed, limit, lost
            ):
                assert side == play_scan(game, picks, tau)[0] <= limit[0]
                sides.append(side)
                if rng.random() < 0.3:
                    limit[0] = min(limit[0], rng.randint(side, side + 2))

    yielded_sides_are_scanned_sides()
    assert max(sides) >= 2


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_dstar_floor_is_a_lower_bound_on_cyclic_games_too(seed, cyclic, island):
    for game, player, sigma, _rng in small_games(seed, cyclic, island):
        picks = validate_strategy(game, sigma)
        floor, _lost = _dstar_floor(game, player, picks)
        winners = [t for t in enumerate_strategies(game, player) if strategy_is_winning(game, t)]
        least = min((dstar(game, t, sigma) for t in winners), default=INF)
        if player == SAFE:
            assert floor == 0
        else:
            assert floor <= least and (floor == INF) == (least == INF)
            adjacency = int_graph(game, id_adjacency(game, sigma))
            costs = _deviation_costs(game._succ, game._owns[REACH], game._targets, adjacency)
            assert floor == costs[game._init]


def reference_min_winning_distance(game, sigma, metric, threshold, budget):
    value, _tau = naive_min_winning(game, sigma, metric, threshold, budget)
    return value if threshold is None else value <= threshold


def assert_least_winner(game, sigma, threshold, floor, found, least):
    """`_min_winning`'s (distance, picks) and budget use against the least
    winner and budget use of `naive_min_winning` without a threshold.
    Without a threshold it gives the least winning distance, and at floor 0
    the least winner there; with one, a winner within it if there is any.
    What it returns wins at the distance it gives."""
    (got, used), (want, want_used) = found, least
    assert used <= want_used
    if isinstance(want, str) or (threshold is not None and want[0] > threshold):
        assert got == (want if threshold is None else (threshold + 1, None))
        return
    d, tau = got[0], strategy_of(game, sigma.player, got[1])
    assert naive_strategy_is_winning(game, tau) and dstar_oracle(game, tau, sigma) == d
    if threshold is not None:
        assert d <= threshold
    elif floor == 0:
        assert (d, tau) == want
    else:
        assert d == want[0]


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_dstar_winning_searches_match_the_product_search(seed, cyclic, island):
    for game, player, sigma, rng in small_games(seed, cyclic, island):
        got, used = budgeted(min_winning, game, sigma, METRIC_DSTAR, None)
        want, want_used = budgeted(naive_min_winning, game, sigma, METRIC_DSTAR, None)
        assert (got, used <= want_used) == (want, True)
        value, used = budgeted(min_winning_distance, game, sigma, METRIC_DSTAR, None)
        assert used <= want_used
        assert value == (want if isinstance(want, str) else want[0])
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
            with mock.patch.object(game_causality, "_min_winning", naive_min_winning_picks):
                want, want_used = budgeted(is_minimal_explanation, *args)
            assert (got, used <= want_used) == (want, True)


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_dstar_winning_search_drops_only_losers(seed, cyclic, island):
    for game, player, sigma, rng in small_games(seed, cyclic, island):
        picks = validate_strategy(game, sigma)
        floor, _lost = _dstar_floor(game, player, picks)
        least = budgeted(naive_min_winning, game, sigma, METRIC_DSTAR, None)
        for threshold, at in ((None, 0), (0, 0), (1, 0), (None, floor)):
            args = (game, player, picks, METRIC_DSTAR, threshold)
            found = budgeted(partial(_min_winning, floor=at), *args)
            assert_least_winner(game, sigma, threshold, at, found, least)
        # The player's losing vertices, and flags drawn at random: the
        # enumeration keeps the candidates whose plays avoid them, in order.
        forced = attractor(game._succ, game._owns[REACH], game._targets, game._pred)
        drawn = [rng.random() < 0.2 for _ in forced]
        every = every_matched(game, picks, game._succ, Budget())
        for lost in ([(r is None) == (player == REACH) for r in forced], drawn):
            budget = Budget()
            kept = every_matched(game, picks, game._succ, budget, lost)
            assert kept == [t for t in every if not any(lost[v] for v in play_arena(game, t)[0])]
            assert budget.used == len(kept)


def test_dstar_minimality_measures_the_unmatched_variants():
    # A variant's changed choice at a vertex its plays miss still counts in
    # d*(sigma, variant) when sigma's plays visit it; resetting such a choice
    # to sigma's would measure another, closer strategy.  Every variant
    # differs from sigma exactly on E, so sigma's side of its d* is the one
    # scan of sigma's plays against sigma with E's picks changed.  The sets
    # drawn from sigma's plays hold such vertices somewhere.
    missed = []

    @FUZZ
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def minimality_matches_the_brute_force(seed, cyclic, island):
        for game, player, sigma, rng in small_games(seed, cyclic, island):
            picks = validate_strategy(game, sigma)
            plays = play_arena(game, picks)[0]
            owned = game.owned_by(player)
            branching = sorted(v for v in owned if len(game.successors(v)) > 1)
            visited = [v for v in branching if game.index[v] in plays]
            sets = [
                frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
                for pool in (branching, visited)
            ]
            try:
                sets.append(extract_explanation(game, sigma).vertex_set)
            except CausekitError:
                pass
            for vertex_set in sets:
                assert is_minimal_explanation(game, sigma, vertex_set, METRIC_DSTAR) == (
                    naive_is_minimal_dstar(game, sigma, vertex_set)
                )
                e = {game.index[v] for v in vertex_set}
                changed = [None if v in e else u for v, u in enumerate(picks)]
                side = play_scan(game, picks, changed)[0]
                options = {v: tuple(u for u in game._succ[v] if u != picks[v]) for v in e}
                for tau in _variants(picks, options, Budget()):
                    assert play_scan(game, picks, tau)[0] == side
                    reached = play_arena(game, tau)[0]
                    missed.append(any(v in plays and v not in reached for v in e))

    minimality_matches_the_brute_force()
    assert any(missed)


def fixed_draws(count):
    """`count` (seed, cyclic, island) draws of `small_games` from one seeded
    `random.Random`.  Hypothesis seeds its own draws with constants from
    the loaded local modules, so a test whose asserts count what it met
    draws here, the same examples whatever else the run imports."""
    draws = random.Random(1)
    for _ in range(count):
        yield draws.getrandbits(32), draws.random() < 0.5, draws.random() < 0.5


def test_win_walk_agrees_with_the_scanned_win():
    # `_wins` stops its walk at the first closed cycle or effect vertex;
    # `_won` reads the whole `play_scan`.  Every strategy of the drawn
    # games, cyclic or not, for both players.
    seen = {(player, won): 0 for player in (REACH, SAFE) for won in (False, True)}
    cycles = 0
    for seed, cyclic, island in fixed_draws(150):
        for game, player, _sigma, _rng in small_games(seed, cyclic, island, limit=200):
            cycles += cyclic
            for tau in enumerate_strategies(game, player):
                picks = validate_strategy(game, tau)
                won = _won(game, player, *play_scan(game, picks, picks)[1:])
                assert _wins(game, player, picks) == won
                seen[player, won] += 1
    assert min(seen.values()) >= 100 and cycles >= 50, (seen, cycles)


def test_reach_dstar_minimality_below_the_floor_builds_no_candidate(monkeypatch):
    # When Reach's deviation cost of the initial vertex exceeds E's own d*
    # less one, no winner lies below E's own distance and the decision
    # search never starts: the budget pays for the E-variants tried alone.
    # E's own d* here is the least over its winning variants, by `dstar`.
    matched, tried = [], []

    def matching(*args):
        matched.append(args)
        yield from _matched_strategies(*args)

    def varying(sigma, options, budget):
        for tau in _variants(sigma, options, budget):
            tried.append(tau)
            yield tau

    monkeypatch.setattr(game_causality, "_matched_strategies", matching)
    monkeypatch.setattr(game_causality, "_variants", varying)
    queries = [(*tree_game(), frozenset({"v1"}))]
    for seed, cyclic, island in fixed_draws(300):
        for game, player, sigma, rng in small_games(seed, cyclic, island):
            owned = sorted(v for v in game.owned_by(player) if len(game.successors(v)) > 1)
            if player == REACH and owned:
                queries.append((game, sigma, frozenset(rng.sample(owned, min(2, len(owned))))))
    skipped = 0
    for game, sigma, vertex_set in queries:
        if not is_explanation(game, sigma, vertex_set)[0]:
            continue
        picks = validate_strategy(game, sigma)
        options = _alternatives(game, picks, map(game.index.get, vertex_set))
        variants = [strategy_of(game, REACH, t) for t in _variants(picks, options, Budget())]
        own = min(dstar(game, t, sigma) for t in variants if strategy_is_winning(game, t))
        if _dstar_floor(game, REACH, picks)[0] <= own - 1:
            continue
        matched.clear()
        tried.clear()
        budget = Budget()
        assert is_minimal_explanation(game, sigma, vertex_set, METRIC_DSTAR, budget)
        assert not matched and budget.used == len(tried) >= 1
        skipped += 1
    assert skipped >= 50, skipped


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_dstar_cause_check_matches_the_tie_list_reference(seed, cyclic, island):
    # Causes are drawn from sigma's play graph, where condition 1 can hold;
    # about one query in seven reaches the d* search itself.  The reference
    # sorts the ties at the least distance over every strategy.
    for game, player, sigma, rng in small_games(seed, cyclic, island):
        plays = [game.ids[v] for v in sorted(play_arena(game, validate_strategy(game, sigma))[0])]
        pool = [v for v in plays if v != game.initial and game.owner(v) != "effect"]
        pool = pool or [v for v in game.ids if game.owner(v) != "effect"]
        for _ in range(3):
            cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
            query = GameCauseQuery(game, player, sigma, cause, METRIC_DSTAR, rng.randint(1, 3))
            got, used = budgeted(check_cause_game, query)
            want, want_used = budgeted(naive_check_exact, query, dstar_oracle)
            assert got == want and used <= want_used


def test_hamm_s_cause_check_matches_the_tie_list_reference():
    # Causes are drawn from sigma's play graph, on acyclic and cyclic games.
    # The reference measures every strategy by its differing choices and
    # sorts the ties at the least distance, as the d* reference does: the
    # least loser and the least winner are the witnesses.  The search yields
    # each candidate once, at no more budget units than the reference's
    # strategies.
    seen = {"searched": 0, "cyclic": 0, "both": 0}
    for seed, cyclic, island in fixed_draws(300):
        for game, player, sigma, rng in small_games(seed, cyclic, island):
            plays = play_arena(game, validate_strategy(game, sigma))[0]
            pool = [game.ids[v] for v in sorted(plays) if v != game._init]
            pool = [v for v in pool if game.owner(v) != "effect"] or [
                v for v in game.ids if game.owner(v) != "effect"
            ]
            for _ in range(3):
                cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
                query = GameCauseQuery(game, player, sigma, cause, METRIC_HAMM_S, rng.randint(1, 3))
                got, used = budgeted(check_cause_game, query)
                want, want_used = budgeted(naive_check_exact, query, hamm_s_oracle)
                assert got == want and used <= want_used
                if not (got.condition1 and got.condition2):
                    continue
                seen["searched"] += 1
                seen["cyclic"] += not naive_is_acyclic(id_adjacency(game))
                seen["both"] += len(got.witnesses) == 2
    assert min(seen.values()) >= 5, seen
    # Sigma loses in the trap t past the cause c.  Changing a alone avoids c
    # and loses in t too; changing p alone avoids it and wins.  Both are at
    # distance 1, so the loser and the winner are the witnesses.
    game = game_from_owners(
        {"p": REACH, "a": REACH, "q": SAFE, "c": SAFE, "t": SAFE, "g": "effect"},
        "p",
        {("p", "a"), ("p", "q"), ("a", "c"), ("a", "t"), ("q", "g"), ("c", "t"), ("t", "t")},
    )
    sigma = MDStrategy(REACH, {"p": "a", "a": "c"})
    query = GameCauseQuery(game, REACH, sigma, frozenset({"c"}), METRIC_HAMM_S, 3)
    got = check_cause_game(query)
    assert got == naive_check_exact(query, hamm_s_oracle)
    loser = MDStrategy(REACH, {"p": "a", "a": "t"})
    winner = MDStrategy(REACH, {"p": "q", "a": "c"})
    assert (got.is_cause, got.min_distance, got.witnesses) == (
        False, 1, (StrategyWitness(loser, 1, False), StrategyWitness(winner, 1, True))
    )
    every = brute_force_check_cause(query).witnesses
    assert [(w.strategy.choice, w.winning) for w in every] == [
        (loser.choice, False), (winner.choice, True)
    ]


def test_hamm_s_witnesses_are_the_first_loser_and_winner_of_the_oracle():
    # The definitional oracle sorts the cause-avoiding strategies at the
    # least hamm-s distance, losers first, each group by its sorted choice
    # items; with room for all of them its first loser and its first winner
    # are the witnesses of the search, on acyclic and cyclic games alike.
    seen = {"searched": 0, "cyclic": 0, "both": 0}
    for seed, cyclic, _island in fixed_draws(300):
        for game, player, sigma, rng in small_games(seed, cyclic, False):
            plays = play_arena(game, validate_strategy(game, sigma))[0]
            pool = [game.ids[v] for v in sorted(plays) if v != game._init]
            pool = [v for v in pool if game.owner(v) != "effect"]
            for _ in range(3 if pool else 0):
                cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
                query = GameCauseQuery(game, player, sigma, cause, METRIC_HAMM_S, 2)
                got = check_cause_game(query)
                if not (got.condition1 and got.condition2):
                    continue
                every = GameCauseQuery(game, player, sigma, cause, METRIC_HAMM_S, 10**9)
                want = brute_force_check_cause(every)
                first = {}
                for w in want.witnesses:
                    first.setdefault(w.winning, w)
                assert (got.is_cause, got.min_distance) == (want.is_cause, want.min_distance)
                assert got.witnesses == tuple(first[w] for w in (False, True) if w in first)
                seen["searched"] += 1
                seen["cyclic"] += not naive_is_acyclic(id_adjacency(game))
                seen["both"] += len(got.witnesses) == 2
    assert min(seen.values()) >= 5, seen


def test_least_skips_a_candidate_above_the_least_distance():
    # Reach's p steps to the winning q or to a, from which c and b lead to
    # the trap b.  Both winners step to q; the one that keeps sigma's pick
    # at a is at d* 1, the other at 2 but with the smaller picks.  Handed
    # the nearer first, `_least` keeps it, lowers the limit to 1 and skips
    # the farther one, so the winner is the least at the least distance.
    game = game_from_owners(
        {"p": REACH, "a": REACH, "q": SAFE, "c": SAFE, "b": SAFE, "g": "effect"},
        "p",
        {("p", "a"), ("p", "q"), ("a", "c"), ("a", "b"), ("q", "g"), ("c", "b"), ("b", "b")},
    )
    sigma = validate_strategy(game, MDStrategy(REACH, {"p": "a", "a": "c"}))
    near, far = (
        validate_strategy(game, MDStrategy(REACH, {"p": "q", "a": a})) for a in ("c", "b")
    )
    assert far < near
    sides = [play_scan(game, sigma, tau)[0] for tau in (near, far)]
    assert [distances.dstar_picks(game, tau, sigma) for tau in (near, far)] == sides == [1, 2]
    limit = [INF]
    assert _least(game, REACH, sigma, zip((near, far), sides), limit) == (1, None, near)
    assert limit == [1]


def test_hamm_s_bound_drops_only_states_above_the_limit():
    # A hamm-s search state is dropped only when its count of differing
    # picks is strictly above the limit, and with no room left for one more
    # it follows sigma's picks alone: under a fixed limit the enumeration
    # keeps, in order, exactly the candidates of an INF-limit run within it,
    # each yielded with its hamm-s distance.  The winning search gives the
    # least winning hamm-s distance of the reference, within any threshold.
    at_limit = []

    @FUZZ
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
    def kept_candidates_are_those_within_the_limit(seed, cyclic, island, flagged):
        for game, player, sigma, rng in small_games(seed, cyclic, island):
            picks = validate_strategy(game, sigma)
            lost = [rng.random() < 0.2 for _ in picks] if flagged else None
            every = list(_matched_strategies(game, picks, game._succ, Budget(), None, [INF], lost))
            for tau, side in every:
                assert side == sum(map(ne, tau, picks))
            limit = rng.randint(0, 3)
            budget = Budget()
            kept = list(_matched_strategies(game, picks, game._succ, budget, None, [limit], lost))
            assert kept == [(t, d) for t, d in every if d <= limit]
            assert budget.used == len(kept)
            at_limit.append(any(d == limit > 0 for _t, d in kept))

            want = naive_min_winning_hamm_s(game, sigma)
            found, used = budgeted(min_winning_distance, game, sigma, METRIC_HAMM_S, None)
            assert found == ("NoWinningStrategy" if want is None else want)
            assert used <= prod(len(game.successors(v)) for v in game.owned_by(player))
            threshold = rng.randint(0, 3)
            within = budgeted(min_winning_distance, game, sigma, METRIC_HAMM_S, threshold)[0]
            assert within == (want is not None and want <= threshold)
            if want is not None:
                d, tau = _min_winning(game, player, picks, METRIC_HAMM_S, None, Budget())
                assert d == want == sum(map(ne, tau, picks))
                assert strategy_is_winning(game, strategy_of(game, player, tau))

    kept_candidates_are_those_within_the_limit()
    assert any(at_limit)


def test_dstar_bounds_drop_only_states_above_the_limit():
    # The d* lower bounds of a search state hold for every strategy below
    # it, and a state is dropped only when one is strictly above the limit:
    # under a fixed limit the enumeration keeps, in order, every candidate
    # it yields under an INF limit that lies within it.  The searches that
    # lower the limit as they go give what their references give, at no
    # more budget units than that INF-limit run yields candidates, and
    # somewhere at fewer.
    fell = []

    @FUZZ
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def pruned_searches_match_the_references(seed, cyclic, island):
        for game, player, sigma, rng in small_games(seed, cyclic, island):
            picks = validate_strategy(game, sigma)
            every = every_matched(game, picks, game._succ, Budget())
            limit = rng.randint(0, 3)
            condensed = play_condensation(game, picks)
            pairs = _matched_strategies(game, picks, game._succ, Budget(), condensed, [limit])
            kept = [t for t, _side in pairs]
            assert kept == [t for t in every if t in kept]
            within = [t for t in every if distances.dstar_picks(game, t, picks) <= limit]
            assert [t for t in kept if t in within] == within

            plays = play_arena(game, picks)[0]
            pool = [game.ids[v] for v in sorted(plays) if v != game._init]
            pool = [v for v in pool if game.owner(v) != "effect"] or [
                v for v in game.ids if game.owner(v) != "effect"
            ]
            cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
            query = GameCauseQuery(game, player, sigma, cause, METRIC_DSTAR, rng.randint(1, 3))
            got, used = budgeted(check_cause_game, query)
            want, want_used = budgeted(naive_check_exact, query, dstar_oracle)
            assert got == want and used <= want_used
            if got.condition1 and got.condition2:
                caught = avoid_region(game, player, [game.index[c] for c in cause])
                allowed = _kept_edges(game, player, caught)
                options = [allowed.get(v, (u,)) for v, u in enumerate(picks)]
                unpruned = len(every_matched(game, picks, options, Budget()))
                assert used <= unpruned
                fell.append(used < unpruned)

            least = budgeted(naive_min_winning, game, sigma, METRIC_DSTAR, None)
            for threshold in (None, rng.randint(0, 3)):
                found = budgeted(_min_winning, game, player, picks, METRIC_DSTAR, threshold)
                assert_least_winner(game, sigma, threshold, 0, found, least)
                assert found[1] <= len(every)
                fell.append(found[1] < len(every))

    pruned_searches_match_the_references()
    assert any(fell)


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


def test_repair_answers_with_a_sigma_cycle_no_play_reaches():
    # v1 <-> v2 is a cycle of sigma's graph that no play from v0 enters, and
    # t -> u -> t one that sigma's play runs into.  Neither stops the repair.
    game = game_from_owners(
        {"v0": REACH, "v1": REACH, "v2": SAFE, "t": REACH, "u": SAFE, "g": "effect"},
        "v0",
        {("v0", "g"), ("v0", "t"), ("t", "u"), ("t", "g"), ("u", "t"), ("v1", "v2"),
         ("v2", "v1"), ("v1", "g"), ("v2", "g")},
    )
    sigma = MDStrategy(REACH, {"v0": "t", "t": "u", "v1": "v2"})
    plays = play_arena(game, validate_strategy(game, sigma))[0]
    assert {game.ids[v] for v in plays} == {"v0", "t", "u"}
    tau, value = min_dstar_winning_strategy_acyclic(game, sigma)
    assert (tau.choice, value) == ({"v0": "g", "t": "u", "v1": "v2"}, 1)
    assert (tau, value) == naive_min_dstar_repair(game, sigma)


def test_dstar_searches_build_sigmas_play_graph_once(monkeypatch):
    """Each d* search condenses sigma's play graph at most once, for every
    `dstar` it measures against sigma, and scans each candidate's."""
    game, sigma = tree_game()
    # Safe at s steps into the effect g or into the trap t.
    safe_game = game_from_owners(
        {"s": SAFE, "t": SAFE, "g": "effect"}, "s", {("s", "g"), ("s", "t"), ("t", "t")}
    )
    safe_sigma = MDStrategy(SAFE, {"s": "g", "t": "t"})
    condensed, scanned = [], []

    def condensing(game, strategy):
        condensed.append(strategy)
        return play_condensation(game, strategy)

    def scanning(game, strategy, other):
        scanned.append(strategy)
        return play_scan(game, strategy, other)

    monkeypatch.setattr(distances, "play_condensation", condensing)
    monkeypatch.setattr(distances, "play_scan", scanning)
    query = GameCauseQuery(game, REACH, sigma, frozenset({"v3"}), METRIC_DSTAR)
    searches = [
        (lambda: check_cause_game(query).witnesses, game, sigma, 1),
        (lambda: min_winning_distance(game, sigma, METRIC_DSTAR) == 1, game, sigma, 1),
        # E's own d* is 1, and Reach's deviation cost of 1 leaves no winner
        # below it to search for; the E-variants share one scanned side.
        (lambda: is_minimal_explanation(game, sigma, {"v1"}, METRIC_DSTAR), game, sigma, 0),
        # Safe has no such floor, so the decision search within 0 runs.
        (
            lambda: is_minimal_explanation(safe_game, safe_sigma, {"s"}, METRIC_DSTAR),
            safe_game,
            safe_sigma,
            1,
        ),
    ]
    for search, on, strategy, runs in searches:
        condensed.clear()
        scanned.clear()
        assert search()
        assert condensed == [validate_strategy(on, strategy)] * runs
        assert len(scanned) > runs


def test_play_checks_run_on_the_play_graph_only(monkeypatch):
    # v0 chooses between the effect g and the trap t; 400 more Reach
    # vertices on a chain into t sit where no play goes.  The win check
    # scans, and the condition 1 check runs the attractor on, the two
    # vertices each play graph holds, not the whole game.
    island = [f"i{k:03d}" for k in range(400)]
    owners = dict.fromkeys(["v0", *island], REACH)
    owners.update(t=SAFE, g="effect")
    edges = {("v0", "g"), ("v0", "t"), ("t", "t")} | set(zip(island, island[1:] + ["t"]))
    game = game_from_owners(owners, "v0", edges)
    sizes = []

    def attracting(succ, existential, target, preds=None, allowed=None):
        sizes.append(len(succ))
        return attractor(succ, existential, target, preds, allowed)

    def scanning(game, picks, other):
        found = play_scan(game, picks, other)
        sizes.append(len(found[2]))
        return found

    monkeypatch.setattr(game_causality, "attractor", attracting)
    monkeypatch.setattr(distances, "play_scan", scanning)
    rest = dict(zip(island, island[1:] + ["t"]))
    assert strategy_is_winning(game, MDStrategy(REACH, {"v0": "g", **rest}))
    sigma = MDStrategy(REACH, {"v0": "t", **rest})
    assert not strategy_is_winning(game, sigma)
    assert losing_play_reaches_cause(game, sigma, {"t"})
    assert sizes == [2, 2, 2]


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_condition1_with_many_cause_vertices_matches_the_reference(seed, cyclic, island):
    # Half or more of the non-effect vertices, the unreachable copy's too.
    for game, player, sigma, rng in small_games(seed, cyclic, island):
        pool = sorted(set(game.vertices) - game.effect)
        cause = frozenset(rng.sample(pool, rng.randint(len(pool) // 2, len(pool))))
        assert losing_play_reaches_cause(game, sigma, cause) == (
            naive_losing_play_reaches_cause(game, sigma, cause)
        )


def cycle_game(player, n):
    """(game, looping picks, leaking picks): the player owns a cycle of n
    vertices, each with an edge into the effect g as well; the looping
    strategy stays on the cycle, the leaking one steps into g at the end."""
    cycle = [f"c{i:04d}" for i in range(n)]
    loop = dict(zip(cycle, cycle[1:] + cycle[:1]))
    edges = set(loop.items()) | {(v, "g") for v in cycle}
    game = game_from_owners({**dict.fromkeys(cycle, player), "g": "effect"}, cycle[0], edges)
    return game, MDStrategy(player, loop), MDStrategy(player, {**loop, cycle[-1]: "g"})


def test_condition1_on_a_long_cycle_runs_one_attractor(monkeypatch):
    # The cause is every cycle vertex but the initial one.  Safe loses only
    # by leaking, Reach only by looping; one attractor over the play arena
    # answers for every cause vertex at once.
    calls = []

    def attracting(succ, existential, target, preds=None, allowed=None):
        calls.append(len(succ))
        return attractor(succ, existential, target, preds, allowed)

    monkeypatch.setattr(game_causality, "attractor", attracting)
    for n in (200, 2000):
        for player in (SAFE, REACH):
            game, loop, leak = cycle_game(player, n)
            cause = frozenset(v for v in game.ids if v not in ("c0000", "g"))
            for sigma in (loop, leak):
                calls.clear()
                got = losing_play_reaches_cause(game, sigma, cause)
                assert got == ((sigma is leak) == (player == SAFE))
                assert len(calls) == 1
                if n == 200:
                    assert got == naive_losing_play_reaches_cause(game, sigma, cause)


def test_hamm_s_check_walks_each_variant_once(monkeypatch):
    # One walk of a candidate's plays tells whether it wins, `_wins`; its
    # count is its distance, so no `play_scan` measures it.  Whether it
    # avoids the cause needs no walk, since the candidates keep to the avoid
    # region.  Every walk of the plays is counted.
    walked, variants = [], []
    wins = game_causality._wins

    def scanning(game, picks, other):
        walked.append(picks)
        return play_scan(game, picks, other)

    def numbering(game, picks):
        walked.append(picks)
        return play_arena(game, picks)

    def winning(game, player, picks):
        walked.append(picks)
        return wins(game, player, picks)

    def matching(*args):
        for tau, side in _matched_strategies(*args):
            variants.append(tau)
            yield tau, side

    monkeypatch.setattr(distances, "play_scan", scanning)
    monkeypatch.setattr(game_causality, "play_arena", numbering)
    monkeypatch.setattr(game_causality, "_matched_strategies", matching)
    monkeypatch.setattr(game_causality, "_wins", winning)
    checked = {REACH: 0, SAFE: 0}
    rng = random.Random(5)
    for _ in range(300):
        game = (acyclic_game if rng.random() < 0.5 else cyclic_game)(rng, 8)
        for player in (REACH, SAFE):
            if not game.owned_by(player):
                continue
            sigma = random_strategy(rng, game, player)
            pool = sorted(set(game.vertices) - game.effect - {game.initial})
            if not pool:
                continue
            cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
            walked.clear()
            variants.clear()
            check_cause_game(GameCauseQuery(game, player, sigma, cause, METRIC_HAMM_S))
            if variants:
                checked[player] += 1
                assert [sum(w is tau for w in walked) for tau in variants] == [1] * len(variants)
    assert min(checked.values()) >= 10
