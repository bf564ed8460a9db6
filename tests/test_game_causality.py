import random
from fractions import Fraction

import pytest

from causekit.distances import INF, d_hamm_s, d_pref_hausdorff, dstar
from causekit.errors import (
    Budget,
    EmptyChoice,
    NoWinningStrategy,
    NotAcyclic,
    PreconditionViolated,
)
from causekit.fixtures import tree_game, loop_game
from causekit.game_causality import (
    GameCauseQuery,
    METRIC_DSTAR,
    METRIC_HAMM_S,
    METRIC_PREF_H,
    avoid_region,
    brute_force_check_cause,
    check_cause_game,
    enumerate_strategies,
    extract_explanation,
    is_explanation,
    is_minimal_explanation,
    losing_play_reaches_cause,
    min_dstar_winning_strategy_acyclic,
    min_winning_distance,
    solve,
    strategy_avoids,
    strategy_is_winning,
    tree_min_changes,
)
from causekit.generators import GeneratorSpec, generate, random_strategy
from causekit.model import MDStrategy, reachable_set, strategy_adjacency

from helpers import dstar_oracle, hausdorff_oracle, strategy_space_size


def query(game, sigma, cause, metric, player="reach"):
    return GameCauseQuery(
        game=game, player=player, sigma=sigma, cause=frozenset(cause), metric=metric
    )


# ---------------------------------------------------------------------------
# solving


def test_solve_tree_game():
    game, _ = tree_game()
    analysis = solve(game)
    assert game.initial in analysis.reach_region
    assert {"v0", "v1", "s00", "s11"} <= analysis.reach_region
    assert {"v2", "v3"} <= analysis.safe_region
    assert strategy_is_winning(game, analysis.reach_strategy)


def test_solve_trivial_games():
    quick = generate(GeneratorSpec("acyclic-game", seed=0, states=4))
    analysis = solve(quick)
    assert analysis.reach_region | analysis.safe_region == set(quick.vertices)
    assert not (analysis.reach_region & analysis.safe_region)


def test_solve_regions_certified_by_played_strategies():
    for seed in range(40):
        game = generate(GeneratorSpec("cyclic-game", seed=seed, states=6))
        analysis = solve(game)
        if game.initial in analysis.reach_region:
            assert strategy_is_winning(game, analysis.reach_strategy)
        else:
            assert strategy_is_winning(game, analysis.safe_strategy)


def test_avoid_region_tree_game():
    game, _ = tree_game()
    region, allowed = avoid_region(game, "reach", frozenset({"v2", "v3"}))
    assert game.initial in region
    assert "v2" not in region and "v3" not in region
    assert allowed["v0"] == ("s00",)
    assert allowed["v1"] == ("s11",)
    everything, _ = avoid_region(game, "reach", frozenset())
    assert everything == set(game.vertices)


def test_avoid_region_certifies_avoidance():
    rng = random.Random(21)
    for seed in range(40):
        game = generate(GeneratorSpec("cyclic-game", seed=seed, states=6))
        for player in ("reach", "safe"):
            pool = sorted(set(game.vertices) - game.effect - {game.initial})
            if not pool:
                continue
            cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
            region, allowed = avoid_region(game, player, cause)
            for tau in enumerate_strategies(game, player):
                avoids = strategy_avoids(game, tau, cause)
                seen = reachable_set(strategy_adjacency(game, tau), game.initial)
                preserving = game.initial in region and all(
                    tau.choice[v] in allowed.get(v, ())
                    for v in seen & set(game.owned_by(player))
                )
                assert avoids == preserving, (seed, player, sorted(cause))


# ---------------------------------------------------------------------------
# tree game: cause regressions


def test_tree_game_cause_regressions():
    game, sigma = tree_game()
    assert not strategy_is_winning(game, sigma)
    cases = [
        ({"v2", "v3"}, METRIC_PREF_H, True),
        ({"v2", "v3"}, METRIC_DSTAR, True),
        ({"v3"}, METRIC_HAMM_S, True),
        ({"v3"}, METRIC_PREF_H, False),
    ]
    for cause, metric, expected in cases:
        verdict = check_cause_game(query(game, sigma, cause, metric))
        assert verdict.is_cause == expected, (cause, metric)
        oracle = brute_force_check_cause(query(game, sigma, cause, metric))
        assert oracle.is_cause == expected
        assert verdict.min_distance == oracle.min_distance


def test_tree_game_unique_avoider_distances():
    game, sigma = tree_game()
    tau = MDStrategy("reach", {"v0": "s00", "v1": "s11"})
    assert d_pref_hausdorff(game, sigma, tau) == Fraction(1, 4)
    assert dstar(game, tau, sigma) == 1
    assert d_hamm_s(game, sigma, tau) == 1


def test_condition_failures():
    game, sigma = tree_game()
    # sigma never reaches v2, so no losing play through it alone
    verdict = check_cause_game(query(game, sigma, {"v2"}, METRIC_PREF_H))
    assert not verdict.is_cause and not verdict.condition1
    # unavoidable cause: both successors of start
    verdict = check_cause_game(query(game, sigma, {"v0", "v1"}, METRIC_PREF_H))
    assert not verdict.is_cause and not verdict.condition2
    assert verdict.min_distance == INF


def test_hamm_s_needs_acyclicity():
    game, sigma = loop_game()  # v1 has a non-trap self-loop
    with pytest.raises(NotAcyclic):
        check_cause_game(query(game, sigma, {"v1"}, METRIC_HAMM_S))


def test_tree_min_changes_matches_search():
    game, sigma = tree_game()
    assert tree_min_changes(game, sigma, frozenset({"v3"})) == 1
    assert tree_min_changes(game, sigma, frozenset({"v2", "v3"})) == 1
    assert tree_min_changes(game, sigma, frozenset({"s11", "v3"})) == INF


def test_tree_min_changes_rejects_a_cyclic_game():
    game, sigma = loop_game()  # v1 has a non-trap self-loop
    with pytest.raises(NotAcyclic):
        tree_min_changes(game, sigma, frozenset())


# ---------------------------------------------------------------------------
# oracle equivalence on random games


def interesting_queries(rng, game, metric, n_causes=2):
    for player in ("reach", "safe"):
        sigma = random_strategy(rng, game, player)
        pool = sorted(set(game.vertices) - game.effect)
        for _ in range(n_causes):
            cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
            yield GameCauseQuery(
                game=game, player=player, sigma=sigma, cause=cause, metric=metric
            )


def test_pref_h_cause_matches_enumeration():
    rng = random.Random(31)
    done = 0
    for seed in range(120):
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=6))
        if strategy_space_size(game, "reach") > 2000:
            continue
        for q in interesting_queries(rng, game, METRIC_PREF_H):
            got = check_cause_game(q)
            want = brute_force_check_cause(q, distance_fn=hausdorff_oracle)
            assert got.is_cause == want.is_cause, (seed, q.cause, q.player)
            if got.condition1 and got.condition2:
                assert got.min_distance == want.min_distance
            done += 1
    assert done >= 200


def test_hamm_s_and_dstar_cause_match_enumeration():
    rng = random.Random(32)
    done = 0
    for seed in range(80):
        game = generate(GeneratorSpec("acyclic-game", seed=seed, states=6))
        if strategy_space_size(game, "reach") > 2000:
            continue
        for metric in (METRIC_HAMM_S, METRIC_DSTAR):
            for q in interesting_queries(rng, game, metric, n_causes=1):
                got = check_cause_game(q)
                want = brute_force_check_cause(
                    q, distance_fn=dstar_oracle if metric == METRIC_DSTAR else None
                )
                assert got.is_cause == want.is_cause, (seed, metric, q.cause)
                if got.condition1 and got.condition2:
                    assert got.min_distance == want.min_distance
                done += 1
    assert done >= 100


# ---------------------------------------------------------------------------
# explanations


def test_loop_game_explanations():
    game, sigma = loop_game()
    ok, tau = is_explanation(game, sigma, {"v1", "v2"})
    assert ok and tau.choice == {"v1": "eff", "v2": "eff"}
    ok, tau = is_explanation(game, sigma, {"v1"})
    assert ok and tau.choice == {"v1": "eff", "v2": "v1"}
    ok, _ = is_explanation(game, sigma, frozenset())
    assert not ok  # sigma itself loses


def test_loop_game_minimality():
    game, sigma = loop_game()
    assert min_winning_distance(game, sigma, METRIC_HAMM_S) == 1
    assert min_winning_distance(game, sigma, METRIC_DSTAR) == 1
    assert not is_minimal_explanation(game, sigma, {"v1", "v2"}, METRIC_HAMM_S)
    assert not is_minimal_explanation(game, sigma, {"v1", "v2"}, METRIC_DSTAR)
    assert is_minimal_explanation(game, sigma, {"v1"}, METRIC_HAMM_S)
    assert is_minimal_explanation(game, sigma, {"v1"}, METRIC_DSTAR)


def test_min_winning_distance_threshold_mode():
    game, sigma = loop_game()
    assert min_winning_distance(game, sigma, METRIC_HAMM_S, threshold=1)
    assert not min_winning_distance(game, sigma, METRIC_HAMM_S, threshold=0)
    assert min_winning_distance(game, sigma, METRIC_DSTAR, threshold=2)


def test_winning_sigma_distance_zero():
    game, _ = loop_game()
    tau = MDStrategy("reach", {"v1": "eff", "v2": "eff"})
    assert strategy_is_winning(game, tau)
    assert min_winning_distance(game, tau, METRIC_HAMM_S) == 0
    assert is_minimal_explanation(game, tau, frozenset(), METRIC_HAMM_S)


def test_extract_explanation_loop_game():
    game, sigma = loop_game()
    explanation = extract_explanation(game, sigma, frozenset())
    assert explanation.vertex_set == frozenset({"v1", "v2"})
    assert strategy_is_winning(game, explanation.witness)
    for v in game.reach_owned:
        differs = explanation.witness.choice[v] != sigma.choice[v]
        assert differs == (v in explanation.vertex_set)


def test_extract_explanation_failure():
    game, sigma = tree_game()
    # removing both branch roots disconnects everything
    with pytest.raises(NoWinningStrategy):
        extract_explanation(game, sigma, frozenset({"v0", "v1"}))


@pytest.mark.parametrize("cause", [{"zz"}, {"v1", "zz"}, {"aa", "zz"}])
def test_extract_explanation_rejects_unknown_cause_vertices(cause):
    game, sigma = loop_game()
    first = min(c for c in cause if c not in game.vertices)
    with pytest.raises(PreconditionViolated, match=f"^'{first}' is not a vertex$"):
        extract_explanation(game, sigma, frozenset(cause))


def test_extract_explanation_of_winning_sigma_is_empty():
    game, _ = loop_game()
    tau = MDStrategy("reach", {"v1": "eff", "v2": "eff"})
    explanation = extract_explanation(game, tau, frozenset())
    assert explanation.vertex_set == frozenset()


def test_is_explanation_empty_choice():
    game, sigma = tree_game()
    sigma_start = MDStrategy("safe", {v: game.successors(v)[0] for v in game.safe_owned})
    with pytest.raises(EmptyChoice):
        is_explanation(game, sigma_start, {"t010"})  # self-loop only


def test_is_explanation_matches_enumeration():
    rng = random.Random(41)
    done = 0
    for seed in range(120):
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=6))
        for player in ("reach", "safe"):
            if strategy_space_size(game, player) > 2000:
                continue
            sigma = random_strategy(rng, game, player)
            branchy = [
                v for v in sorted(game.owned_by(player))
                if len(game.successors(v)) >= 2
            ]
            if not branchy:
                continue
            ex = frozenset(rng.sample(branchy, rng.randint(1, min(2, len(branchy)))))
            got, witness = is_explanation(game, sigma, ex)
            want = False
            for tau in enumerate_strategies(game, player):
                if all(
                    (tau.choice[v] != sigma.choice[v]) == (v in ex)
                    for v in game.owned_by(player)
                ) and strategy_is_winning(game, tau):
                    want = True
                    break
            assert got == want, (seed, player, ex)
            if got:
                assert strategy_is_winning(game, witness)
                assert all(
                    (witness.choice[v] != sigma.choice[v]) == (v in ex)
                    for v in game.owned_by(player)
                )
            done += 1
    assert done >= 150


def test_e_distinct_distance_is_cardinality():
    rng = random.Random(42)
    for seed in range(40):
        game = generate(GeneratorSpec("cyclic-game", seed=seed, states=6))
        for player in ("reach", "safe"):
            sigma = random_strategy(rng, game, player)
            branchy = [
                v for v in sorted(game.owned_by(player))
                if len(game.successors(v)) >= 2
            ]
            if not branchy:
                continue
            ex = frozenset(rng.sample(branchy, rng.randint(1, len(branchy))))
            choice = dict(sigma.choice)
            for v in ex:
                choice[v] = [u for u in game.successors(v) if u != sigma.choice[v]][0]
            tau = MDStrategy(player, choice)
            assert d_hamm_s(game, sigma, tau) == len(ex)


# ---------------------------------------------------------------------------
# acyclic d* repair


def test_min_dstar_acyclic_loop_game():
    game, sigma = loop_game()
    tau, value = min_dstar_winning_strategy_acyclic(game, sigma)
    assert value == 1
    assert strategy_is_winning(game, tau)
    assert dstar(game, tau, sigma) == 1


def test_min_dstar_acyclic_winning_sigma():
    game, _ = loop_game()
    tau0 = MDStrategy("reach", {"v1": "eff", "v2": "eff"})
    tau, value = min_dstar_winning_strategy_acyclic(game, tau0)
    assert value == 0
    assert tau.choice == tau0.choice


def test_min_dstar_acyclic_requires_acyclic_restriction():
    game, _ = loop_game()
    # choosing delta_2 at v2 and delta_1 at v1 leaves no cycle reachable,
    # but the losing self-looping sigma restricted differently is cyclic:
    sigma = MDStrategy("reach", {"v1": "v1", "v2": "eff"})
    # G^sigma has v1 trap: still effectively acyclic, so this must work
    tau, value = min_dstar_winning_strategy_acyclic(game, sigma)
    assert value == 1 and strategy_is_winning(game, tau)


def test_min_dstar_certified_repair_skips_the_exact_search():
    # The sweep's strategy meets its lower bound here, so the repair must
    # answer within a budget one unit short of what the exact search needs.
    game, sigma = tree_game()
    exact = Budget()
    optimum = min_winning_distance(game, sigma, METRIC_DSTAR, budget=exact)
    tau, value = min_dstar_winning_strategy_acyclic(
        game, sigma, budget=Budget(exact.used - 1)
    )
    assert value == optimum == dstar(game, tau, sigma)
    assert strategy_is_winning(game, tau)


def test_min_dstar_acyclic_matches_enumeration():
    rng = random.Random(51)
    done = 0
    for seed in range(200):
        game = generate(GeneratorSpec("acyclic-game", seed=seed, states=7))
        if strategy_space_size(game, "reach") > 500:
            continue
        analysis = solve(game)
        if game.initial not in analysis.reach_region:
            continue
        sigma = random_strategy(rng, game, "reach")
        best = None
        for tau in enumerate_strategies(game, "reach"):
            if strategy_is_winning(game, tau):
                d = dstar_oracle(game, tau, sigma)
                best = d if best is None else min(best, d)
        if best is None:
            continue
        tau, value = min_dstar_winning_strategy_acyclic(game, sigma)
        assert value == best, seed
        assert strategy_is_winning(game, tau)
        assert dstar(game, tau, sigma) == value
        done += 1
    assert done >= 50


def live_cause_queries(rng, seeds, states, metric, need, cap=800):
    """Queries whose cause conditions hold, found by probing singleton
    causes; mirrors how interesting instances arise in practice."""
    from causekit.game_causality import avoid_region
    from causekit.model import is_effectively_acyclic

    out = []
    for seed in seeds:
        if len(out) >= need:
            break
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=states))
        if strategy_space_size(game, "reach") > cap:
            continue
        if strategy_space_size(game, "safe") > cap:
            continue
        if metric == METRIC_HAMM_S and not is_effectively_acyclic(game.adjacency()):
            continue
        for player in ("reach", "safe"):
            sigma = random_strategy(rng, game, player)
            live = []
            for v in sorted(set(game.vertices) - game.effect):
                cause = frozenset({v})
                region, _ = avoid_region(game, player, cause)
                if game.initial in region and losing_play_reaches_cause(
                    game, sigma, cause
                ):
                    live.append(v)
            if live:
                cause = frozenset(
                    rng.sample(live, rng.randint(1, min(2, len(live))))
                )
                out.append(
                    GameCauseQuery(
                        game=game, player=player, sigma=sigma,
                        cause=cause, metric=metric,
                    )
                )
    return out


def test_live_cause_queries_match_oracle_all_metrics():
    rng = random.Random(61)
    from helpers import dstar_oracle as d_oracle, hausdorff_oracle as h_oracle

    for metric, fn, need in (
        (METRIC_PREF_H, h_oracle, 60),
        (METRIC_HAMM_S, None, 40),
        (METRIC_DSTAR, d_oracle, 40),
    ):
        queries = live_cause_queries(rng, range(1, 900), 7, metric, need)
        assert len(queries) >= need
        for q in queries:
            got = check_cause_game(q)
            want = brute_force_check_cause(q, distance_fn=fn)
            assert got.is_cause == want.is_cause, (metric, q.cause, q.player)
            if got.condition1 and got.condition2:
                assert got.min_distance == want.min_distance


def test_game_verdict_witness_invariants():
    rng = random.Random(62)
    checked = 0
    for metric in (METRIC_PREF_H, METRIC_HAMM_S, METRIC_DSTAR):
        for q in live_cause_queries(rng, range(1, 400), 6, metric, 25):
            verdict = check_cause_game(q)
            if not (verdict.condition1 and verdict.condition2):
                continue
            assert verdict.witnesses
            for w in verdict.witnesses:
                assert strategy_avoids(q.game, w.strategy, q.cause)
                assert w.distance == verdict.min_distance
                assert w.winning == strategy_is_winning(q.game, w.strategy)
            if verdict.is_cause:
                assert all(w.winning for w in verdict.witnesses)
            else:
                assert any(not w.winning for w in verdict.witnesses)
            checked += 1
    assert checked >= 60


def test_minimality_matches_pure_enumeration():
    rng = random.Random(63)
    from helpers import dstar_oracle as d_oracle

    checked = 0
    for seed in range(1, 500):
        if checked >= 60:
            break
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=6))
        for player in ("reach", "safe"):
            if strategy_space_size(game, player) > 600:
                continue
            sigma = random_strategy(rng, game, player)
            branchy = [
                v for v in sorted(game.owned_by(player))
                if len(game.successors(v)) >= 2
            ]
            if not branchy:
                continue
            ex = frozenset(rng.sample(branchy, rng.randint(1, min(2, len(branchy)))))
            winners = [
                tau for tau in enumerate_strategies(game, player)
                if strategy_is_winning(game, tau)
            ]
            if not winners:
                continue
            distinct = [
                tau for tau in winners
                if all(
                    (tau.choice[v] != sigma.choice[v]) == (v in ex)
                    for v in game.owned_by(player)
                )
            ]
            # Hamming strategy distance: cardinality comparison
            want_h = bool(distinct) and len(ex) == min(
                d_hamm_s(game, sigma, tau) for tau in winners
            )
            got_h = is_minimal_explanation(game, sigma, ex, METRIC_HAMM_S)
            assert got_h == want_h, (seed, player, ex)
            # vertex-counting distance: exact minima on both sides
            want_d = bool(distinct) and min(
                d_oracle(game, tau, sigma) for tau in distinct
            ) == min(d_oracle(game, tau, sigma) for tau in winners)
            got_d = is_minimal_explanation(game, sigma, ex, METRIC_DSTAR)
            assert got_d == want_d, (seed, player, ex)
            checked += 1
    assert checked >= 60


def test_solve_strategies_win_from_their_whole_region():
    from causekit.model import maximal_avoiding_set, strategy_adjacency, reachable_set

    for seed in range(60):
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=7))
        analysis = solve(game)
        reach_adj = strategy_adjacency(game, analysis.reach_strategy)
        dodging = maximal_avoiding_set(reach_adj, game.effect)
        for v in analysis.reach_region:
            assert v not in dodging, (seed, v)
        safe_adj = strategy_adjacency(game, analysis.safe_strategy)
        for v in analysis.safe_region:
            assert not (game.effect & reachable_set(safe_adj, v)), (seed, v)


def test_opponent_owns_everything():
    from causekit.model import ReachabilityGame

    game = ReachabilityGame(
        reach_owned=frozenset(),
        safe_owned=frozenset({"v0", "v1"}),
        effect=frozenset({"e"}),
        initial="v0",
        edges=frozenset({("v0", "v1"), ("v0", "e"), ("v1", "v1")}),
    )
    sigma = MDStrategy("reach", {})
    assert not strategy_is_winning(game, sigma)  # safe can loop at v1
    # reach cannot influence anything, so no cause set is avoidable unless
    # it is off every play; v1 is on a play and unavoidable
    verdict = check_cause_game(query(game, sigma, {"v1"}, METRIC_PREF_H))
    assert not verdict.is_cause and verdict.condition1 and not verdict.condition2
    # restriction with an empty strategy keeps the arena unchanged
    from causekit.model import restrict_game

    assert restrict_game(game, sigma).edges == game.edges


def test_sigma_already_avoiding_fails_condition1():
    game, _sigma = tree_game()
    sigma = MDStrategy("reach", {"v0": "s00", "v1": "s11"})  # avoids v2, v3
    verdict = check_cause_game(query(game, sigma, {"v2", "v3"}, METRIC_PREF_H))
    assert not verdict.is_cause and not verdict.condition1


def test_cause_inside_effect_rejected():
    game, sigma = tree_game()
    with pytest.raises(Exception, match="effect"):
        check_cause_game(query(game, sigma, {"e000"}, METRIC_PREF_H))
