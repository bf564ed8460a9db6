"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything is exact (no float tolerances); random
instances are seeded and therefore reproducible.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

from causekit.distances import (
    EditSequence,
    d_ghamm,
    d_hamm,
    d_hamm_s,
    d_hamm_weighted,
    d_lev,
    d_pref,
    d_pref_ap,
    d_pref_hausdorff,
    dstar,
    dstrat,
)
from causekit.fixtures import branching_ts, tree_game, loop_game
from causekit.game_causality import (
    GameCauseQuery,
    METRIC_DSTAR,
    METRIC_HAMM_S,
    METRIC_PREF_H,
    brute_force_check_cause,
    check_cause_game,
    enumerate_strategies,
    is_explanation,
    is_minimal_explanation,
    min_dstar_winning_strategy_acyclic,
    min_winning_distance,
    solve,
    strategy_is_winning,
)
from causekit.generators import (
    GeneratorSpec,
    generate,
    random_strategy,
)
from causekit.model import (
    MaximalFinitePath,
    MDStrategy,
    TransitionSystem,
    maximal_paths,
)
from causekit.sem_bridge import (
    bridge_check,
    but_for_causes,
    evaluate_default,
)
from causekit.ts_causality import (
    CauseQuery,
    METRIC_GHAMM,
    METRIC_HAMM,
    METRIC_LEV,
    METRIC_PREF,
    METRIC_PREF_AP,
    PHI_REACH,
    PHI_SAFE,
    brute_force_check,
    check_cause,
)

from helpers import (
    all_boolean_sems,
    build_ts_query,
    dstar_oracle,
    dstrat_oracle,
    hausdorff_oracle,
    random_words,
    strategy_space_size,
)

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "causekit" / "fixtures"


def report(number, elapsed, detail):
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {detail}")


# ---------------------------------------------------------------------------
# criterion 1: branching-system regression


def test_criterion_1_branching_regression():
    t0 = time.monotonic()
    ts, pi, cause, effect = branching_ts()

    def query(metric):
        return CauseQuery(
            ts=ts,
            pi=MaximalFinitePath(pi),
            cause=cause,
            effect=effect,
            phi=PHI_REACH,
            metric=metric,
        )

    pref = check_cause(query(METRIC_PREF))
    assert not pref.is_cause
    ghamm = check_cause(query(METRIC_GHAMM))
    assert ghamm.is_cause
    assert ghamm.min_distance == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, elapsed, "pref: not a cause; ghamm: cause at distance 0")


# ---------------------------------------------------------------------------
# criterion 2: Levenshtein regression


def test_criterion_2_levenshtein_regression():
    t0 = time.monotonic()
    value, witness = d_lev("abbc", "accbc")
    assert value == 2
    assert witness.weight() == 2
    assert witness.is_edit_sequence_for("abbc", "accbc")
    handmade = EditSequence(
        (("a", "a"), ("b", "c"), (None, "c"), ("b", "b"), ("c", "c"))
    )
    assert handmade.weight() == 2
    assert handmade.is_edit_sequence_for("abbc", "accbc")
    report(2, time.monotonic() - t0, "d_lev(abbc, accbc) = 2 with valid witnesses")


# ---------------------------------------------------------------------------
# criterion 3: TS oracle equivalence


@lru_cache(maxsize=None)
def _relations(a, b):
    """Edge relations between layers of widths a and b: every source emits,
    every target is reachable."""
    edges = [(i, j) for i in range(a) for j in range(b)]
    out = []
    for mask in range(1, 1 << len(edges)):
        rel = tuple(edges[k] for k in range(len(edges)) if mask >> k & 1)
        if all(any(e[0] == i for e in rel) for i in range(a)) and all(
            any(e[1] == j for e in rel) for j in range(b)
        ):
            out.append(rel)
    return tuple(out)


def exhaustive_layered_family(max_total=6, max_layers=4, max_width=3):
    """Every layered system with one initial state, at most max_layers
    layers of width <= max_width, at most max_total states, every state
    reachable, every non-final state productive, over a 2-symbol alphabet.

    The unrestricted <=4x3 family is astronomically large (edge relations
    times labelings); this bounded family is the exhaustively enumerable
    core and is swept in full.
    """
    profiles = []

    def grow(profile):
        if len(profile) >= 2:
            profiles.append(tuple(profile))
        if len(profile) < max_layers:
            for w in range(1, max_width + 1):
                if sum(profile) + w <= max_total:
                    grow(profile + [w])

    grow([1])
    alphabet = ("a", "b")
    for profile in profiles:
        names = [
            [f"s{i}_{j}" for j in range(w)] for i, w in enumerate(profile)
        ]
        states = tuple(sorted(s for layer in names for s in layer))
        rel_options = [
            _relations(profile[i], profile[i + 1])
            for i in range(len(profile) - 1)
        ]
        for rels in product(*rel_options):
            transitions = frozenset(
                (names[i][x], names[i + 1][y])
                for i, rel in enumerate(rels)
                for (x, y) in rel
            )
            order = [s for layer in names for s in layer]
            for labels in product(alphabet, repeat=len(order)):
                labeling = dict(zip(order, labels))
                yield TransitionSystem(
                    states=states,
                    initial="s0_0",
                    transitions=transitions,
                    labeling=labeling,
                    alphabet=alphabet,
                )


def layered_queries(ts, metric):
    path = maximal_paths(ts)[0]
    terminals = [s for s in ts.states if ts.is_terminal(s)]
    end = path[-1]
    for phi in (PHI_REACH, PHI_SAFE):
        if phi == PHI_REACH:
            effect = frozenset(t for t in terminals if ts.label(t) == ts.label(end))
        else:
            effect = frozenset(t for t in terminals if ts.label(t) != ts.label(end))
            if not effect:
                continue
        for s in path:
            if s in effect:
                continue
            yield CauseQuery(
                ts=ts,
                pi=MaximalFinitePath(path),
                cause=frozenset({s}),
                effect=effect,
                phi=phi,
                metric=metric,
            )


def _agree(query):
    got = check_cause(query)
    want = brute_force_check(query)
    assert got.is_cause == want.is_cause, query
    assert got.min_distance == want.min_distance, query
    return 1


def test_criterion_3_ts_oracle_equivalence():
    t0 = time.monotonic()
    family = list(exhaustive_layered_family())
    exhaustive_hamm = 0
    for ts in family:
        for query in layered_queries(ts, METRIC_HAMM):
            exhaustive_hamm += _agree(query)
    sampled = {m: 0 for m in (METRIC_PREF_AP, METRIC_GHAMM, METRIC_LEV)}
    for idx, ts in enumerate(family):
        if idx % 7:
            continue
        for metric in sampled:
            for query in layered_queries(ts, metric):
                sampled[metric] += _agree(query)

    random_counts = {}
    rng = random.Random(2024)
    for metric in (METRIC_PREF_AP, METRIC_HAMM, METRIC_GHAMM, METRIC_LEV):
        family_name = "layered-ts" if metric == METRIC_HAMM else "acyclic-ts"
        done = 0
        seed = 0
        while done < 1000:
            seed += 1
            ts = generate(GeneratorSpec(family_name, seed=seed, states=10))
            phi = PHI_REACH if seed % 2 else PHI_SAFE
            query = build_ts_query(ts, rng, metric, phi)
            if query is None:
                continue
            done += _agree(query)
        random_counts[metric] = done

    elapsed = time.monotonic() - t0
    assert exhaustive_hamm > 10000
    assert all(n >= 1000 for n in random_counts.values())
    assert elapsed < 300
    report(
        3,
        elapsed,
        f"{len(family)} layered systems swept ({exhaustive_hamm} hamm queries"
        f" exhaustive, {sum(sampled.values())} sampled others),"
        f" 1000 random instances per metric, 100% agreement",
    )


# ---------------------------------------------------------------------------
# criterion 4: tree-game regressions


def test_criterion_4_tree_game_regressions():
    t0 = time.monotonic()
    game, sigma = tree_game()

    def verdict(cause, metric):
        return check_cause_game(
            GameCauseQuery(
                game=game,
                player="reach",
                sigma=sigma,
                cause=frozenset(cause),
                metric=metric,
            )
        )

    assert verdict({"v2", "v3"}, METRIC_PREF_H).is_cause
    assert verdict({"v2", "v3"}, METRIC_DSTAR).is_cause
    assert verdict({"v3"}, METRIC_HAMM_S).is_cause
    assert not verdict({"v3"}, METRIC_PREF_H).is_cause

    tau = MDStrategy("reach", {"v0": "s00", "v1": "s11"})
    assert d_pref_hausdorff(game, sigma, tau) == Fraction(1, 4)
    assert dstar(game, tau, sigma) == 1
    report(4, time.monotonic() - t0, "cause verdicts and distances match the example")


# ---------------------------------------------------------------------------
# criterion 5: loop-game explanation regressions


def test_criterion_5_loop_game_regressions():
    t0 = time.monotonic()
    game, sigma = loop_game()

    ok, _ = is_explanation(game, sigma, {"v1", "v2"})
    assert ok
    assert not is_minimal_explanation(game, sigma, {"v1", "v2"}, METRIC_HAMM_S)
    assert not is_minimal_explanation(game, sigma, {"v1", "v2"}, METRIC_DSTAR)
    assert is_minimal_explanation(game, sigma, {"v1"}, METRIC_HAMM_S)
    assert is_minimal_explanation(game, sigma, {"v1"}, METRIC_DSTAR)

    tau = MDStrategy("reach", {"v1": "eff", "v2": "eff"})
    assert d_hamm_s(game, sigma, tau) == 2
    assert dstar(game, tau, sigma) == 2
    assert min_winning_distance(game, sigma, METRIC_HAMM_S) == 1
    assert min_winning_distance(game, sigma, METRIC_DSTAR) == 1
    report(5, time.monotonic() - t0, "explanations, minimality and distances match")


# ---------------------------------------------------------------------------
# criterion 6: game oracle equivalence


def game_family(count, max_states=7, space_cap=2000, min_space=1):
    seed = 0
    games = []
    while len(games) < count:
        seed += 1
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=max_states))
        spaces = (
            strategy_space_size(game, "reach"),
            strategy_space_size(game, "safe"),
        )
        if max(spaces) > space_cap or max(spaces) < min_space:
            continue
        games.append(game)
    return games


def _pick_cause_query(rng, game, metric, preferred_player):
    """Prefer (player, sigma, cause) combinations where both cause conditions
    hold, trying live singleton causes vertex by vertex; fall back to a
    random draw so condition-failing paths stay covered too."""
    from causekit.game_causality import losing_play_reaches_cause
    from helpers import avoid_set

    other = "safe" if preferred_player == "reach" else "reach"
    fallback = None
    for player in (preferred_player, other):
        for _ in range(3):
            sigma = random_strategy(rng, game, player)
            live = []
            for v in sorted(set(game.vertices) - game.effect):
                cause = frozenset({v})
                region = avoid_set(game, player, cause, {})
                if game.initial not in region:
                    continue
                if losing_play_reaches_cause(game, sigma, cause):
                    live.append(v)
            if live:
                pick = frozenset(rng.sample(live, rng.randint(1, min(2, len(live)))))
                query = GameCauseQuery(
                    game=game, player=player, sigma=sigma, cause=pick, metric=metric
                )
                probe = check_cause_game(query)
                if probe.condition1 and probe.condition2:
                    return query
                fallback = query
            elif fallback is None:
                pool = sorted(set(game.vertices) - game.effect)
                cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
                fallback = GameCauseQuery(
                    game=game, player=player, sigma=sigma, cause=cause, metric=metric
                )
    return fallback


def test_criterion_6_game_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(606)
    games = game_family(280) + game_family(280, min_space=8)
    cause_checks = 0
    interesting = 0
    explanation_checks = 0
    for i, game in enumerate(games):
        player = "reach" if i % 2 else "safe"
        query = _pick_cause_query(rng, game, METRIC_PREF_H, player)
        got = check_cause_game(query)
        want = brute_force_check_cause(query, distance_fn=hausdorff_oracle)
        assert got.is_cause == want.is_cause, (i, query.cause, query.player)
        if got.condition1 and got.condition2:
            assert got.min_distance == want.min_distance, (i, query.cause, query.player)
            interesting += 1
        cause_checks += 1

        for ex_player in (player, "safe" if player == "reach" else "reach"):
            branchy = [
                v for v in sorted(game.owned_by(ex_player))
                if len(game.successors(v)) >= 2
            ]
            if not branchy:
                continue
            ex_sigma = random_strategy(rng, game, ex_player)
            ex = frozenset(rng.sample(branchy, rng.randint(1, min(2, len(branchy)))))
            got_ok, _ = is_explanation(game, ex_sigma, ex)
            want_ok = any(
                strategy_is_winning(game, tau)
                for tau in enumerate_strategies(game, ex_player)
                if all(
                    (tau.choice[v] != ex_sigma.choice[v]) == (v in ex)
                    for v in game.owned_by(ex_player)
                )
            )
            assert got_ok == want_ok, (i, ex, ex_player)
            explanation_checks += 1
            break
    elapsed = time.monotonic() - t0
    assert cause_checks >= 500 and explanation_checks >= 500
    assert interesting >= 150
    assert elapsed < 600
    report(
        6,
        elapsed,
        f"{cause_checks} pref-h cause checks ({interesting} with both cause "
        f"conditions live) and {explanation_checks} explanation checks agree "
        f"with enumeration",
    )


# ---------------------------------------------------------------------------
# criterion 7: d* exactness


def test_criterion_7_dstar_exactness():
    t0 = time.monotonic()
    rng = random.Random(707)
    games = game_family(300)
    pair_checks = 0
    for game in games:
        for player in ("reach", "safe"):
            sigma = random_strategy(rng, game, player)
            tau = random_strategy(rng, game, player)
            assert dstrat(game, tau, sigma) == dstrat_oracle(game, tau, sigma)
            assert dstar(game, tau, sigma) == dstar_oracle(game, tau, sigma)
            pair_checks += 1

    repair_checks = 0
    seed = 0
    while repair_checks < 200:
        seed += 1
        game = generate(GeneratorSpec("acyclic-game", seed=seed, states=8))
        if strategy_space_size(game, "reach") > 500:
            continue
        if game.initial not in solve(game).reach_region:
            continue
        sigma = random_strategy(rng, game, "reach")
        best = None
        for candidate in enumerate_strategies(game, "reach"):
            if strategy_is_winning(game, candidate):
                d = dstar_oracle(game, candidate, sigma)
                best = d if best is None else min(best, d)
        tau, value = min_dstar_winning_strategy_acyclic(game, sigma)
        assert value == best, seed
        assert strategy_is_winning(game, tau)
        assert dstar(game, tau, sigma) == value
        repair_checks += 1
    elapsed = time.monotonic() - t0
    report(
        7,
        elapsed,
        f"{pair_checks} strategy pairs exact, {repair_checks} acyclic repairs minimal",
    )


# ---------------------------------------------------------------------------
# criterion 8: SEM bridge


def _effects(n, default, exhaustive):
    space = [v for v in product((False, True), repeat=n)]
    others = [v for v in space if v != default]
    if exhaustive:
        for mask in range(1 << len(others)):
            yield frozenset(
                [default] + [others[k] for k in range(len(others)) if mask >> k & 1]
            )
    else:
        yield frozenset([default] + [v for v in others if hash(v) % 2])


def test_criterion_8_sem_bridge():
    t0 = time.monotonic()
    bridges = 0
    for n in (1, 2, 3):
        for sem in all_boolean_sems(n):
            default = evaluate_default(sem)
            for effect in _effects(n, default, exhaustive=True):
                for xs in but_for_causes(sem, effect):
                    verdict = bridge_check(sem, effect, xs)
                    assert verdict.is_cause, (sem, sorted(effect), xs)
                    bridges += 1
    rng = random.Random(808)
    random_bridges = 0
    seed = 0
    while random_bridges < 200:
        seed += 1
        sem = generate(GeneratorSpec("boolean-sem", seed=seed, variables=4))
        if sem.n != 4:
            continue
        default = evaluate_default(sem)
        space = [v for v in product((False, True), repeat=4)]
        effect = frozenset(
            [default] + [v for v in space if v != default and rng.random() < 0.4]
        )
        causes = but_for_causes(sem, effect)
        if not causes:
            continue
        for xs in causes:
            verdict = bridge_check(sem, effect, xs)
            assert verdict.is_cause, (seed, xs)
            random_bridges += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report(
        8,
        elapsed,
        f"{bridges} exhaustive (n<=3) and {random_bridges} random (n=4) "
        f"but-for causes all pass the Hamming check",
    )


# ---------------------------------------------------------------------------
# criterion 9: metric axioms


def test_criterion_9_metric_axioms():
    t0 = time.monotonic()
    rng = random.Random(909)
    word_metrics = {
        "pref-ap": d_pref_ap,
        "pref": d_pref,
        "hamm": d_hamm,
        "hamm-weighted": lambda u, v: d_hamm_weighted(
            u, v, lambda a, b: 0 if a == b else Fraction(1, 2)
        ),
        "ghamm": d_ghamm,
        "lev": lambda u, v: d_lev(u, v)[0],
    }
    for name, fn in word_metrics.items():
        equal_length = name in ("hamm", "hamm-weighted")
        for _ in range(10_000):
            u, v = random_words(rng, "abc", 6, equal_length=equal_length)
            assert fn(u, u) == 0, name
            assert fn(u, v) == fn(v, u), name

    games = [
        generate(GeneratorSpec("cyclic-game" if s % 2 else "acyclic-game", seed=s, states=6))
        for s in range(100)
    ]
    strategy_metrics = {
        "pref-h": d_pref_hausdorff,
        "hamm-s": d_hamm_s,
        "dstar": dstar,
    }
    for name, fn in strategy_metrics.items():
        for i in range(10_000):
            game = games[i % len(games)]
            player = "reach" if i % 2 else "safe"
            sigma = random_strategy(rng, game, player)
            tau = random_strategy(rng, game, player)
            assert fn(game, sigma, sigma) == 0, name
            assert fn(game, sigma, tau) == fn(game, tau, sigma), name

    for _ in range(1_000):
        n = rng.randint(0, 6)
        u, v, w = (
            tuple(rng.choice("abc") for _ in range(n)) for _ in range(3)
        )
        assert d_hamm(u, v) + d_hamm(v, w) >= d_hamm(u, w)
        lev = lambda a, b: d_lev(a, b)[0]
        x, y = random_words(rng, "abc", 6)
        z = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        assert lev(x, y) + lev(y, z) >= lev(x, z)
    elapsed = time.monotonic() - t0
    report(
        9,
        elapsed,
        "identity and symmetry on 10^4 inputs per distance, triangle on 10^3 triples",
    )


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "causekit.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    sem_file = tmp_path / "sem.json"
    sem_file.write_text(
        json.dumps(
            {"kind": "sem", "variables": ["X1", "X2"], "tables": [[True], [False, True]]}
        )
    )
    invocations = [
        (
            "ts-cause",
            "--model", str(FIXDIR / "branching_ts.json"),
            "--path", str(FIXDIR / "branching_ts_run.json"),
            "--cause", "s2", "--effect", "s6,s8",
            "--phi", "reach", "--metric", "lev",
            "--seed", "5", "--budget", "500000",
        ),
        (
            "game-cause",
            "--model", str(FIXDIR / "tree_game.json"),
            "--player", "reach",
            "--strategy", str(FIXDIR / "tree_game_sigma.json"),
            "--cause", "v2,v3", "--metric", "dstar",
            "--seed", "5", "--budget", "500000",
        ),
        ("solve", "--model", str(FIXDIR / "loop_game.json")),
        (
            "explain",
            "--model", str(FIXDIR / "loop_game.json"),
            "--strategy", str(FIXDIR / "loop_game_sigma.json"),
        ),
        ("distance", "lev", "--u", "a,b,b,c", "--v", "a,c,c,b,c"),
        ("sem", "bridge", "--model", str(sem_file), "--effect", "[[true, true]]", "--vars", "X1"),
        ("gen", "--family", "cyclic-game", "--seed", "42"),
        (
            "oracle", "game-cause",
            "--model", str(FIXDIR / "loop_game.json"),
            "--player", "reach",
            "--strategy", str(FIXDIR / "loop_game_sigma.json"),
            "--cause", "v1", "--metric", "dstar",
            "--seed", "5", "--budget", "500000",
        ),
    ]
    for args in invocations:
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first.stdout == second.stdout, args
        assert first.returncode == second.returncode, args
    report(10, time.monotonic() - t0, f"{len(invocations)} invocations byte-identical")
