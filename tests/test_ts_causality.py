import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product

import pytest

from causekit.distances import INF, format_distance
from causekit.errors import NotLayered, PreconditionViolated
from causekit.fixtures import branching_ts
from causekit.sem_bridge import bridge_check, evaluate_default
from causekit.generators import GeneratorSpec, generate
from causekit import ts_causality
from causekit.model import (
    MaximalFinitePath,
    TransitionSystem,
    maximal_paths,
    validate_maximal_path,
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
    check_cause_ghamm,
    check_cause_hamm_layered,
    dijkstra,
    ghamm_product,
    lev_product,
    metric_distance,
    path_satisfies_phi,
    validate_layered,
    validate_query,
)

from helpers import build_ts_query, cyclic_ts_query, naive_dijkstra, naive_hamm_layered


def branching_query(metric, **kw):
    ts, pi, cause, effect = branching_ts()
    return CauseQuery(
        ts=ts,
        pi=MaximalFinitePath(pi),
        cause=cause,
        effect=effect,
        phi=PHI_REACH,
        metric=metric,
        **kw,
    )


def test_branching_pref_not_a_cause():
    verdict = check_cause(branching_query(METRIC_PREF))
    assert not verdict.is_cause
    assert verdict.min_distance == Fraction(1, 2)
    assert any(w.satisfies_phi for w in verdict.witnesses)


def test_branching_hamming_cause_with_distance_zero():
    for metric in (METRIC_GHAMM, METRIC_HAMM):
        verdict = check_cause(branching_query(metric))
        assert verdict.is_cause
        assert verdict.min_distance == 0
        assert all(not w.satisfies_phi for w in verdict.witnesses)


def test_branching_witnesses_are_valid_avoiding_paths():
    ts, _pi, cause, effect = branching_ts()
    for metric in (METRIC_PREF, METRIC_PREF_AP, METRIC_HAMM, METRIC_GHAMM, METRIC_LEV):
        query = branching_query(metric)
        verdict = check_cause(query)
        for w in verdict.witnesses:
            assert w.path[0] == ts.initial
            assert ts.is_terminal(w.path[-1])
            assert not (set(w.path) & cause)
            assert metric_distance(query, w.path) == w.distance
            assert w.satisfies_phi == path_satisfies_phi(w.path, effect, PHI_REACH)


def test_precondition_checks():
    ts, pi, cause, effect = branching_ts()
    base = dict(ts=ts, pi=MaximalFinitePath(pi), phi=PHI_REACH, metric=METRIC_PREF)
    with pytest.raises(PreconditionViolated, match="does not visit"):
        check_cause(CauseQuery(cause=frozenset({"s1"}), effect=effect, **base))
    with pytest.raises(PreconditionViolated, match="overlap"):
        check_cause(CauseQuery(cause=frozenset({"s8"}), effect=effect, **base))
    with pytest.raises(PreconditionViolated, match="not terminal"):
        check_cause(CauseQuery(cause=cause, effect=frozenset({"s1"}), **base))
    with pytest.raises(PreconditionViolated, match="does not satisfy"):
        check_cause(
            CauseQuery(
                cause=cause, effect=effect, ts=ts, pi=MaximalFinitePath(pi),
                phi=PHI_SAFE, metric=METRIC_PREF,
            )
        )


def test_no_avoider_means_no_cause():
    ts = TransitionSystem(
        states=("s0", "s1", "s2"),
        initial="s0",
        transitions=frozenset({("s0", "s1"), ("s1", "s2")}),
        labeling={"s0": "a", "s1": "b", "s2": "a"},
        alphabet=("a", "b"),
    )
    query = CauseQuery(
        ts=ts,
        pi=MaximalFinitePath(("s0", "s1", "s2")),
        cause=frozenset({"s1"}),
        effect=frozenset({"s2"}),
        phi=PHI_REACH,
        metric=METRIC_PREF_AP,
    )
    for checker in (check_cause, brute_force_check):
        verdict = checker(query)
        assert not verdict.is_cause
        assert not verdict.condition1
        assert verdict.min_distance == INF


def test_validate_layered():
    ts, _pi, _c, _e = branching_ts()
    depth = validate_layered(ts)
    assert depth[ts.index["s0"]] == 0 and depth[ts.index["s8"]] == 3
    skewed = TransitionSystem(
        states=("s0", "s1", "s2"),
        initial="s0",
        transitions=frozenset({("s0", "s1"), ("s1", "s2"), ("s0", "s2")}),
        labeling={"s0": "a", "s1": "a", "s2": "a"},
        alphabet=("a",),
    )
    with pytest.raises(NotLayered):
        validate_layered(skewed)


def test_hamm_requires_layering():
    skewed = TransitionSystem(
        states=("s0", "s1", "s2", "s3"),
        initial="s0",
        transitions=frozenset(
            {("s0", "s1"), ("s0", "s2"), ("s1", "s3"), ("s2", "s3"), ("s0", "s3")}
        ),
        labeling={"s0": "a", "s1": "b", "s2": "b", "s3": "a"},
        alphabet=("a", "b"),
    )
    query = CauseQuery(
        ts=skewed,
        pi=MaximalFinitePath(("s0", "s1", "s3")),
        cause=frozenset({"s1"}),
        effect=frozenset({"s3"}),
        phi=PHI_REACH,
        metric=METRIC_HAMM,
    )
    with pytest.raises(NotLayered):
        check_cause_hamm_layered(query)


def test_weighted_hamming_layered():
    ts, pi, cause, effect = branching_ts()
    # c-vs-a mismatches cost half as much
    metric = lambda a, b: 0 if a == b else (Fraction(1, 2) if {a, b} == {"a", "c"} else 1)
    query = CauseQuery(
        ts=ts,
        pi=MaximalFinitePath(pi),
        cause=cause,
        effect=effect,
        phi=PHI_REACH,
        metric=METRIC_HAMM,
        label_metric=metric,
    )
    verdict = check_cause_hamm_layered(query)
    oracle = brute_force_check(query)
    assert verdict.is_cause == oracle.is_cause
    assert verdict.min_distance == oracle.min_distance == 0


def test_hamm_integer_weights_match_fraction_weights():
    """The default 0/1 metric runs on ints; the same metric as Fractions must
    give the same verdict, witnesses and rendered distances."""
    fraction_metric = lambda a, b: Fraction(0 if a == b else 1)
    rng = random.Random(9)
    checked = finite = 0
    for seed in range(400):
        spec = GeneratorSpec("layered-ts", seed=seed, layers=6, width=4, alphabet=rng.randint(1, 3))
        query = build_ts_query(generate(spec), rng, METRIC_HAMM, rng.choice((PHI_REACH, PHI_SAFE)))
        if query is None:
            continue
        plain = check_cause_hamm_layered(query)
        weighted = check_cause_hamm_layered(replace(query, label_metric=fraction_metric))
        assert plain == weighted
        assert format_distance(plain.min_distance) == format_distance(weighted.min_distance)
        assert [format_distance(w.distance) for w in plain.witnesses] == [
            format_distance(w.distance) for w in weighted.witnesses
        ]
        if plain.min_distance != INF:
            assert type(plain.min_distance) is int
            assert all(type(w.distance) is int for w in plain.witnesses)
            finite += 1
        checked += 1
    assert checked >= 150 and finite >= 90


def test_hamm_matches_the_state_search():
    """The copy-product hamm check gives the whole verdict of the search over
    the states, distance types included, under the default and a Fraction
    label metric, for both properties and one to four witnesses.  Half the
    queries take ghamm's effect sets, any terminal states, so the two goal
    classes often tie."""
    halves = lambda a, b: 0 if a == b else Fraction(1 if {a, b} == {"a", "c"} else 3, 2)
    rng = random.Random(18)
    seen = set()
    for seed in range(400):
        spec = GeneratorSpec(
            "layered-ts", seed=seed, layers=rng.randint(3, 8), width=rng.randint(2, 5),
            alphabet=rng.randint(1, 3),
        )
        phi = rng.choice((PHI_REACH, PHI_SAFE))
        effects_of = rng.choice((METRIC_HAMM, METRIC_GHAMM))
        query = build_ts_query(generate(spec), rng, effects_of, phi, rng.randint(1, 4))
        if query is None:
            continue
        for label_metric in (None, halves):
            query = replace(query, metric=METRIC_HAMM, label_metric=label_metric)
            got, want = check_cause_hamm_layered(query), naive_hamm_layered(query)
            assert got == want
            assert type(got.min_distance) is type(want.min_distance)
            assert [type(w.distance) for w in got.witnesses] == [
                type(w.distance) for w in want.witnesses
            ]
            seen.add((phi, label_metric is None, got.is_cause, len(got.witnesses)))
    for phi in (PHI_REACH, PHI_SAFE):
        for plain in (False, True):
            assert {(c, n) for p, m, c, n in seen if (p, m) == (phi, plain)} >= {
                (False, 0), (False, 1), (False, 2), (True, 1)
            }


def test_lev_product_tiny():
    ts = TransitionSystem(
        states=("s0",),
        initial="s0",
        transitions=frozenset(),
        labeling={"s0": "a"},
        alphabet=("a",),
    )
    s0 = ts.index["s0"]  # products run on state numbers
    start, start_weight, successors, goal_class = lev_product(
        ts, (s0,), frozenset(), frozenset()
    )
    zero_edges, positive_edges = successors
    assert (start, start_weight) == ((s0, 1), 0)
    assert list(zero_edges(start)) == list(positive_edges(start)) == []
    assert goal_class(start) == "other"
    assert lev_product(ts, (s0,), frozenset(), {s0})[3](start) == "effect"
    best, parent = dijkstra(start, start_weight, successors, goal_class)
    assert best == {"other": (0, (s0, 1))}
    assert parent == {(s0, 1): None}


def test_lev_product_zero_route_for_identical_traces():
    ts, pi, _c, effect = branching_ts()
    index = ts.index
    numbered = tuple(index[s] for s in pi)
    best, _parent = dijkstra(*lev_product(ts, numbered, frozenset(), {index[s] for s in effect}))
    assert best["effect"] == (0, (index["s8"], 4))  # the execution itself
    assert best["other"] == (0, (index["s5"], 4))  # the identical-trace left branch


def by_weight(edges):
    """The (zero_edges, positive_edges) pair of a hand-made graph, a dict
    from a node to its (target, weight, tag) edges."""
    def zero_edges(node):
        return [edge for edge in edges.get(node, ()) if not edge[1]]

    def positive_edges(node):
        return [edge for edge in edges.get(node, ()) if edge[1]]

    return zero_edges, positive_edges


def chained(successors):
    """One function that yields a node's edges of both halves of a
    (zero_edges, positive_edges) pair, as `naive_dijkstra` takes them."""
    zero_edges, positive_edges = successors
    return lambda node: chain(zero_edges(node), positive_edges(node))


def test_dijkstra_keeps_least_goal_per_class_and_stops_past_it():
    edges = {
        "a": (("m", 0, "step"), ("z", 0, "step"), ("c", 1, "step")),
        "z": (("b", 0, "step"),),
    }
    goals = {"m": "effect", "b": "effect", "c": "other"}
    best, parent = dijkstra("a", 0, by_weight(edges), goals.get)
    # "b" is pushed only after "m" is settled, yet it is the least goal at 0
    assert best == {"effect": (0, "b")}
    assert "c" not in parent
    assert parent["b"] == ("z", ("b", 0, "step"))


def settled_distances(start_weight, parent):
    """Each settled node's distance, in the order the nodes settled."""
    dist = {}
    for node, via in parent.items():
        if via is None:
            dist[node] = start_weight
        else:
            prev, (_target, weight, _tag) = via
            dist[node] = dist[prev] + weight
    return dist


def settled_out_of_order(start_weight, parent):
    """Whether some node settled after a larger node at the same distance;
    `parent` lists the nodes in the order they settled."""
    last = {}
    for node, d in settled_distances(start_weight, parent).items():
        if d in last and node < last[d]:
            return True
        last[d] = node
    return False


def agrees_with_the_heap(search):
    """`dijkstra`'s (best, parent) on `search`, asserted equal to the heap's
    on both halves of its edges chained, settle order included."""
    start, start_weight, successors, goal_class = search
    got = dijkstra(*search)
    want = naive_dijkstra(start, start_weight, chained(successors), goal_class)
    assert got == want
    assert list(got[1]) == list(want[1])
    return got


@pytest.fixture(scope="module")
def product_searches():
    """(family, kind, system, execution, search) for 150 seeds: hamm and
    ghamm products of layered systems, ghamm and lev products of acyclic and
    cyclic systems, under the 0/1 metric, a 0-or-1/2 label metric and one
    that scores the distinct labels "a" and "b" 0, and with the initial
    state in the cause."""
    halves = lambda a, b: 0 if a == b else Fraction(1, 2)
    blurred = lambda a, b: 0 if a == b or {a, b} == {"a", "b"} else Fraction(3, 2)
    rng = random.Random(29)
    out = []
    for seed in range(150):
        phi = rng.choice((PHI_REACH, PHI_SAFE))
        layered = generate(GeneratorSpec(
            "layered-ts", seed=seed, layers=rng.randint(3, 7), width=rng.randint(2, 5),
            alphabet=rng.randint(1, 3),
        ))
        acyclic = generate(GeneratorSpec("acyclic-ts", seed=seed, states=rng.randint(4, 10)))
        cyclic = (cyclic_ts_query(rng, METRIC_LEV) for _ in range(20))
        queries = [
            ("layered", build_ts_query(layered, rng, rng.choice((METRIC_HAMM, METRIC_GHAMM)), phi)),
            ("acyclic", build_ts_query(acyclic, rng, METRIC_GHAMM, phi)),
            ("cyclic", next(filter(None, cyclic), None)),
        ]
        for family, query in queries:
            if query is None:
                continue
            ts = query.ts
            seq, cause, effect = validate_query(query)
            searches = [
                ("ghamm", ghamm_product(ts, seq, cause, effect)),
                ("ghamm-halves", ghamm_product(ts, seq, cause, effect, halves)),
                ("ghamm-blurred", ghamm_product(ts, seq, cause, effect, blurred)),
                ("initial-in-cause", ghamm_product(ts, seq, cause | {ts._init}, effect)),
                ("initial-in-cause", lev_product(ts, seq, cause | {ts._init}, effect)),
            ]
            if family != "layered":
                searches.append(("lev", lev_product(ts, seq, cause, effect)))
            out.extend((family, kind, ts, seq, search) for kind, search in searches)
    return tuple(out)


def test_dijkstra_matches_the_heap_on_products(product_searches):
    """The bucketed queue settles the heap's nodes from the heap's parents on
    every search of `product_searches`."""
    seen = Counter()
    for family, kind, ts, _seq, search in product_searches:
        best, parent = agrees_with_the_heap(search)
        seen[family, kind] += 1
        if settled_out_of_order(search[1], parent):
            seen[family, kind, "out of order"] += 1
        for via in parent.values():
            if via is not None and via[1][2] == "jump" and via[1][1] > 1:
                seen[family, kind, "long jump"] += 1
        if kind == "ghamm-halves" and any(d.denominator == 2 for d, _ in best.values()):
            seen[family, kind, "half"] += 1
        if kind == "lev" and any(s in ts._succ[s] for s, _i in parent):
            seen[family, kind, "self-loop"] += 1
        if kind == "initial-in-cause":
            assert best == parent == {}
    for family in ("layered", "acyclic", "cyclic"):
        assert seen[family, "ghamm"] >= 80
        assert seen[family, "ghamm-halves", "half"] >= 10
    for family in ("acyclic", "cyclic"):
        assert seen[family, "ghamm", "long jump"] >= 5
    for kind in ("ghamm", "lev"):
        assert seen["cyclic", kind, "out of order"] >= 10
    assert seen["cyclic", "lev", "self-loop"] >= 80


def test_product_edges_are_split_by_weight(product_searches):
    """On every node that a search of `product_searches` settles, the
    zero-weight half of the product yields only edges of weight 0 and the
    positive-weight half only edges of weight above 0; under a label metric
    that scores distinct labels 0, those mismatches are zero-weight edges."""
    zero_mismatches = positive = 0
    for _family, kind, ts, seq, search in product_searches:
        zero_edges, positive_edges = search[2]
        _best, parent = dijkstra(*search)
        for node in parent:
            for target, weight, _tag in zero_edges(node):
                assert weight == 0
                if kind == "ghamm-blurred" and ts._labels[target[0]] != ts._labels[seq[node[1]]]:
                    zero_mismatches += 1
            for _target, weight, _tag in positive_edges(node):
                assert weight > 0
                positive += 1
    assert zero_mismatches >= 200 and positive >= 4000


class Logged(int):
    """An int weight that records its edge's target each time the search
    adds it to a distance."""

    def __new__(cls, value, target, log):
        weight = super().__new__(cls, value)
        weight.target, weight.log = target, log
        return weight

    def __radd__(self, other):
        self.log.append(self.target)
        return other + int(self)


def test_dijkstra_expands_positive_edges_only_below_the_result_distance(product_searches):
    """The positive-weight half of a node's edges is asked for once for each
    node settled below the distance the search ends at, and for no other
    node; an edge to a node settled by then is not added to a distance."""
    expanded = last_bucket = 0
    for _family, _kind, _ts, _seq, search in product_searches:
        start, start_weight, (zero_edges, positive_edges), goal_class = search
        asked = []

        def recorded(node):
            asked.append(node)
            return positive_edges(node)

        best, parent = dijkstra(start, start_weight, (zero_edges, recorded), goal_class)
        dist = settled_distances(start_weight, parent)
        end = min(best.values())[0] if best else INF
        assert sorted(asked) == sorted(node for node, d in dist.items() if d < end)
        expanded += len(asked)
        last_bucket += len(parent) - len(asked)
    assert expanded >= 2000 and last_bucket >= 1500

    # a goal at distance 0, by a zero-weight edge or at the start itself
    asked = []
    edges = {"a": (("g", 0, "e"), ("b", 1, "e")), "g": (("b", 1, "e"),)}
    zero_edges, positive_edges = by_weight(edges)
    for goals in ({"g": "effect"}, {"a": "other"}):
        best, _parent = dijkstra(
            "a", 0, (zero_edges, lambda node: asked.append(node) or positive_edges(node)),
            goals.get,
        )
        assert min(best.values())[0] == 0
    assert asked == []

    # "b" settles at 0 after "a", and "a" before "b": neither is pushed again
    log = []
    edges = {
        "a": (("b", 0, "e"), ("b", Logged(1, "b", log), "e"), ("c", Logged(1, "c", log), "e")),
        "b": (("a", Logged(1, "a", log), "e"), ("c", Logged(2, "c", log), "e")),
    }
    best, parent = dijkstra("a", 0, by_weight(edges), {"c": "effect"}.get)
    assert best == {"effect": (1, "c")}
    assert list(parent) == ["a", "b", "c"]
    assert log == ["c", "c"]


def test_dijkstra_matches_the_heap_on_hand_made_graphs():
    """Zero-weight chains that settle a smaller node after a larger one at
    the same distance, and int and Fraction weights that meet in one bucket.
    """
    # "a" pushes "c" and "d" at 0; "c" pushes "b" at 0, which settles before
    # "d" and so gives "x" its parent; "y" is pushed at Fraction(1) and at 1
    edges = {
        "a": (("c", 0, "e"), ("d", 0, "e"), ("y", Fraction(1), "e")),
        "b": (("x", 0, "e"), ("y", 1, "e")),
        "c": (("b", 0, "e"),),
        "d": (("x", 0, "e"), ("z", 1, "e")),
    }
    goals = {"y": "effect", "z": "effect"}
    best, parent = agrees_with_the_heap(("a", 0, by_weight(edges), goals.get))
    assert list(parent) == ["a", "c", "b", "d", "x", "y", "z"]
    assert parent["x"] == ("b", ("x", 0, "e"))
    assert parent["y"] == ("a", ("y", Fraction(1), "e"))
    assert best == {"effect": (1, "y")}

    rng = random.Random(1969)
    weights = (0, Fraction(0), Fraction(1, 2), 1, Fraction(1), Fraction(3, 2), 2)
    out_of_order = 0
    for _ in range(600):
        n = rng.randint(2, 12)
        edges = {
            v: tuple(
                (rng.randrange(n), rng.choice(weights), rng.choice("pq"))
                for _ in range(rng.randint(0, 4))
            )
            for v in range(n)
        }
        goals = {v: rng.choice(("effect", "other")) for v in range(n) if rng.random() < 0.2}
        start_weight = rng.choice((0, Fraction(0), Fraction(1, 2)))
        search = (rng.randrange(n), start_weight, by_weight(edges), goals.get)
        _best, parent = agrees_with_the_heap(search)
        out_of_order += settled_out_of_order(start_weight, parent)
    assert out_of_order >= 50


def test_dijkstra_matches_the_heap_on_the_bridge(monkeypatch):
    """Every bit-tuple search that `bridge_check` runs gives the heap's
    (best, parent)."""
    calls = []

    def compared(*search):
        calls.append(search)
        return agrees_with_the_heap(search)

    monkeypatch.setattr(ts_causality, "dijkstra", compared)
    rng = random.Random(1001)
    for seed in range(40):
        sem = generate(GeneratorSpec("boolean-sem", seed=seed, variables=rng.randint(2, 7)))
        default = evaluate_default(sem)
        effect = {default} | {
            v for v in product((False, True), repeat=sem.n) if rng.random() < 0.3
        }
        variables = rng.sample(sem.variables, rng.randint(1, min(3, sem.n)))
        bridge_check(sem, effect, variables)
    assert len(calls) == 40


def test_lev_self_loop_prefers_skip_over_step():
    # (s0, 2) is reached from (s0, 1) by the mismatching self-loop step and by
    # the skip, both at cost 1; the heap's edge order must pick the skip
    ts = TransitionSystem(
        states=("s0", "s1"),
        initial="s0",
        transitions=frozenset({("s0", "s0"), ("s0", "s1")}),
        labeling={"s0": "a", "s1": "b"},
        alphabet=("a", "b"),
    )
    s0, s1 = ts.index["s0"], ts.index["s1"]
    start, weight, successors, _goal = lev_product(ts, (s0, s1), frozenset(), frozenset())
    _best, parent = dijkstra(start, weight, successors, lambda node: None)
    assert parent[(s0, 2)] == ((s0, 1), ((s0, 2), 1, "skip"))


def test_ghamm_mixed_lengths_against_direct_formula():
    ts = TransitionSystem(
        states=("s0", "s1", "s2", "s3", "s4", "s5"),
        initial="s0",
        transitions=frozenset(
            {("s0", "s1"), ("s1", "s2"), ("s0", "s3"), ("s3", "s4"), ("s4", "s5")}
        ),
        labeling={"s0": "a", "s1": "b", "s2": "c", "s3": "b", "s4": "c", "s5": "c"},
        alphabet=("a", "b", "c"),
    )
    query = CauseQuery(
        ts=ts,
        pi=MaximalFinitePath(("s0", "s1", "s2")),
        cause=frozenset({"s1"}),
        effect=frozenset({"s2"}),
        phi=PHI_REACH,
        metric=METRIC_GHAMM,
    )
    verdict = check_cause_ghamm(query)
    oracle = brute_force_check(query)
    assert verdict.min_distance == oracle.min_distance == 1
    assert verdict.is_cause == oracle.is_cause


def oracle_agreement(metric, seeds, family, states):
    rng = random.Random(99)
    agreements = 0
    for seed in seeds:
        ts = generate(GeneratorSpec(family, seed=seed, states=states))
        for phi in (PHI_REACH, PHI_SAFE):
            query = build_ts_query(ts, rng, metric, phi)
            if query is None:
                continue
            got = check_cause(query)
            want = brute_force_check(query)
            assert got.is_cause == want.is_cause, (metric, seed, phi)
            assert got.min_distance == want.min_distance, (metric, seed, phi)
            agreements += 1
    return agreements


def test_oracle_agreement_sampled():
    assert oracle_agreement(METRIC_PREF, range(60), "acyclic-ts", 8) > 40
    assert oracle_agreement(METRIC_PREF_AP, range(60), "acyclic-ts", 8) > 40
    assert oracle_agreement(METRIC_GHAMM, range(60), "acyclic-ts", 8) > 40
    assert oracle_agreement(METRIC_LEV, range(60), "acyclic-ts", 8) > 40
    assert oracle_agreement(METRIC_HAMM, range(60), "layered-ts", 8) > 40


def test_cyclic_system_with_only_infinite_avoiders():
    # the sole cause-avoiding behavior loops forever; prefix distance stays
    # finite while the length-sensitive metrics report an infinite minimum
    ts = TransitionSystem(
        states=("c", "e", "s0", "s1"),
        initial="s0",
        transitions=frozenset(
            {("s0", "c"), ("s0", "s1"), ("s1", "s0"), ("c", "e")}
        ),
        labeling={"s0": "a", "s1": "b", "c": "b", "e": "c"},
        alphabet=("a", "b", "c"),
    )
    pi = MaximalFinitePath(("s0", "c", "e"))

    def query(metric):
        return CauseQuery(
            ts=ts,
            pi=pi,
            cause=frozenset({"c"}),
            effect=frozenset({"e"}),
            phi=PHI_REACH,
            metric=metric,
        )

    pref = check_cause(query(METRIC_PREF_AP))
    assert pref.is_cause and pref.min_distance == Fraction(1, 4)
    for metric in (METRIC_GHAMM, METRIC_LEV):
        verdict = check_cause(query(metric))
        assert verdict.is_cause and verdict.min_distance == INF
        assert verdict.condition1
    # under the safety reading the infinite avoiders satisfy the property,
    # so the cause claim collapses
    safe_pi = MaximalFinitePath(("s0", "c", "e"))
    bad = CauseQuery(
        ts=ts,
        pi=safe_pi,
        cause=frozenset({"c"}),
        effect=frozenset({"e"}),
        phi=PHI_SAFE,
        metric=METRIC_GHAMM,
    )
    with pytest.raises(PreconditionViolated):
        check_cause(bad)  # pi itself reaches the effect


def test_cyclic_systems_with_self_loops():
    # witnesses are C-avoiding finite maximal paths at the reported distance;
    # for ghamm and lev, the finite paths up to 10 states bound it from above
    rng = random.Random(4711)
    checked = {m: 0 for m in (METRIC_PREF, METRIC_PREF_AP, METRIC_GHAMM, METRIC_LEV)}
    for _ in range(8000):
        metric = rng.choice(sorted(checked))
        query = cyclic_ts_query(rng, metric)
        if query is None:
            continue
        verdict = check_cause(query)
        for w in verdict.witnesses:
            validate_maximal_path(query.ts, w.path)
            assert not query.cause & set(w.path)
            assert w.distance == metric_distance(query, w.path) == verdict.min_distance
        if metric in (METRIC_GHAMM, METRIC_LEV):
            oracle = brute_force_check(query, max_len=10)
            if oracle.condition1:
                assert verdict.min_distance <= oracle.min_distance
        checked[metric] += 1
    assert all(n >= 300 for n in checked.values()), checked


def test_effect_enlargement_monotonicity_sanity():
    # enlarging the effect set can flip verdicts either way, but the oracle's
    # minimal distance to an effect-reaching avoider never increases
    rng = random.Random(77)
    checked = 0
    for seed in range(300):
        if checked >= 40:
            break
        ts = generate(GeneratorSpec("acyclic-ts", seed=seed, states=8))
        query = build_ts_query(ts, rng, METRIC_GHAMM, PHI_REACH)
        if query is None:
            continue
        terminals = {s for s in ts.states if ts.is_terminal(s)}
        extra = sorted(terminals - query.effect - query.cause)
        if not extra:
            continue
        bigger = CauseQuery(
            ts=ts,
            pi=query.pi,
            cause=query.cause,
            effect=query.effect | {extra[0]},
            phi=PHI_REACH,
            metric=METRIC_GHAMM,
        )

        def min_to_effect(q):
            best = None
            for p in maximal_paths(ts):
                if set(p) & q.cause or p[-1] not in q.effect:
                    continue
                d = metric_distance(q, p)
                best = d if best is None else min(best, d)
            return best

        small_d, big_d = min_to_effect(query), min_to_effect(bigger)
        if small_d is not None:
            assert big_d is not None and big_d <= small_d
        assert check_cause(bigger).is_cause == brute_force_check(bigger).is_cause
        checked += 1
    assert checked >= 40


def test_witness_invariants_on_random_instances():
    rng = random.Random(88)
    checked = 0
    for seed in range(200):
        if checked >= 120:
            break
        for metric in (METRIC_PREF, METRIC_PREF_AP, METRIC_GHAMM, METRIC_LEV):
            ts = generate(GeneratorSpec("acyclic-ts", seed=seed, states=9))
            phi = PHI_REACH if seed % 2 else PHI_SAFE
            query = build_ts_query(ts, rng, metric, phi)
            if query is None:
                continue
            verdict = check_cause(query)
            for w in verdict.witnesses:
                assert w.path[0] == ts.initial
                assert ts.is_terminal(w.path[-1])
                assert not (set(w.path) & query.cause)
                assert w.distance == verdict.min_distance
                assert metric_distance(query, w.path) == w.distance
                assert w.satisfies_phi == path_satisfies_phi(
                    w.path, query.effect, query.phi
                )
            if verdict.is_cause:
                assert all(not w.satisfies_phi for w in verdict.witnesses)
            elif verdict.condition1 and verdict.witnesses:
                assert any(w.satisfies_phi for w in verdict.witnesses)
            checked += 1
    assert checked >= 120


def test_single_path_system_has_no_avoider():
    ts = TransitionSystem(
        states=("s0", "s1"),
        initial="s0",
        transitions=frozenset({("s0", "s1")}),
        labeling={"s0": "a", "s1": "b"},
        alphabet=("a", "b"),
    )
    query = CauseQuery(
        ts=ts,
        pi=MaximalFinitePath(("s0", "s1")),
        cause=frozenset({"s0"}),
        effect=frozenset({"s1"}),
        phi=PHI_REACH,
        metric=METRIC_LEV,
    )
    for checker in (check_cause, brute_force_check):
        verdict = checker(query)
        assert not verdict.is_cause and not verdict.condition1
