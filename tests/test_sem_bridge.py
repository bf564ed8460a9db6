import random
from itertools import combinations, product

import pytest

from causekit.errors import Budget, BudgetExceeded, PreconditionViolated
from causekit.generators import GeneratorSpec, boolean_sem, generate
from causekit.model import maximal_paths
from causekit.sem_bridge import (
    LABEL_INTERVENTION,
    LABEL_PLAIN,
    MAX_UNROLL_VARIABLES,
    StructuralEquationModel,
    bridge_check,
    but_for_causes,
    butfor_to_cause_set,
    effect_from_json,
    evaluate_default,
    is_but_for_cause,
    sem_from_json,
    sem_to_json,
    unroll_to_ts,
)
from causekit.ts_causality import validate_layered
from helpers import (
    all_boolean_sems,
    default_path_states,
    naive_cause_set,
    naive_effect,
    unrolled_bridge_check,
)


def chain_sem():
    # X1 = true, X2 = X1
    return StructuralEquationModel(("X1", "X2"), ((True,), (False, True)))


def test_evaluate_default():
    assert evaluate_default(chain_sem()) == (True, True)
    neg = StructuralEquationModel(("X1", "X2"), ((True,), (True, False)))
    assert evaluate_default(neg) == (True, False)
    allfalse = StructuralEquationModel(("X1", "X2"), ((False,), (False, False)))
    assert evaluate_default(allfalse) == (False, False)


def test_unroll_structure():
    one = StructuralEquationModel(("X1",), ((True,),))
    ts = unroll_to_ts(one)
    assert len(ts.states) == 3
    assert ts.successors("v") == ("v0", "v1")
    assert ts.label("v1") == LABEL_PLAIN  # default child
    assert ts.label("v0") == LABEL_INTERVENTION

    two = unroll_to_ts(chain_sem())
    assert len(two.states) == 7
    depth = validate_layered(two)
    assert max(d for d in depth if d is not None) == 2
    assert all(len(p) == 3 for p in maximal_paths(two))
    default = default_path_states(chain_sem())
    assert default == ("v", "v1", "v11")
    assert two.trace(default) == (LABEL_PLAIN, LABEL_PLAIN, LABEL_PLAIN)


def test_intervention_branch_unique():
    sem = chain_sem()
    ts = unroll_to_ts(sem)
    for state in ts.states:
        kids = ts.successors(state)
        if kids:
            labels = sorted(ts.label(k) for k in kids)
            assert labels == [LABEL_PLAIN, LABEL_INTERVENTION] or labels == [
                LABEL_INTERVENTION,
                LABEL_PLAIN,
            ]


def test_but_for_examples():
    sem = StructuralEquationModel(("X1",), ((True,),))
    effect = {(True,)}
    assert is_but_for_cause(sem, effect, {"X1"})
    assert not is_but_for_cause(sem, effect, set())
    with pytest.raises(PreconditionViolated):
        is_but_for_cause(sem, {(False,)}, {"X1"})


def test_but_for_minimality():
    sem = chain_sem()
    effect = {(True, True)}
    assert is_but_for_cause(sem, effect, {"X1"})
    assert is_but_for_cause(sem, effect, {"X2"})
    assert not is_but_for_cause(sem, effect, {"X1", "X2"})  # not minimal
    assert but_for_causes(sem, effect) == [("X1",), ("X2",)]


def test_cause_set_reading():
    sem = chain_sem()
    assert butfor_to_cause_set(sem, {"X1"}) == frozenset({"v1"})
    assert butfor_to_cause_set(sem, {"X2"}) == frozenset({"v11", "v00"})


def test_bridge_tiny_overlapping_effect():
    # the default leaf is both in the effect and in the induced cause set
    sem = StructuralEquationModel(("X1",), ((True,),))
    verdict = bridge_check(sem, {(True,)}, {"X1"})
    assert verdict.is_cause
    assert verdict.min_distance == 1
    with pytest.raises(PreconditionViolated):
        bridge_check(sem, {(True,)}, set())


def test_bridge_exhaustive_small():
    for n in (1, 2):
        for sem in all_boolean_sems(n):
            default = evaluate_default(sem)
            others = [
                v for v in product((False, True), repeat=n) if v != default
            ]
            for keep in range(len(others) + 1):
                effect = frozenset([default] + others[:keep])
                for xs in but_for_causes(sem, effect):
                    verdict = bridge_check(sem, effect, xs)
                    assert verdict.is_cause, (sem, sorted(effect), xs)


def outcome(check, *args):
    """A check's verdict, or the type and text of what it raised."""
    try:
        return check(*args)
    except (BudgetExceeded, PreconditionViolated) as exc:
        return type(exc), str(exc)


def assert_bridge_matches_unrolled(sem, effects, variable_sets):
    ts = unroll_to_ts(sem)
    for effect in effects:
        for xs in variable_sets:
            for witnesses in (1, 3, 10):
                implicit = outcome(bridge_check, sem, effect, xs, witnesses)
                unrolled = outcome(unrolled_bridge_check, sem, effect, xs, witnesses, ts)
                assert implicit == unrolled, (sem, sorted(effect), xs, witnesses)


def random_sem(rng, n):
    return StructuralEquationModel(
        tuple(f"X{i + 1}" for i in range(n)),
        tuple(tuple(rng.random() < 0.5 for _ in range(2 ** i)) for i in range(n)),
    )


def test_bridge_matches_unrolled_tree_exhaustive():
    rng = random.Random(7)
    for n in (1, 2, 3):
        space = list(product((False, True), repeat=n))
        names = tuple(f"X{i + 1}" for i in range(n))
        variable_sets = [xs for r in range(n + 1) for xs in combinations(names, r)]
        variable_sets.append(("X1", "Z", "Y"))  # unknown variables: the first is named
        for sem in all_boolean_sems(n):
            default = evaluate_default(sem)
            effects = [
                {default},
                set(space),
                set(space) - {default},  # the default misses the effect
                {default} | {v for v in space if rng.random() < 0.5},
                {default, default[:-1]},  # a partial valuation
            ]
            assert_bridge_matches_unrolled(sem, effects, variable_sets)


def test_bridge_matches_unrolled_tree_random():
    rng = random.Random(41)
    for n in range(4, 9):
        space = list(product((False, True), repeat=n))
        for _ in range(12):
            sem = random_sem(rng, n)
            default = evaluate_default(sem)
            effects = [
                {default} | {v for v in space if rng.random() < p} for p in (0.1, 0.5, 0.9)
            ]
            variable_sets = [
                rng.sample(sem.variables, rng.randint(1, min(n, 3))) for _ in range(4)
            ]
            assert_bridge_matches_unrolled(sem, effects, variable_sets)


def test_bridge_unroll_cap():
    rng = random.Random(3)
    at_cap = random_sem(rng, MAX_UNROLL_VARIABLES)
    default = evaluate_default(at_cap)
    assert bridge_check(at_cap, {default}, {"X1"}).is_cause
    over = random_sem(rng, MAX_UNROLL_VARIABLES + 1)
    with pytest.raises(BudgetExceeded) as exc:
        bridge_check(over, {evaluate_default(over)}, {"X1"})
    assert str(exc.value) == "unrolling 17 variables needs 262143 states"


def test_minimality_by_subset_enumeration_random():
    rng = random.Random(12)
    for seed in range(60):
        sem = generate(GeneratorSpec("boolean-sem", seed=seed, variables=4))
        default = evaluate_default(sem)
        space = list(product((False, True), repeat=sem.n))
        effect = frozenset(
            [default] + [v for v in space if v != default and rng.random() < 0.4]
        )
        for xs in but_for_causes(sem, effect):
            for r in range(1, len(xs)):
                for sub in combinations(xs, r):
                    assert not is_but_for_cause(sem, effect, sub) or set(
                        sub
                    ) == set(xs)


def test_sem_json_roundtrip_and_effect_forms():
    sem = chain_sem()
    assert sem_from_json(sem_to_json(sem)) == sem
    lastk = effect_from_json(sem, {"last": 1, "values": [[True]]})
    assert lastk == ((False, True), (True, True))
    listed = effect_from_json(sem, [[True, True], [False, True], [True, True]])
    assert listed == ((False, True), (True, True))


def charged(expand, *args, units):
    """`expand(*args, budget)` under a budget of exactly `units`, which it
    must use up, and under one unit less, which it must exceed."""
    budget = Budget(units)
    out = expand(*args, budget)
    assert budget.used == units
    if units:
        with pytest.raises(BudgetExceeded):
            expand(*args, Budget(units - 1))
    return out


def test_effect_expansion_matches_the_filter():
    rng = random.Random(27)
    for n in range(1, 11):
        sem = StructuralEquationModel(
            tuple(f"X{i + 1}" for i in range(n)), tuple((False,) * 2 ** i for i in range(n))
        )
        cases = [{"last": n, "values": []}, []]
        for k in range(1, n + 1):
            pool = [[rng.random() < 0.5 for _ in range(k)] for _ in range(3)]
            cases.append({"last": k, "values": [rng.choice(pool) for _ in range(rng.randrange(5))]})
        pool = [[rng.random() < 0.5 for _ in range(n)] for _ in range(4)]
        cases += [[rng.choice(pool) for _ in range(rng.randrange(1, 7))] for _ in range(3)]
        for data in cases:
            expected = naive_effect(sem, data)
            units = len(expected) if isinstance(data, dict) else len(data)
            assert charged(effect_from_json, sem, data, units=units) == expected, data


def test_cause_set_matches_the_equation_per_prefix():
    rng = random.Random(26)
    for _ in range(60):
        sem = boolean_sem(rng, 12)
        xs = {"X1", *rng.sample(sem.variables, rng.randint(0, sem.n))}
        expected = naive_cause_set(sem, xs)
        assert charged(butfor_to_cause_set, sem, xs, units=len(expected)) == expected
