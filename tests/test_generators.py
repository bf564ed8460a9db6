import hashlib

import pytest

from causekit.cli import generate_json, main
from causekit.errors import Budget, BudgetExceeded, InvalidSpec
from causekit.generators import FAMILIES, MAX_ALPHABET, GeneratorSpec, generate
from causekit.model import dumps_canonical
from causekit.sem_bridge import StructuralEquationModel
from causekit.ts_causality import validate_layered

from helpers import naive_is_effectively_acyclic


def test_specs_validate():
    with pytest.raises(InvalidSpec):
        GeneratorSpec("no-such-family", seed=1)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("acyclic-ts", seed=1, states=0)


def test_specs_reject_sizes_the_families_cannot_build(capsys):
    for family, least in (("acyclic-ts", 2), ("acyclic-game", 3), ("cyclic-game", 3)):
        with pytest.raises(InvalidSpec, match=f"{family} needs at least {least} states"):
            GeneratorSpec(family, seed=1, states=least - 1)
        assert main(["gen", "--family", family, "--states", str(least - 1)]) == 2
        assert f"{family} needs at least {least} states" in capsys.readouterr().err
        for seed in range(30):
            generate(GeneratorSpec(family, seed=seed, states=least))


def test_specs_reject_an_alphabet_past_the_last_label(capsys):
    # Labels are one character each from "a" upward, so the last character
    # bounds the alphabet.  The check builds nothing.
    GeneratorSpec("acyclic-ts", seed=1, alphabet=MAX_ALPHABET)
    with pytest.raises(InvalidSpec, match=f"alphabet must be at most {MAX_ALPHABET}"):
        GeneratorSpec("acyclic-ts", seed=1, alphabet=MAX_ALPHABET + 1)
    assert main(["gen", "--family", "acyclic-ts", "--alphabet", "1200000"]) == 2
    assert capsys.readouterr() == ("", f"causekit: alphabet must be at most {MAX_ALPHABET}\n")


def test_system_families_charge_their_alphabet_before_naming_it(capsys):
    # The alphabet changes the labels drawn, not the states and transitions
    # charged, so a larger one costs exactly its extra labels; an alphabet
    # past the budget fails before a label is named.
    for family in ("layered-ts", "acyclic-ts"):
        for seed in range(10):
            used = []
            for alphabet in (2, 30):
                budget = Budget()
                generate(GeneratorSpec(family, seed=seed, alphabet=alphabet), budget)
                used.append(budget.used)
            assert used[1] - used[0] == 28
        argv = ["gen", "--family", family, "--alphabet", str(MAX_ALPHABET), "--budget", "10"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "causekit: search budget of 10 units exhausted\n")


def test_determinism_byte_identical():
    for family in FAMILIES:
        spec = GeneratorSpec(family, seed=17)
        a = dumps_canonical(generate_json(spec))
        b = dumps_canonical(generate_json(spec))
        assert a == b
        other = dumps_canonical(generate_json(GeneratorSpec(family, seed=18)))
        assert isinstance(other, str)


def test_generated_models_validate():
    for family in ("acyclic-ts", "acyclic-game", "cyclic-game"):
        for seed in range(50):
            model = generate(GeneratorSpec(family, seed=seed, states=9))
            if family == "acyclic-game":
                assert naive_is_effectively_acyclic(model.adjacency())


def test_layered_family_is_layered():
    for seed in range(50):
        ts = generate(GeneratorSpec("layered-ts", seed=seed, layers=4, width=3))
        validate_layered(ts)


def test_sem_family():
    for seed in range(20):
        sem = generate(GeneratorSpec("boolean-sem", seed=seed, variables=4))
        assert isinstance(sem, StructuralEquationModel)
        assert 1 <= sem.n <= 4


def test_sem_family_charges_one_unit_per_table_entry(capsys):
    # An SEM of n variables has 2^n - 1 truth-table entries in all; they are
    # charged before any table is built, so a spec too large for memory
    # fails on the budget at once.
    for seed in range(20):
        spec = GeneratorSpec("boolean-sem", seed=seed, variables=8)
        n = generate(spec).n
        assert generate(spec, Budget(2**n - 1)) == generate(spec)
        with pytest.raises(BudgetExceeded):
            generate(spec, Budget(2**n - 2))
    argv = ["gen", "--family", "boolean-sem", "--vars", "40", "--budget", "0"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "causekit: search budget of 0 units exhausted\n")
    # Under the default budget the output is what it was before the charge:
    # sha256 prefix of `gen --family boolean-sem --vars 10`, seeds 0-39.
    digest = hashlib.sha256()
    for seed in range(40):
        assert main(["gen", "--family", "boolean-sem", "--seed", str(seed), "--vars", "10"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest()[:16] == "416660455c42d99a"


def test_model_families_charge_their_states_and_an_edge_bound():
    # Each family charges, before it builds, at least as many units as the
    # states (vertices) and transitions (edges) it ends up with; exactly
    # that charge is enough, one unit less is not.
    for family in ("layered-ts", "acyclic-ts", "acyclic-game", "cyclic-game"):
        for seed in range(25):
            spec = GeneratorSpec(family, seed=seed, states=12, layers=5, width=4)
            budget = Budget()
            model = generate(spec, budget)
            edges = model.transitions if family.endswith("-ts") else model.edges
            assert len(model.ids) + len(edges) <= budget.used
            assert generate(spec, Budget(budget.used)) == model
            with pytest.raises(BudgetExceeded):
                generate(spec, Budget(budget.used - 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "layered-ts", "--layers", "40", "--width", "5"],
        ["--family", "acyclic-ts", "--states", "200"],
        ["--family", "acyclic-game", "--states", "200"],
        ["--family", "cyclic-game", "--states", "200"],
    ],
)
def test_model_families_exit_3_past_the_budget(argv, capsys):
    # Sizes that build in a blink, under a budget their charge exceeds.
    assert main(["gen", *argv, "--budget", "10"]) == 3
    assert capsys.readouterr() == ("", "causekit: search budget of 10 units exhausted\n")


def test_roundtrip_equality_all_model_families():
    from causekit.model import model_from_json, model_to_json

    for family in ("layered-ts", "acyclic-ts", "acyclic-game", "cyclic-game"):
        for seed in range(25):
            model = generate(GeneratorSpec(family, seed=seed))
            again = model_from_json(model_to_json(model))
            assert again == model
