import hashlib

import pytest

from causekit.cli import generate_json, main
from causekit.errors import Budget, BudgetExceeded, InvalidSpec
from causekit.generators import FAMILIES, GeneratorSpec, generate
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


def test_roundtrip_equality_all_model_families():
    from causekit.model import model_from_json, model_to_json

    for family in ("layered-ts", "acyclic-ts", "acyclic-game", "cyclic-game"):
        for seed in range(25):
            model = generate(GeneratorSpec(family, seed=seed))
            again = model_from_json(model_to_json(model))
            assert again == model
