import random
from fractions import Fraction

import pytest

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
from causekit.errors import LengthMismatch
from causekit.fixtures import tree_game, loop_game
from causekit.generators import GeneratorSpec, generate, random_strategy
from causekit.model import MDStrategy

from helpers import (
    dstar_oracle,
    dstrat_oracle,
    hausdorff_oracle,
    naive_lev,
    random_words,
)


def test_pref_ap_examples():
    assert d_pref_ap("abcd", "abcd") == 0
    assert d_pref_ap("abcd", "abad") == Fraction(1, 4)
    assert d_pref_ap("abcd", "bbcd") == 1


def test_pref_path_examples():
    assert d_pref(("s0", "s2", "s7", "s8"), ("s0", "s2", "s7", "s8")) == 0
    assert d_pref(("s0", "s2", "s7", "s8"), ("s0", "s1", "s3", "s5")) == Fraction(1, 2)
    assert d_pref(("a", "x"), ("b", "x")) == 1


def test_hamm_examples():
    assert d_hamm("abcd", "abcd") == 0
    assert d_hamm("abcd", "abad") == 1
    with pytest.raises(LengthMismatch):
        d_hamm("ab", "abc")


def test_hamm_weighted():
    metric = lambda a, b: 0 if a == b else (Fraction(1, 2) if {a, b} == {"b", "c"} else 1)
    assert d_hamm_weighted("ab", "ac", metric) == Fraction(1, 2)
    assert d_hamm_weighted("ab", "ab", metric) == 0
    indicator = lambda a, b: 0 if a == b else 1
    rng = random.Random(0)
    for _ in range(200):
        u, v = random_words(rng, "abc", 6, equal_length=True)
        assert d_hamm_weighted(u, v, indicator) == d_hamm(u, v)


def test_ghamm_examples():
    assert d_ghamm("ab", "abc") == 1
    assert d_ghamm("a", "bcd") == 3
    rng = random.Random(1)
    for _ in range(200):
        u, v = random_words(rng, "ab", 6, equal_length=True)
        assert d_ghamm(u, v) == d_hamm(u, v)


def test_lev_known_alignment():
    value, witness = d_lev("abbc", "accbc")
    assert value == 2
    assert witness.is_edit_sequence_for("abbc", "accbc")
    assert witness.weight() == 2
    handmade = EditSequence(
        (("a", "a"), ("b", "c"), (None, "c"), ("b", "b"), ("c", "c"))
    )
    assert handmade.weight() == 2
    assert handmade.is_edit_sequence_for("abbc", "accbc")


def test_lev_trivial():
    assert d_lev("abc", "abc")[0] == 0
    assert d_lev("", "abc")[0] == 3


def test_lev_witness_is_valid_everywhere():
    rng = random.Random(2)
    for _ in range(400):
        u, v = random_words(rng, "abc", 7)
        value, witness = d_lev(u, v)
        assert value == naive_lev(u, v)
        assert witness.weight() == value
        assert witness.is_edit_sequence_for(u, v)


def test_word_metric_ordering():
    rng = random.Random(3)
    for _ in range(300):
        u, v = random_words(rng, "abc", 7, equal_length=True)
        lev = d_lev(u, v)[0]
        assert lev <= d_ghamm(u, v) <= d_hamm(u, v) + 0


def test_axioms_sampled():
    rng = random.Random(4)
    for _ in range(300):
        u, v = random_words(rng, "ab", 6)
        for fn in (d_pref_ap, d_ghamm, lambda a, b: d_lev(a, b)[0]):
            assert fn(u, u) == 0
            assert fn(u, v) == fn(v, u)
        if len(u) == len(v):
            assert d_hamm(u, v) == d_hamm(v, u)
            w = tuple(rng.choice("ab") for _ in range(len(u)))
            assert d_hamm(u, v) + d_hamm(v, w) >= d_hamm(u, w)


def test_hamm_s_loop_game():
    game, sigma = loop_game()
    tau = MDStrategy("reach", {"v1": "eff", "v2": "eff"})
    assert d_hamm_s(game, sigma, tau) == 2
    assert d_hamm_s(game, sigma, sigma) == 0
    one_change = MDStrategy("reach", {"v1": "eff", "v2": "v1"})
    assert d_hamm_s(game, sigma, one_change) == 1


def test_pref_hausdorff_tree_game():
    game, sigma = tree_game()
    tau = MDStrategy("reach", {"v0": "s00", "v1": "s11"})
    assert d_pref_hausdorff(game, sigma, tau) == Fraction(1, 4)
    assert d_pref_hausdorff(game, sigma, sigma) == 0
    assert hausdorff_oracle(game, sigma, tau) == Fraction(1, 4)


def test_pref_hausdorff_matches_definitional_oracle():
    rng = random.Random(5)
    checked = 0
    for seed in range(200):
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=6))
        for player in ("reach", "safe"):
            sigma = random_strategy(rng, game, player)
            taus = [random_strategy(rng, game, player)]
            # One change to sigma puts the only disagreement at any depth of
            # sigma's play graph, or off every play.
            for v in sorted(game.owned_by(player)):
                others = [u for u in game.successors(v) if u != sigma.choice[v]]
                if others:
                    taus.append(MDStrategy(player, {**sigma.choice, v: rng.choice(others)}))
            for tau in taus:
                assert d_pref_hausdorff(game, sigma, tau) == hausdorff_oracle(
                    game, sigma, tau
                )
                checked += 1
    assert checked >= 400


def test_dstar_loop_game():
    game, sigma = loop_game()
    tau = MDStrategy("reach", {"v1": "eff", "v2": "eff"})
    assert dstar(game, tau, sigma) == 2
    assert dstrat(game, sigma, tau) == 2
    assert dstrat(game, tau, sigma) == 1
    assert dstar(game, sigma, sigma) == 0


def test_dstar_matches_chain_oracle():
    rng = random.Random(6)
    for seed in range(200):
        family = "cyclic-game" if seed % 2 else "acyclic-game"
        game = generate(GeneratorSpec(family, seed=seed, states=7))
        for player in ("reach", "safe"):
            sigma = random_strategy(rng, game, player)
            tau = random_strategy(rng, game, player)
            assert dstrat(game, tau, sigma) == dstrat_oracle(game, tau, sigma)
            assert dstar(game, tau, sigma) == dstar_oracle(game, tau, sigma)
            assert dstar(game, tau, sigma) == dstar(game, sigma, tau)
