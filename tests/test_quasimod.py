import random
from fractions import Fraction as F

import pytest

from piq.etaq import PiMonomial, pi_to_eta
from piq.quasimod import (
    E2Combo,
    E4Combo,
    LambertSpec,
    expand_lambert,
    is_modular_combo,
    pair_rule,
    reduce_atom,
    reduce_to_e2,
    sigma,
)


def brute_sigma(s, n):
    return sum(d**s for d in range(1, n + 1) if n % d == 0)


def brute_lam(a, b, terms):
    """Oracle: double-sum enumeration of sum q^(an-b)/(1-q^(an-b))^2."""
    out = [F(0)] * terms
    n = 1
    while a * n - b < terms:
        j = a * n - b
        k = 1
        while k * j < terms:
            out[k * j] += k
            k += 1
        n += 1
    return out


class TestSigma:
    def test_examples(self):
        assert sigma(1, 6) == 12
        assert sigma(3, 4) == 73
        assert sigma(0, 12) == 6
        assert all(sigma(s, 1) == 1 for s in range(5))

    def test_against_bruteforce_to_200(self):
        for n in range(1, 201):
            assert sigma(1, n) == brute_sigma(1, n)
            assert sigma(3, n) == brute_sigma(3, n)


class TestExpand:
    def test_lam_2_1(self):
        s = expand_lambert(LambertSpec("LAM", 2, 1), 6)
        assert [s.coefficient(i) for i in range(1, 5)] == [1, 2, 4, 4]

    def test_e2(self):
        s = expand_lambert(LambertSpec("E2", 1), 6)
        assert [s.coefficient(i) for i in range(5)] == [1, -24, -72, -96, -168]

    def test_dl3(self):
        s = expand_lambert(LambertSpec("DL3", 1), 6)
        assert [s.coefficient(i) for i in range(1, 5)] == [1, 8, 28, 64]

    def test_dl3_against_double_sum(self):
        # sum n^3 q^(n(2m+1)) enumerated directly
        T = 40
        out = [F(0)] * T
        n = 1
        while n < T:
            m = 0
            while n * (2 * m + 1) < T:
                out[n * (2 * m + 1)] += n**3
                m += 1
            n += 1
        s = expand_lambert(LambertSpec("DL3", 1), T)
        assert [s.coefficient(i) for i in range(T)] == out

    def test_sodd(self):
        s = expand_lambert(LambertSpec("SODD", 1), 10)
        assert [s.coefficient(i) for i in range(1, 8)] == [1, 0, 4, 0, 6, 0, 8]

    def test_e2_e4_divisor_recurrence_to_200(self):
        T = 201
        e2 = expand_lambert(LambertSpec("E2", 1), T)
        e4 = expand_lambert(LambertSpec("E4", 1), T)
        for n in range(1, T):
            assert e2.coefficient(n) == -24 * brute_sigma(1, n)
            assert e4.coefficient(n) == 240 * brute_sigma(3, n)


REDUCIBLE = [
    LambertSpec("LAM", 1, 0),
    LambertSpec("LAM", 2, 0),
    LambertSpec("LAM", 5, 0),
    LambertSpec("LAM", 2, 1),
    LambertSpec("LAM", 4, 2),
    LambertSpec("LAM", 8, 4),
    LambertSpec("LAM", 10, 5),
    LambertSpec("LAM", 18, 9),
    LambertSpec("SODD", 1),
]


class TestReduce:
    def test_lam_1_0(self):
        combo = reduce_to_e2(LambertSpec("LAM", 1, 0))
        assert dict(combo.terms) == {1: F(-1, 24)}
        assert combo.constant == F(1, 24)

    def test_lam_2_1(self):
        combo = reduce_to_e2(LambertSpec("LAM", 2, 1))
        assert dict(combo.terms) == {2: F(1, 24), 1: F(-1, 24)}

    def test_lam_18_9_scaled(self):
        combo = reduce_to_e2(LambertSpec("LAM", 18, 9))
        assert dict(combo.terms) == {18: F(1, 24), 9: F(-1, 24)}

    def test_unrecognized_returns_none(self):
        assert reduce_to_e2(LambertSpec("LAM", 3, 1)) is None
        assert reduce_to_e2(LambertSpec("LAM4", 2, 1)) is None
        assert reduce_to_e2(LambertSpec("DL3", 1)) is None

    @pytest.mark.parametrize("spec", REDUCIBLE, ids=str)
    def test_reduction_agrees_with_enumeration_to_50(self, spec):
        combo = reduce_to_e2(spec)
        assert combo is not None
        assert combo.expand(50).agrees_with(expand_lambert(spec, 50))


class TestModularCombo:
    def test_examples(self):
        assert is_modular_combo(E2Combo.make({1: -1, 9: 9}))
        assert not is_modular_combo(E2Combo.make({1: 1}))
        assert is_modular_combo(E2Combo.make({2: 1, 4: -2, 1: 0}))

    def test_invariant_under_merge(self):
        a = E2Combo.make({2: F(1, 2)}) + E2Combo.make({2: F(1, 2), 4: -2})
        b = E2Combo.make({2: 1, 4: -2})
        assert a.terms == b.terms
        assert is_modular_combo(a) == is_modular_combo(b)

    def test_scaled_preserves_modularity(self):
        c = E2Combo.make({1: -1, 9: 9})
        assert is_modular_combo(c.scaled(3))


class TestComboRules:
    """The former ``combo_rules`` cases, asked of the rule table."""

    def test_quartic_pair(self):
        partner, ratio, result, rule = pair_rule(LambertSpec("LAM4", 2, 1))
        assert rule == "lam4-pair-to-cube-sum"
        assert (partner, ratio, result) == (LambertSpec("LAM", 2, 1), 6, LambertSpec("DL3", 1))
        # oracle equivalence to 50 terms
        lhs = expand_lambert(LambertSpec("LAM4", 2, 1), 50) * 6 + expand_lambert(
            LambertSpec("LAM", 2, 1), 50
        )
        assert lhs.agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))

    def test_wrong_coefficient_not_matched(self):
        _, ratio, _, _ = pair_rule(LambertSpec("LAM4", 2, 1))
        assert ratio != 5
        lhs = expand_lambert(LambertSpec("LAM4", 2, 1), 50) * 5 + expand_lambert(
            LambertSpec("LAM", 2, 1), 50
        )
        assert not lhs.agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))

    def test_scaled_pair(self):
        partner, ratio, result, _ = pair_rule(LambertSpec("LAM4", 6, 3))
        assert (partner, ratio, result) == (LambertSpec("LAM", 6, 3), 6, LambertSpec("DL3", 3))
        lhs = expand_lambert(LambertSpec("LAM4", 6, 3), 60) * 6 + expand_lambert(
            LambertSpec("LAM", 6, 3), 60
        )
        assert lhs.agrees_with(expand_lambert(LambertSpec("DL3", 3), 60))

    def test_cube_sum_to_e4(self):
        combo, rule = reduce_atom(LambertSpec("DL3", 1))
        assert rule == "cube-sum-to-E4-difference"
        assert isinstance(combo, E4Combo)
        assert combo.expand(50).agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))


class TestPairRule:
    @pytest.mark.parametrize("seed", range(4))
    def test_holds_for_random_scale(self, seed):
        b = random.Random(seed).randint(1, 12)
        partner, ratio, result, _ = pair_rule(LambertSpec("LAM4", 2 * b, b))
        lhs = expand_lambert(LambertSpec("LAM4", 2 * b, b), 60) * ratio + expand_lambert(
            partner, 60
        )
        assert lhs.agrees_with(expand_lambert(result, 60))
        wrong = lhs + expand_lambert(LambertSpec("LAM4", 2 * b, b), 60)
        assert not wrong.agrees_with(expand_lambert(result, 60))

    @pytest.mark.parametrize(
        "spec",
        [LambertSpec("LAM4", 3, 1), LambertSpec("LAM4", 4, 1), LambertSpec("LAM", 2, 1),
         LambertSpec("DL3", 1), LambertSpec("E4", 2)],
        ids=str,
    )
    def test_unregistered_returns_none(self, spec):
        assert pair_rule(spec) is None


def _random_atoms(seed):
    rng = random.Random(seed)
    a, b, m = rng.randint(1, 9), rng.randint(1, 6), rng.randint(1, 6)
    return [
        LambertSpec("LAM", a, 0),
        LambertSpec("LAM", 2 * b, b),
        LambertSpec("SODD", m),
        LambertSpec("E2", m),
        LambertSpec("E4", m),
        LambertSpec("DL3", m),
    ]


class TestReduceAtom:
    @pytest.mark.parametrize("seed", range(5))
    def test_combination_expands_to_the_atom(self, seed):
        for spec in _random_atoms(seed):
            combo, _ = reduce_atom(spec)
            assert combo.expand(60).agrees_with(expand_lambert(spec, 60)), spec

    @pytest.mark.parametrize(
        "spec,citation",
        [
            (LambertSpec("DL3", 3), "cube-sum-to-E4-difference"),
            (LambertSpec("E4", 2), "E4(2) -> E4 combination"),
            (LambertSpec("E2", 5), "E2(5) -> E2 combination"),
            (LambertSpec("LAM", 4, 0), "lam(4,0) -> E2 combination"),
            (LambertSpec("LAM", 6, 3), "lam(6,3) -> E2 combination"),
            (LambertSpec("SODD", 1), "sodd() -> E2 combination"),
            (LambertSpec("SODD", 2), "sodd@2 -> E2 combination"),
        ],
        ids=str,
    )
    def test_citation(self, spec, citation):
        assert reduce_atom(spec)[1] == citation

    def test_e2_section_is_reduce_to_e2(self):
        for spec in REDUCIBLE:
            assert reduce_atom(spec)[0] == reduce_to_e2(spec)

    @pytest.mark.parametrize(
        "spec",
        [LambertSpec("LAM", 3, 1), LambertSpec("LAM4", 3, 1), LambertSpec("LAM4", 2, 1)],
        ids=str,
    )
    def test_unregistered_returns_none(self, spec):
        # LAM4(2,1) reduces only together with its pair partner.
        assert reduce_atom(spec) is None


class TestCombinations:
    def test_e4_describe(self):
        combo = E4Combo.make({1: F(1, 240), 2: F(-1, 240)})
        assert combo.describe() == "(1/240*E4(1z) + -1/240*E4(2z))"
        assert E2Combo.make({2: 1}, F(1, 24)).describe() == "(1/24 + 1*E2(2z))"

    def test_weights_never_equal(self):
        e2, e4 = E2Combo.make({1: 1, 2: -1}), E4Combo.make({1: 1, 2: -1})
        assert e2.terms == e4.terms
        assert e2 != e4 and len({e2, e4}) == 2
        assert not isinstance(e4, E2Combo) and not isinstance(e2, E4Combo)

    def test_scale_must_be_positive(self):
        for cls in (E2Combo, E4Combo):
            with pytest.raises(ValueError):
                cls.make({0: 1})

    def test_shared_arithmetic(self):
        e4 = E4Combo.make({1: F(1, 240), 2: F(-1, 240)})
        assert (e4 * 240).scaled(3) == E4Combo.make({3: 1, 6: -1})
        assert (e4 * 0).terms == ()
        e2 = 2 * E2Combo.make({1: -1}, F(1, 24))
        assert e2 == E2Combo.make({1: -2}, F(1, 12))
        assert e2.scaled(2).constant == F(1, 12) and e2.level == 1


class TestEisensteinAnchor:
    def test_pi_q4_equals_e4_difference(self):
        combo = E4Combo.make({1: F(1, 240), 2: F(-1, 240)})
        piq4 = pi_to_eta(PiMonomial.make({1: 4}), 2).expand(55)
        assert piq4.agrees_with(combo.expand(50), upto=50)
