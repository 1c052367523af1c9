import random
from fractions import Fraction as F

import pytest

from piq.etaq import PiMonomial, pi_to_eta
from piq.quasimod import (
    E2Combo,
    E4Combo,
    LambertSpec,
    e2_split_rule,
    expand_lambert,
    is_modular_combo,
    reduce_atom,
    sigma,
    split_rule,
)
from piq.series import ScaledSeries


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


def _parts_series(rule, spec, terms):
    """The sum of a rule's parts: atoms expanded by the oracle, combinations
    by their own expansion, and a None factor counted as 1."""
    parts, _ = rule(spec)

    def factor(f):
        if f is None:
            return ScaledSeries.one()
        return expand_lambert(f, terms) if isinstance(f, LambertSpec) else f.expand(terms)

    return ScaledSeries.linear_sum((a, factor(f)) for a, f in parts)


class TestReduce:
    def test_lam_1_0(self):
        parts, _ = reduce_atom(LambertSpec("LAM", 1, 0))
        assert parts == ((F(1, 24), None), (1, E2Combo.make({1: F(-1, 24)})))

    def test_lam_2_1(self):
        parts, _ = reduce_atom(LambertSpec("LAM", 2, 1))
        assert parts == ((1, E2Combo.make({2: F(1, 24), 1: F(-1, 24)})),)

    def test_lam_18_9_scaled(self):
        parts, _ = reduce_atom(LambertSpec("LAM", 18, 9))
        assert parts == ((1, E2Combo.make({18: F(1, 24), 9: F(-1, 24)})),)

    def test_unrecognized_returns_none(self):
        assert reduce_atom(LambertSpec("LAM", 3, 1)) is None
        assert reduce_atom(LambertSpec("LAM4", 2, 1)) is None
        # The cube sum reduces to E4 factors only.
        parts, _ = reduce_atom(LambertSpec("DL3", 1))
        assert all(isinstance(f, E4Combo) for _, f in parts)

    @pytest.mark.parametrize("spec", REDUCIBLE, ids=str)
    def test_reduction_agrees_with_enumeration_to_50(self, spec):
        assert _parts_series(reduce_atom, spec, 50).agrees_with(expand_lambert(spec, 50))


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


class TestE2Split:
    """E2(z) split off a combination that is not modular leaves a modular part."""

    @pytest.mark.parametrize("terms", [{1: 1}, {1: 3}, {2: 1}, {2: F(1, 24), 1: F(-1, 24)}, {1: 2, 3: 5, 4: -1}])
    def test_parts_sum_to_the_combination_and_the_rest_is_modular(self, terms):
        combo = E2Combo.make(terms)
        parts, cite = e2_split_rule(combo)
        s = sum((a / d for d, a in combo.terms), F(0))
        assert parts[0] == (s, E2Combo.make({1: 1}))
        assert all(is_modular_combo(f) for _, f in parts[1:])
        assert _parts_series(e2_split_rule, combo, 60).agrees_with(combo.expand(60))
        assert cite == "E2(z) split off every E2 combination with sum a_d/d != 0"

    def test_modular_combinations_and_other_factors_are_left(self):
        assert e2_split_rule(E2Combo.make({1: -1, 9: 9})) is None
        assert e2_split_rule(E4Combo.make({1: 1})) is None
        assert e2_split_rule(LambertSpec("LAM", 1, 0)) is None

class TestComboRules:
    """The former ``combo_rules`` cases, asked of the rule table."""

    def test_quartic_pair(self):
        parts, rule = split_rule(LambertSpec("LAM4", 2, 1))
        assert rule == "lam4-pair-to-cube-sum"
        assert parts == ((F(1, 6), LambertSpec("DL3", 1)), (F(-1, 6), LambertSpec("LAM", 2, 1)))
        # oracle equivalence to 50 terms: 6*LAM4 + LAM = DL3
        lhs = expand_lambert(LambertSpec("LAM4", 2, 1), 50) * 6 + expand_lambert(
            LambertSpec("LAM", 2, 1), 50
        )
        assert lhs.agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))
        assert _parts_series(split_rule, LambertSpec("LAM4", 2, 1), 50).agrees_with(
            expand_lambert(LambertSpec("LAM4", 2, 1), 50)
        )

    def test_wrong_coefficient_not_matched(self):
        parts, _ = split_rule(LambertSpec("LAM4", 2, 1))
        assert [a for a, _ in parts] == [F(1, 6), F(-1, 6)]
        lhs = expand_lambert(LambertSpec("LAM4", 2, 1), 50) * 5 + expand_lambert(
            LambertSpec("LAM", 2, 1), 50
        )
        assert not lhs.agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))
        wrong = _parts_series(split_rule, LambertSpec("LAM4", 2, 1), 50) * F(6, 5)
        assert not wrong.agrees_with(expand_lambert(LambertSpec("LAM4", 2, 1), 50))

    def test_scaled_pair(self):
        parts, _ = split_rule(LambertSpec("LAM4", 6, 3))
        assert parts == ((F(1, 6), LambertSpec("DL3", 3)), (F(-1, 6), LambertSpec("LAM", 6, 3)))
        lhs = expand_lambert(LambertSpec("LAM4", 6, 3), 60) * 6 + expand_lambert(
            LambertSpec("LAM", 6, 3), 60
        )
        assert lhs.agrees_with(expand_lambert(LambertSpec("DL3", 3), 60))
        assert _parts_series(split_rule, LambertSpec("LAM4", 6, 3), 60).agrees_with(
            expand_lambert(LambertSpec("LAM4", 6, 3), 60)
        )

    def test_cube_sum_to_e4(self):
        ((a, combo),), rule = reduce_atom(LambertSpec("DL3", 1))
        assert rule == "cube-sum-to-E4-difference"
        assert a == 1 and isinstance(combo, E4Combo)
        assert combo.expand(50).agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))


class TestPairRule:
    @pytest.mark.parametrize("seed", range(4))
    def test_holds_for_random_scale(self, seed):
        b = random.Random(seed).randint(1, 12)
        spec = LambertSpec("LAM4", 2 * b, b)
        parts, _ = split_rule(spec)
        assert [p for _, p in parts] == [LambertSpec("DL3", b), LambertSpec("LAM", 2 * b, b)]
        atom = expand_lambert(spec, 60)
        assert _parts_series(split_rule, spec, 60).agrees_with(atom)
        wrong = _parts_series(split_rule, spec, 60) + atom
        assert not wrong.agrees_with(atom)

    @pytest.mark.parametrize(
        "spec",
        [LambertSpec("LAM4", 3, 1), LambertSpec("LAM4", 4, 1), LambertSpec("LAM", 2, 1),
         LambertSpec("DL3", 1), LambertSpec("E4", 2)],
        ids=str,
    )
    def test_unregistered_returns_none(self, spec):
        assert split_rule(spec) is None


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
            assert _parts_series(reduce_atom, spec, 60).agrees_with(expand_lambert(spec, 60)), spec

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

    @pytest.mark.parametrize(
        "spec",
        [LambertSpec("LAM", 3, 1), LambertSpec("LAM4", 3, 1), LambertSpec("LAM4", 2, 1)],
        ids=str,
    )
    def test_unregistered_returns_none(self, spec):
        # LAM4(2,1) reduces only through the parts split_rule gives it.
        assert reduce_atom(spec) is None


RULE_KINDS = {
    "LAM(a,0)": lambda k: LambertSpec("LAM", k, 0),
    "LAM(2b,b)": lambda k: LambertSpec("LAM", 2 * k, k),
    "SODD": lambda k: LambertSpec("SODD", k),
    "DL3": lambda k: LambertSpec("DL3", k),
    "E2": lambda k: LambertSpec("E2", k),
    "E4": lambda k: LambertSpec("E4", k),
    "LAM4(2b,b)": lambda k: LambertSpec("LAM4", 2 * k, k),
}


class TestRuleTable:
    @pytest.mark.parametrize("kind", RULE_KINDS)
    def test_parts_sum_to_the_atom_to_200(self, kind):
        # Exactly one of the two rules is registered for each kind.
        for scale in range(1, 7):
            spec = RULE_KINDS[kind](scale)
            (rule,) = [r for r in (split_rule, reduce_atom) if r(spec)]
            got = _parts_series(rule, spec, 200)
            assert got.agrees_with(expand_lambert(spec, 200), upto=200), spec


class TestCombinations:
    def test_e4_describe(self):
        combo = E4Combo.make({1: F(1, 240), 2: F(-1, 240)})
        assert combo.describe() == "(1/240*E4(1z) + -1/240*E4(2z))"
        assert E2Combo.make({2: 1}).describe() == "(1*E2(2z))"

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
        e2 = 2 * E2Combo.make({1: -1})
        assert e2 == E2Combo.make({1: -2})
        assert e2 + E2Combo.make({1: 2, 3: 1}) == E2Combo.make({3: 1})
        assert e2.scaled(2).level == 2 and e2.level == 1


class TestEisensteinAnchor:
    def test_pi_q4_equals_e4_difference(self):
        combo = E4Combo.make({1: F(1, 240), 2: F(-1, 240)})
        piq4 = pi_to_eta(PiMonomial.make({1: 4}), 2).expand(55)
        assert piq4.agrees_with(combo.expand(50), upto=50)
