from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from piq.errors import InsufficientPrecision, NonRootLeadingCoefficient, NotInvertible
from piq.series import INF, ScaledSeries as S, eta_expansion, psi_expansion


def brute_psi_squared(terms):
    """Oracle: convolve the triangular-number indicator series with itself."""
    tri = [0] * terms
    n = 0
    while n * (n + 1) // 2 < terms:
        tri[n * (n + 1) // 2] = 1
        n += 1
    out = [0] * terms
    for i, a in enumerate(tri):
        if a:
            for j, b in enumerate(tri[: terms - i]):
                out[i + j] += a * b
    return out


def brute_eta_product(delta, terms):
    """Oracle: multiply the factors (1 - q^(delta n)) one at a time."""
    coeffs = [0] * terms
    coeffs[0] = 1
    n = 1
    while delta * n < terms:
        nxt = coeffs[:]
        for i in range(terms - delta * n):
            nxt[i + delta * n] -= coeffs[i]
        coeffs = nxt
        n += 1
    return coeffs


class TestAdd:
    def test_cancellation(self):
        a = S.from_terms({0: 1, 1: 1}, 10)
        b = S.from_terms({0: 1, 1: -1}, 10)
        assert list((a + b).items()) == [(F(0), F(2))]

    def test_scale_reconciliation(self):
        c = S.monomial(F(1, 4)) + S.monomial(F(1, 2))
        assert c.scale == 4
        assert c.offset == 1
        assert [e for e, _ in c.items()] == [F(1, 4), F(1, 2)]

    def test_additive_inverse_of_pi_head(self):
        head = S.from_terms({F(1, 4): 1, F(5, 4): 2}, 3)
        assert (head + (-head)).is_zero()

    def test_bound_is_min_of_operands(self):
        a = S.from_terms({0: 1}, 5)
        b = S.from_terms({0: 1}, 9)
        assert (a + b).bound == 5

    def test_mixed_thirds_and_halves(self):
        a = S.from_terms({F(1, 3): 2, F(4, 3): 1}, 4)
        b = S.from_terms({F(1, 2): -1, F(4, 3): 5}, 3)
        c = a + b
        assert (c.scale, c.bound) == (6, 3)
        assert list(c.items()) == [(F(1, 3), F(2)), (F(1, 2), F(-1)), (F(4, 3), F(6))]

    def test_full_cancellation_keeps_smaller_bound(self):
        a = S.from_terms({F(1, 4): 3, F(5, 4): F(1, 2)}, 7)
        b = S.from_terms({F(1, 4): -3, F(5, 4): F(-1, 2)}, F(9, 2))
        c = a + b
        assert c.is_zero() and c.bound == F(9, 2)
        assert (c.scale, c.offset, c.coeffs) == (1, 0, ())

    def test_terms_at_or_past_bound_dropped(self):
        exact = S.from_terms({0: 1, 3: 2, 5: 7, 40: 1}, INF)
        trunc = S.from_terms({F(1, 2): 1}, 3)
        c = exact + trunc
        assert c.bound == 3
        assert list(c.items()) == [(F(0), F(1)), (F(1, 2), F(1))]


class TestMul:
    def test_difference_of_squares(self):
        a = S.from_terms({0: 1, 1: 1}, 10)
        b = S.from_terms({0: 1, 1: -1}, 10)
        assert dict((a * b).items()) == {F(0): F(1), F(2): F(-1)}

    def test_psi_squared_matches_convolution_oracle(self):
        T = 30
        psi = psi_expansion(T)
        got = psi * psi
        want = brute_psi_squared(T)
        assert [got.coefficient(i) for i in range(T)] == want
        assert want[:6] == [1, 2, 1, 2, 2, 0]

    def test_offsets_add(self):
        x = S.monomial(F(1, 4)) * S.from_terms({0: 3, 1: 7}, 6)
        y = S.monomial(F(1, 4)) * S.from_terms({0: 2, 1: 5}, 6)
        prod = x * y
        assert prod.valuation() == F(1, 2)
        assert prod.coefficient(F(1, 2)) == 6

    def test_rational_coefficients(self):
        a = S.from_terms({0: F(1, 2), 1: F(1, 3)}, 8)
        assert (a * a).coefficient(1) == F(1, 3)


class TestPow:
    def test_perfect_square_root(self):
        s = S.from_terms({0: 1, 1: 2, 2: 1}, 9)
        assert dict(s.sqrt().items()) == {F(0): F(1), F(1): F(1)}

    def test_geometric_inverse(self):
        g = S.from_terms({0: 1, 1: -1}, 12).pow(-1)
        assert all(g.coefficient(i) == 1 for i in range(11))

    def test_fractional_root_roundtrip(self):
        # sqrt(q^(1/2) (4 + 4q)) squares back to the input.
        x = S.monomial(F(1, 2)) * S.from_terms({0: 4, 1: 4}, 10)
        r = x.sqrt()
        assert r.valuation() == F(1, 4)
        assert r.leading_coefficient() == 2
        assert r.coefficient(F(5, 4)) == 1
        assert r.coefficient(F(9, 4)) == F(-1, 4)
        assert (r * r).agrees_with(x)

    def test_non_square_leading_coefficient(self):
        with pytest.raises(NonRootLeadingCoefficient):
            S.from_terms({0: 3, 1: 1}, 5).sqrt()

    def test_negative_power_of_zero_series(self):
        with pytest.raises(NotInvertible):
            S.zero(6).pow(-1)

    def test_exact_polynomial_power(self):
        p = (S.from_terms({0: 1, 1: 1}, INF)).pow(3)
        assert p.bound == INF
        assert [p.coefficient(i) for i in range(4)] == [1, 3, 3, 1]

    def test_exact_inverse_needs_window(self):
        with pytest.raises(InsufficientPrecision):
            S.from_terms({0: 1, 1: -1}, INF).pow(-1)
        g = S.from_terms({0: 1, 1: -1}, INF).pow(-1, terms=6)
        assert [g.coefficient(i) for i in range(5)] == [1] * 5

    def test_large_negative_power(self):
        base = S.from_terms({0: 1, 1: 5, 2: -2}, 20)
        inv4 = base.pow(-4)
        assert (inv4 * base.pow(4)).agrees_with(S.one())


class TestSubstPower:
    def test_examples(self):
        s = (S.monomial(F(1, 4)) + S.monomial(1)).subst_power(2)
        assert dict(s.items()) == {F(1, 2): F(1), F(2): F(1)}
        t = S.from_terms({0: 1, 1: -1}, 8).subst_power(3)
        assert dict(t.items()) == {F(0): F(1), F(3): F(-1)}
        assert t.bound == 24

    def test_quarter_lattice_becomes_integral(self):
        pi_head = S.from_terms({F(1, 4): 1, F(5, 4): 2, F(9, 4): 1}, 3)
        out = pi_head.subst_power(4)
        assert all(e.denominator == 1 for e, _ in out.items())
        assert out.valuation() == 1


class TestEta:
    def test_pentagonal_signs_and_exponents(self):
        e = eta_expansion(1, 20)
        pent = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
        for g, sign in pent.items():
            assert e.coefficient(F(1, 24) + g) == sign

    def test_matches_bruteforce_product(self):
        for delta in (1, 2, 3):
            T = 25
            e = eta_expansion(delta, T)
            want = brute_eta_product(delta, delta * T)
            for i, c in enumerate(want):
                assert e.coefficient(F(delta, 24) + i) == c

    def test_delta_two_is_substitution_of_delta_one(self):
        assert eta_expansion(2, 15) == eta_expansion(1, 15).subst_power(2)

    def test_leading_term(self):
        for delta in (1, 2, 5, 24):
            e = eta_expansion(delta, 6)
            assert e.valuation() == F(delta, 24)
            assert e.leading_coefficient() == 1


class TestPsi:
    def test_triangular_support(self):
        psi = psi_expansion(12)
        assert [psi.coefficient(i) for i in range(7)] == [1, 1, 0, 1, 0, 0, 1]

    def test_pi_q_two_routes_agree(self):
        T = 40
        via_psi = S.monomial(F(1, 4)) * (psi_expansion(T) * psi_expansion(T))
        via_eta = eta_expansion(2, T).pow(4) * eta_expansion(1, T).pow(-2)
        assert via_psi.agrees_with(via_eta, upto=min(via_psi.bound, via_eta.bound))


class TestPrecision:
    def test_insufficient_precision_raises(self):
        s = S.from_terms({0: 1}, 4)
        assert s.coefficient(3) == 0
        with pytest.raises(InsufficientPrecision):
            s.coefficient(4)

    def test_mul_bound_uses_valuations(self):
        a = S.from_terms({2: 1}, 10)  # q^2 + O(q^10)
        b = S.from_terms({3: 1}, 7)  # q^3 + O(q^7)
        assert (a * b).bound == 9  # q^2 * O(q^7) dominates

    def test_is_zero_guard(self):
        z = S.zero(5)
        assert z.is_zero(upto=5)
        with pytest.raises(InsufficientPrecision):
            z.is_zero(upto=6)


class TestCanonicalForm:
    def test_scale_reduction(self):
        s = S.from_terms({F(2, 4): 1, F(6, 4): 2}, F(10, 4))
        assert s.scale == 2
        assert s == S.from_terms({F(1, 2): 1, F(3, 2): 2}, F(5, 2))

    def test_equality_is_representation_independent(self):
        a = S(4, 4, [1, 0, 0, 0, 1], 3)
        b = S(2, 2, [1, 0, 1], 3)
        c = S(1, 1, [1, 1], 3)
        assert a == b == c


@st.composite
def _series(draw):
    entries = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=8),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            max_size=4,
        )
    )
    return S.from_terms(entries, 12)


@given(_series(), _series(), _series())
@settings(max_examples=60, deadline=None)
def test_ring_axioms_on_samples(a, b, c):
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert (a * (b + c)).agrees_with(a * b + a * c)
    assert (a * b).agrees_with(b * a)


@st.composite
def _lattice_series(draw):
    scale = draw(st.sampled_from([1, 2, 3, 4, 6]))
    entries = draw(
        st.dictionaries(
            st.integers(min_value=-6, max_value=24).map(lambda n: F(n, scale)),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            max_size=6,
        )
    )
    bound = draw(st.sampled_from([INF, F(1, 2), F(7, 3), F(3), F(9, 2)]))
    return S.from_terms(entries, bound)


@given(_lattice_series(), _lattice_series())
@settings(max_examples=80, deadline=None)
def test_add_matches_from_terms_on_merged_dict(a, b):
    merged = dict(a.items())
    for e, c in b.items():
        merged[e] = merged.get(e, F(0)) + c
    want = S.from_terms(merged, min(a.bound, b.bound))
    got = a + b
    assert (got.scale, got.offset, got.coeffs, got.bound) == (
        want.scale, want.offset, want.coeffs, want.bound
    )


@given(_series(), _series(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_subst_power_is_multiplicative(a, b, j):
    lhs = (a * b).subst_power(j)
    rhs = a.subst_power(j) * b.subst_power(j)
    assert lhs.agrees_with(rhs)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-3, max_value=3),
        min_size=0,
        max_size=3,
    ),
    st.sampled_from([2, 3, -1, -2, F(1, 2)]),
)
@settings(max_examples=40, deadline=None)
def test_pow_roundtrip(entries, e):
    base = S.from_terms({0: 1, **entries}, 10)
    powered = base.pow(e)
    back = powered.pow(F(1) / F(e))
    assert back.agrees_with(base, upto=min(back.bound, base.bound))
