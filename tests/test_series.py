import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from piq.errors import InsufficientPrecision, NonRootLeadingCoefficient, NotInvertible, PiqError
from piq.etaq import PiMonomial
from piq.series import INF, ScaledSeries as S

from oracles import eta_expansion, psi_expansion


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
        assert min(c.nums) == 1
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
        assert (c.scale, c.den, c.nums) == (1, 1, {})

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
        assert dict(s.pow(F(1, 2)).items()) == {F(0): F(1), F(1): F(1)}

    def test_geometric_inverse(self):
        g = S.from_terms({0: 1, 1: -1}, 12).pow(-1)
        assert all(g.coefficient(i) == 1 for i in range(11))

    def test_fractional_root_roundtrip(self):
        # sqrt(q^(1/2) (4 + 4q)) squares back to the input.
        x = S.monomial(F(1, 2)) * S.from_terms({0: 4, 1: 4}, 10)
        r = x.pow(F(1, 2))
        assert r.valuation() == F(1, 4)
        assert r.leading_coefficient() == 2
        assert r.coefficient(F(5, 4)) == 1
        assert r.coefficient(F(9, 4)) == F(-1, 4)
        assert (r * r).agrees_with(x)

    def test_non_square_leading_coefficient(self):
        with pytest.raises(NonRootLeadingCoefficient):
            S.from_terms({0: 3, 1: 1}, 5).pow(F(1, 2))

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
        a = S(4, {4: 1, 5: 0, 6: 0, 7: 0, 8: 1}, 3)
        b = S(2, {2: 1, 3: 0, 4: 1}, 3)
        c = S(1, {1: 1, 2: 1}, 3)
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
    assert (got.scale, got.den, tuple(got.nums.items()), got.bound) == (
        want.scale, want.den, tuple(want.nums.items()), want.bound
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


# ---------------------------------------------------------------------------
# The integer storage against a {Fraction exponent: Fraction} reference
# ---------------------------------------------------------------------------


@st.composite
def _raw_series(draw):
    """(series, reference dict, bound) built through the raw constructor.

    The lattice, the denominator and the bound are drawn independently, the
    numerators may share factors with both, and zero entries are allowed.
    """
    scale = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 24]))
    den = draw(st.sampled_from([1, 2, 3, 5, 6, 24]))
    nums = draw(
        st.dictionaries(
            st.integers(min_value=-12, max_value=72),
            st.integers(min_value=-6, max_value=6),
            max_size=7,
        )
    )
    bound = draw(st.sampled_from([INF, F(1, 2), F(7, 3), F(4), F(25, 6)]))
    ref = {
        F(n, scale): F(x, den) for n, x in nums.items() if x and F(n, scale) < bound
    }
    return S(scale, nums, bound, den), ref, bound


def _assert_matches(got, ref, bound):
    """got holds exactly ref (zeros dropped, cut at bound), in canonical form."""
    want = {e: c for e, c in ref.items() if c and e < bound}
    assert dict(got.items()) == want
    assert got.bound == bound
    keys = list(got.nums)
    assert keys == sorted(keys)
    assert all(isinstance(x, int) and x for x in got.nums.values())
    assert math.gcd(got.den, *got.nums.values()) == 1
    assert math.gcd(got.scale, *keys) == 1
    if not keys:
        assert (got.scale, got.den) == (1, 1)
    rebuilt = S.from_terms(want, bound)
    assert got == rebuilt and hash(got) == hash(rebuilt)


def _ref_valuation(ref, bound):
    return min(ref) if ref else bound


@given(_raw_series())
@settings(max_examples=120, deadline=None)
def test_raw_constructor_is_canonical(a):
    _assert_matches(*a)


@given(_raw_series(), _raw_series())
@settings(max_examples=120, deadline=None)
def test_mul_matches_reference(a, b):
    (sa, ra, ba), (sb, rb, bb) = a, b
    bound = min(_ref_valuation(ra, ba) + bb, _ref_valuation(rb, bb) + ba)
    want: dict = {}
    for ea, ca in ra.items():
        for eb, cb in rb.items():
            want[ea + eb] = want.get(ea + eb, F(0)) + ca * cb
    _assert_matches(sa * sb, want, bound)


@given(_raw_series(), st.fractions(min_value=-6, max_value=6, max_denominator=9))
@settings(max_examples=120, deadline=None)
def test_scalar_mul_and_neg_match_reference(a, c):
    s, ref, bound = a
    if c == 0:
        _assert_matches(s * c, {}, INF)
    else:
        _assert_matches(s * c, {e: c * x for e, x in ref.items()}, bound)
        _assert_matches(c * s, {e: c * x for e, x in ref.items()}, bound)
    _assert_matches(-s, {e: -x for e, x in ref.items()}, bound)


@given(_raw_series(), st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_subst_power_matches_reference(a, j):
    s, ref, bound = a
    _assert_matches(s.subst_power(j), {e * j: x for e, x in ref.items()}, bound * j)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=8), _raw_series()
        ),
        max_size=5,
    )
)
@settings(max_examples=120, deadline=None)
def test_linear_sum_matches_reference(parts):
    want: dict = {}
    bound = INF
    for c, (_, ref, b) in parts:
        if c:
            bound = min(bound, b)
            for e, x in ref.items():
                want[e] = want.get(e, F(0)) + c * x
    consumed = []

    def pairs():
        for c, (s, _, _) in parts:
            consumed.append(c)
            yield c, s

    _assert_matches(S.linear_sum(pairs()), want, bound)
    assert len(consumed) == len(parts)


def test_sparse_storage_of_a_substituted_pi():
    from piq.etaq import PiMonomial, _expansion

    s = _expansion(PiMonomial.make({2000: 1}).halves, 8)
    assert len(s.nums) == 7
    assert (s.scale, s.den, s.valuation()) == (1, 1, 500)


# ---------------------------------------------------------------------------
# Negative integer powers against the truncate-invert-power algorithm
# ---------------------------------------------------------------------------


def _reference_negative_power(s, n, terms=None):
    """s**(-n) the long way: truncate an exact base at valuation + terms,
    invert its unit part by the geometric recurrence (on ints when every
    ratio to the leading coefficient is integral), then binary powering."""
    if s.bound == INF:
        s = S(s.scale, s.nums, s.valuation() + terms, s.den)
    (n0, a0), *rest = s.nums.items()
    g = math.gcd(*(m - n0 for m, _ in rest)) or s.scale
    u = {(m - n0) // g: F(x, a0) for m, x in rest}
    if all(c.denominator == 1 for c in u.values()):
        u = {k: c.numerator for k, c in u.items()}
    x0, c0 = F(n0, s.scale), F(a0, s.den)
    window = s.bound - x0
    b = [0] * max(math.ceil(window * s.scale / g), 1)
    b[0] = 1
    for i in range(1, len(b)):
        b[i] = -sum(uk * b[i - k] for k, uk in u.items() if k <= i)
    inv = S.from_terms(
        {-x0 + F(k * g, s.scale): c / c0 for k, c in enumerate(b) if c}, -x0 + window
    )
    result, acc = None, inv
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return result


def _random_base(rng, integral):
    """A series with 1-8 terms on a lattice 1/scale, scale in 1..24, with a
    possibly negative valuation, a step gcd that may exceed 1, and unit
    ratios that are integral or not as asked."""
    scale = rng.randint(1, 24)
    den = rng.choice([1, 2, 3, 5, 6, 24])
    step = rng.choice([1, 1, 2, 3, 5])
    n0 = rng.randint(-30, 30)
    a0 = rng.choice([1, -1, 2, -3, 4] if integral else [2, 3, -5, 7, 12])
    nums = {n0: a0}
    for _ in range(rng.randint(0, 7)):
        x = rng.randint(-9, 9)
        nums[n0 + step * rng.randint(1, 12)] = a0 * x if integral else x
    if rng.random() < 0.3:
        bound = INF
    else:
        bound = F(n0, scale) + F(rng.randint(1, 24), rng.choice([1, 2, 3, scale]))
    return S(scale, nums, bound, den)


@pytest.mark.parametrize("integral", [True, False], ids=["integral-ratios", "rational-ratios"])
def test_negative_power_matches_truncate_invert_power(integral):
    rng = random.Random(20211 + integral)
    seen = set()
    for _ in range(200):
        s = _random_base(rng, integral)
        n = rng.randint(1, 6)
        terms = rng.randint(1, 14) if s.bound == INF else None
        got, want = s.pow(-n, terms=terms), _reference_negative_power(s, n, terms)
        assert (got.scale, got.den, tuple(got.nums.items()), got.bound) == (
            want.scale, want.den, tuple(want.nums.items()), want.bound
        ), (s, n, terms)
        seen.add((s.bound == INF, s.valuation() < 0, got.den > 1))
    assert len(seen) == 8  # every (exact, negative valuation, fractional) mix ran


def _exact_root(c, ell):
    """The real rational ell-th root of a small Fraction c, or None."""
    if c < 0 and ell % 2 == 0:
        return None
    parts = [round(x ** (1 / ell)) for x in (abs(c.numerator), c.denominator)]
    if parts[0] ** ell != abs(c.numerator) or parts[1] ** ell != c.denominator:
        return None
    return (1 if c > 0 else -1) * F(*parts)


def _reference_pow(s, e, terms=None):
    """s**e for an exponent that is not a positive integer, by the
    binomial-series recurrence on Fractions (J.C.P. Miller):
    n*ell*b_n = sum_k ((p+ell)k - n*ell) u_k b_{n-k} for e = p/ell, with
    u_k the ratios to the leading coefficient, each b_n a reduced Fraction."""
    if not s.nums:
        if e < 0:
            raise NotInvertible(
                "negative power of a series with zero leading coefficient within tracked precision"
            )
        return S.zero(s.bound * e)
    (n0, a0), *rest = s.nums.items()
    p, ell = e.numerator, e.denominator
    c0, x0 = F(a0, s.den), F(n0, s.scale)
    root = _exact_root(c0, ell)
    if root is None:
        raise NonRootLeadingCoefficient(f"leading coefficient {c0} has no rational {ell}-th root")
    if s.bound == INF and terms is None:
        raise InsufficientPrecision(
            "power of an exact series is not a polynomial; pass terms= to truncate"
        )
    window = F(terms) if s.bound == INF else s.bound - x0
    g = math.gcd(*(n - n0 for n, _ in rest)) or s.scale
    u = {(n - n0) // g: F(x, a0) for n, x in rest}
    b = [F(1)] + [F(0)] * (max(math.ceil(window * s.scale / g), 1) - 1)
    for n in range(1, len(b)):
        b[n] = sum(
            (((p + ell) * k - n * ell) * uk * b[n - k] for k, uk in u.items() if k <= n), F(0)
        ) / (n * ell)
    out = {x0 * e + F(k * g, s.scale): root**p * c for k, c in enumerate(b) if c}
    return S.from_terms(out, x0 * e + window)


def _outcome(power, *args):
    try:
        r = power(*args)
    except (PiqError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return r.scale, r.den, tuple(r.nums.items()), r.bound


def test_power_matches_fraction_recurrence():
    """pow's integer recurrence gives the Fraction recurrence's series, or
    its error, byte for byte: roots of every order up to 4, leading
    numerators that are and are not perfect powers, ratios that share a
    factor with them, step gcds above 1, negative valuations, zero bases,
    and exact bases cut by terms."""
    rng = random.Random(19)
    seen = set()
    for _ in range(400):
        ell = rng.randint(1, 4)
        p = rng.choice([-3, -2, -1, 1, 3, 5]) if ell > 1 else rng.randint(-4, -1)
        if math.gcd(p, ell) > 1:
            p += 1 if p > 0 else -1
        e = F(p, ell)
        scale = rng.randint(1, 12)
        step = rng.choice([1, 2, 3])
        n0 = rng.randint(-15, 15)
        a0 = rng.choice([1, -1, 4, -8, 9, 27, 81, 2])
        den = rng.choice([1, 2, 4, 8, 9, 16, 27])
        if rng.random() < 0.6:  # mostly a leading coefficient with the root
            a0 = rng.choice([x for x in (1, -1, 4, -8, 9, 27, 81) if _exact_root(F(x), ell)])
            den = rng.randint(1, 3) ** ell
        nums = {} if rng.random() < 0.03 else {n0: a0}
        for _ in range(rng.randint(0, 6) if nums else 0):
            nums[n0 + step * rng.randint(1, 8)] = rng.randint(-9, 9)
        if nums and rng.random() < 0.3:  # a content shared with a0
            f = rng.choice([a0, 2, 3])
            nums = {n: x if n == n0 else f * x for n, x in nums.items()}
        if rng.random() < 0.3:
            bound, terms = INF, rng.choice([None, rng.randint(1, 12)])
        else:
            bound, terms = F(n0, scale) + F(rng.randint(1, 16), rng.choice([1, 2, 3])), None
        s = S(scale, nums, bound, den)
        got = _outcome(s.pow, e, terms)
        assert got == _outcome(_reference_pow, s, e, terms), (s, e, terms)
        v = s.valuation()
        seen.add((ell, got[0] if isinstance(got[0], type) else "ok"))
        seen.add(("exact" if s.bound == INF else "bounded", v is not None and v < 0))
        seen.add(("den > 1", len(got) == 4 and got[1] > 1))
    assert {(ell, "ok") for ell in range(1, 5)} <= seen
    assert {NonRootLeadingCoefficient, InsufficientPrecision, NotInvertible} <= {k[1] for k in seen}
    assert {("exact", True), ("bounded", True), ("den > 1", True)} <= seen


def test_square_root_of_a_pi_sum_at_four_hundred_steps():
    """sqrt(Pi_q + Pi_{q^2}) = q^(1/8)(1 + ...) in steps of q^(1/4): 400 and
    more steps of the recurrence, squared back onto the base."""
    base = PiMonomial.make({1: 1}).expand_to(F(101)) + PiMonomial.make({2: 1}).expand_to(F(101))
    r = base.pow(F(1, 2))
    assert r.valuation() == F(1, 8) and r.leading_coefficient() == 1
    assert (r.bound - r.valuation()) * 4 >= 400
    assert (r * r).bound == base.bound and (r * r).agrees_with(base)


def test_power_errors_keep_their_messages():
    with pytest.raises(NotInvertible, match="^negative power of a series with zero leading"):
        S.zero(6).pow(-2)
    with pytest.raises(NotInvertible, match="^negative power of a series with zero leading"):
        S.zero(6).pow(F(-1, 2))
    with pytest.raises(NotInvertible, match=r"^0\^0 is undefined"):
        S.zero(6).pow(0)
    with pytest.raises(InsufficientPrecision, match="^power of an exact series is not a polynomial"):
        S.from_terms({0: 2, 1: 1}, INF).pow(-3)
    with pytest.raises(InsufficientPrecision, match="^power of an exact series is not a polynomial"):
        S.from_terms({0: 4, 1: 1}, INF).pow(F(1, 2))
    with pytest.raises(NonRootLeadingCoefficient, match="^leading coefficient 3 has no rational 2-th root$"):
        S.from_terms({0: 3, 1: 1}, 5).pow(F(-3, 2))
