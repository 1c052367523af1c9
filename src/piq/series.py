"""Exact truncated power series in fractional powers of q.

A series lives on an exponent lattice (1/D)*Z and stores its nonzero
coefficients as integer numerators over one common denominator, together
with an exact precision bound::

    sum_n (nums[n] / den) * q^(n/D)  +  O(q^bound)

``nums`` is a sparse ``{lattice numerator: nonzero int}`` map in increasing
key order, the form the eta-quotient kernel produces, so an expansion that
is mostly zeros costs only its nonzero coefficients.  Every coefficient at
an exponent strictly below the bound is known: stored when nonzero, zero
otherwise.  Operations never fabricate knowledge; the bound of a result is
the largest one the operands justify, and asking for a coefficient at or
beyond the bound raises :class:`InsufficientPrecision`.  A bound of
``math.inf`` marks an exact polynomial (constants, monomials, products of
such).

The constructor divides D by the gcd of the numerators present and the
denominator by the gcd of the stored integers, so equality testing is
representation independent.  Sums of many series share one integer
accumulator (:meth:`ScaledSeries.linear_sum`), and every power that is not a
positive integer runs one recurrence (:meth:`ScaledSeries.pow`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .errors import InsufficientPrecision, NonRootLeadingCoefficient, NotInvertible

Exponent = Union[int, Fraction]

INF = math.inf


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _int_nth_root(n: int, ell: int):
    """Exact ell-th root of a nonnegative integer, or None if none exists."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or ell == 1:
        return n
    hi = 1 << (n.bit_length() // ell + 2)
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**ell <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo**ell == n else None


def _rational_nth_root(c: Fraction, ell: int):
    """Exact rational ell-th root of c with real sign convention, or None."""
    if ell == 1:
        return c
    if c < 0:
        if ell % 2 == 0:
            return None
        inner = _rational_nth_root(-c, ell)
        return None if inner is None else -inner
    num = _int_nth_root(c.numerator, ell)
    den = _int_nth_root(c.denominator, ell)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _top_numerator(bound, scale: int):
    """Largest n with n/scale below the bound, or None for an exact series."""
    if bound == INF:
        return None
    return (bound.numerator * scale - 1) // bound.denominator


class ScaledSeries:
    """Immutable truncated series in q^(1/D): integer numerators over one denominator."""

    __slots__ = ("_scale", "_nums", "_den", "_bound")

    def __init__(self, scale, nums: Mapping[int, int], bound, den=1):
        """The coefficient of q^(n/scale) is nums[n] / den, known below the bound.

        Zero entries and entries at or beyond the bound are dropped (they are
        not knowledge), and scale and den are reduced to canonical form.
        """
        scale, den = int(scale), int(den)
        if scale < 1 or den < 1:
            raise ValueError("scale and den must be positive integers")
        bound = bound if bound == INF else _frac(bound)
        top = _top_numerator(bound, scale)
        # The kernel's output is usually clean and sorted already: test in C first.
        if 0 in nums.values() or (top is not None and nums and max(nums) > top):
            nums = {n: x for n, x in nums.items() if x and (top is None or n <= top)}
        keys = sorted(nums)
        nums = {n: nums[n] for n in keys} if keys != list(nums) else dict(nums)
        if not nums:
            scale = den = 1
        else:
            g = math.gcd(scale, *nums) if scale > 1 else 1
            if g > 1:
                nums = {n // g: x for n, x in nums.items()}
                scale //= g
            g = math.gcd(den, *nums.values()) if den > 1 else 1
            if g > 1:
                nums = {n: x // g for n, x in nums.items()}
                den //= g
        self._scale = scale
        self._nums = nums
        self._den = den
        self._bound = bound

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Mapping[Exponent, object], bound) -> "ScaledSeries":
        """Series with the given exponent -> coefficient map and bound."""
        clean: dict[Fraction, Fraction] = {}
        for e, c in terms.items():
            e = _frac(e)
            clean[e] = clean.get(e, 0) + _frac(c)
        if not clean:
            return cls(1, {}, bound)
        scale = math.lcm(*(e.denominator for e in clean))
        den = math.lcm(*(c.denominator for c in clean.values()))
        nums = {
            e.numerator * (scale // e.denominator): c.numerator * (den // c.denominator)
            for e, c in clean.items()
        }
        return cls(scale, nums, bound, den)

    @classmethod
    def constant(cls, c) -> "ScaledSeries":
        return cls.from_terms({Fraction(0): c}, INF)

    @classmethod
    def monomial(cls, exponent: Exponent, c=1) -> "ScaledSeries":
        return cls.from_terms({_frac(exponent): c}, INF)

    @classmethod
    def zero(cls, bound=INF) -> "ScaledSeries":
        return cls(1, {}, bound)

    @classmethod
    def one(cls) -> "ScaledSeries":
        return cls.constant(1)

    @staticmethod
    def linear_sum(pairs) -> "ScaledSeries":
        """The sum of coef * series over (rational coef, series) pairs.

        Every part is added onto one integer accumulator on the lcm of the
        parts' lattices, over the lcm of their denominators, and cut at the
        smallest bound seen so far.  The pairs are consumed one at a time,
        so a generator of parts is never held in memory all at once.
        """
        scale, den, bound, acc = 1, 1, INF, {}
        for coef, s in pairs:
            if not coef:
                continue
            if scale % s._scale:
                grow = s._scale // math.gcd(scale, s._scale)
                acc = {n * grow: x for n, x in acc.items()}
                scale *= grow
            part_den = coef.denominator * s._den
            if den % part_den:
                grow = part_den // math.gcd(den, part_den)
                acc = {n: x * grow for n, x in acc.items()}
                den *= grow
            bound = min(bound, s._bound)
            top = _top_numerator(bound, scale)
            step = scale // s._scale
            mult = coef.numerator * (den // part_den)
            for n, x in s._nums.items():
                n *= step
                if top is not None and n > top:
                    break  # numerators come in increasing order
                acc[n] = acc.get(n, 0) + mult * x
        return ScaledSeries(scale, acc, bound, den)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def scale(self) -> int:
        return self._scale

    @property
    def nums(self) -> Mapping[int, int]:
        """Nonzero integer numerators keyed by lattice numerator, in increasing order."""
        return MappingProxyType(self._nums)

    @property
    def den(self) -> int:
        """The common denominator of every stored coefficient."""
        return self._den

    @property
    def bound(self):
        """Exact exponent b with the series known modulo O(q^b); inf if exact."""
        return self._bound

    def items(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        for n, x in self._nums.items():
            yield Fraction(n, self._scale), Fraction(x, self._den)

    def coefficient(self, exponent: Exponent) -> Fraction:
        """Exact coefficient at the exponent; raises beyond the tracked bound."""
        e = _frac(exponent)
        if e >= self._bound:
            raise InsufficientPrecision(
                f"coefficient of q^{e} requested but series is only known modulo O(q^{self._bound})"
            )
        n = e * self._scale
        if n.denominator != 1:
            return Fraction(0)
        return Fraction(self._nums.get(n.numerator, 0), self._den)

    def valuation(self):
        """Smallest exponent with nonzero known coefficient, or None if none tracked."""
        for n in self._nums:
            return Fraction(n, self._scale)
        return None

    def leading_coefficient(self):
        for x in self._nums.values():
            return Fraction(x, self._den)
        return None

    def is_zero(self, upto: Exponent | None = None) -> bool:
        """True when every known coefficient below ``upto`` (default: bound) is zero."""
        if upto is not None:
            upto = _frac(upto)
            if upto > self._bound:
                raise InsufficientPrecision(
                    f"zero test up to q^{upto} exceeds tracked bound O(q^{self._bound})"
                )
            v = self.valuation()
            return v is None or v >= upto
        return not self._nums

    def agrees_with(self, other: "ScaledSeries", upto: Exponent | None = None) -> bool:
        """Coefficientwise equality over the shared tracked range."""
        return (self - other).is_zero(upto)

    def __eq__(self, other):
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        return (
            self._bound == other._bound
            and self._scale == other._scale
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self._scale, self._den, tuple(self._nums.items()), self._bound))

    def __repr__(self):
        parts = [f"{c}*q^({e})" for e, c in list(self.items())[:8]]
        if len(self._nums) > 8:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self._bound == INF else f" + O(q^{self._bound})"
        return f"<ScaledSeries {body}{tail}>"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __neg__(self):
        return ScaledSeries(
            self._scale, {n: -x for n, x in self._nums.items()}, self._bound, self._den
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledSeries.constant(other)
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        return ScaledSeries.linear_sum(((1, self), (1, other)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledSeries.constant(other)
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        return ScaledSeries.linear_sum(((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ScaledSeries.zero()
            return ScaledSeries(
                self._scale,
                {n: x * other.numerator for n, x in self._nums.items()},
                self._bound,
                self._den * other.denominator,
            )
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        scale = math.lcm(self._scale, other._scale)
        sa, sb = scale // self._scale, scale // other._scale
        a_items = [(n * sa, x) for n, x in self._nums.items()]
        b_items = [(n * sb, x) for n, x in other._nums.items()]
        # Effective valuation: smallest known exponent, falling back to the
        # bound when nothing nonzero is tracked (the series is O(q^bound)).
        va = Fraction(a_items[0][0], scale) if a_items else self._bound
        vb = Fraction(b_items[0][0], scale) if b_items else other._bound
        bound = min(va + other._bound, vb + self._bound)
        if not a_items or not b_items:
            return ScaledSeries.zero(bound)
        n_max = _top_numerator(bound, scale)
        acc: dict[int, int] = {}
        for na, ca in a_items:
            for nb, cb in b_items:
                n = na + nb
                if n_max is not None and n > n_max:
                    break  # b items sorted; later numerators only grow
                if n in acc:
                    acc[n] += ca * cb
                else:
                    acc[n] = ca * cb
        return ScaledSeries(scale, acc, bound, self._den * other._den)

    __rmul__ = __mul__

    def subst_power(self, j: int) -> "ScaledSeries":
        """Replace q by q^j: every exponent is multiplied by j."""
        j = int(j)
        if j < 1:
            raise ValueError("substitution exponent must be >= 1")
        bound = INF if self._bound == INF else self._bound * j
        return ScaledSeries(
            self._scale, {n * j: x for n, x in self._nums.items()}, bound, self._den
        )

    def pow(self, e, terms: int | None = None) -> "ScaledSeries":
        """Formal power self**e for a rational exponent.

        A positive integer is binary exponentiation over the product; every
        other exponent, inverses and roots included, runs one binomial-series
        recurrence.  Fractional exponents take the branch whose leading
        coefficient is the rational real root of the input's.  For an exact
        (infinite-bound) base whose power is not a polynomial, ``terms`` sets
        the window of the truncated result.
        """
        e = _frac(e)
        if e == 0:
            if not self._nums:
                raise NotInvertible("0^0 is undefined for a series with no known leading term")
            return ScaledSeries.one()
        if e.denominator == 1 and e > 0:
            result, acc, n = None, self, int(e)
            while n:
                if n & 1:
                    result = acc if result is None else result * acc
                n >>= 1
                if n:
                    acc = acc * acc
            return result
        if not self._nums:
            if e < 0:
                raise NotInvertible(
                    "negative power of a series with zero leading coefficient within tracked precision"
                )
            # |f| = O(q^bound) implies |f^e| = O(q^(e*bound)).
            return ScaledSeries.zero(self._bound * e)
        x0, c0, g, u = self._unit_part()
        p, ell = e.numerator, e.denominator
        root = _rational_nth_root(c0, ell)
        if root is None:
            raise NonRootLeadingCoefficient(
                f"leading coefficient {c0} has no rational {ell}-th root"
            )
        if self._bound == INF:
            if terms is None:
                raise InsufficientPrecision(
                    "power of an exact series is not a polynomial; pass terms= to truncate"
                )
            window = Fraction(terms)
        else:
            window = self._bound - x0
        # Binomial-series recurrence on (1+u)^e with u = self/(c0 q^x0) - 1
        # and e = p/ell (J.C.P. Miller; Knuth, TAOCP vol. 2, 4.7):
        #   n*ell*b_n = sum_{k=1..n} ((p+ell)k - n*ell) u_k b_{n-k},  b_0 = 1.
        # An integer e over integral u_k keeps every b_n integral, so the
        # division is exact on ints; anything else runs on Fractions.
        integral = ell == 1 and all(c.denominator == 1 for c in u.values())
        steps = [(k, (p + ell) * k, c.numerator if integral else c) for k, c in u.items()]
        K = max(math.ceil(window * self._scale / g), 1)
        b = [1] + [0] * (K - 1)
        for n in range(1, K):
            s, m = 0, n * ell
            for k, pk, uk in steps:
                if k > n:
                    break
                if b[n - k]:
                    s += (pk - m) * uk * b[n - k]
            if s:
                b[n] = s // m if integral else s / m
        lead = root**p
        out = {}
        for k, c in enumerate(b):
            if c:
                out[x0 * e + Fraction(k * g, self._scale)] = lead * c
        return ScaledSeries.from_terms(out, x0 * e + window)

    def _unit_part(self):
        """(x0, c0, g, u) with self = c0 q^x0 (1 + sum_k u[k] q^(k*g/scale)).

        g is the gcd of the steps from the leading numerator, and u holds the
        rational ratios to the leading coefficient in increasing k >= 1.
        """
        (n0, a0), *rest = self._nums.items()
        g = math.gcd(*(n - n0 for n, _ in rest)) or self._scale
        u = {(n - n0) // g: Fraction(x, a0) for n, x in rest}
        return Fraction(n0, self._scale), Fraction(a0, self._den), g, u


def psi_expansion(terms: int) -> ScaledSeries:
    """Ramanujan theta psi(q) = sum q^(n(n+1)/2), known modulo O(q^terms)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    acc = {}
    n = 0
    while n * (n + 1) // 2 < terms:
        acc[n * (n + 1) // 2] = 1
        n += 1
    return ScaledSeries.from_terms(acc, terms)


def eta_expansion(delta: int, terms: int) -> ScaledSeries:
    """Expansion of eta(delta*z): q^(delta/24) times the pentagonal-number series.

    The product part prod(1 - q^(delta*n)) is generated sparsely from the
    pentagonal-number theorem, never by multiplying the factors one by one.
    The result is known modulo O(q^(delta/24 + delta*terms)).
    """
    delta = int(delta)
    if delta < 1 or terms < 1:
        raise ValueError("delta and terms must be >= 1")
    pent = {0: 1}
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= terms and g2 >= terms:
            break
        sign = -1 if k % 2 else 1
        if g1 < terms:
            pent[g1] = sign
        if g2 < terms:
            pent[g2] = sign
        k += 1
    pref = Fraction(delta, 24)
    return ScaledSeries.from_terms(
        {pref + delta * g: c for g, c in pent.items()}, pref + delta * terms
    )


def to_bound(expand, min_bound) -> ScaledSeries:
    """expand(b), asked again with larger b until its bound reaches min_bound.

    A result that falls short of min_bound raises the request by the
    shortfall plus 2, and by at least 4.  Negative valuations inside
    products, and the half valuation a square root loses, cost the same
    amount at every request, so the bound grows with it and the loop ends.
    """
    min_bound = _frac(min_bound)
    b = min_bound
    while True:
        s = expand(b)
        if s.bound == INF or s.bound >= min_bound:
            return s
        b += max(4, math.ceil(min_bound - s.bound) + 2)
