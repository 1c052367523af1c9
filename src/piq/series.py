"""Exact truncated power series in fractional powers of q.

The coefficient field is the rationals (``fractions.Fraction``).  A series
lives on an exponent lattice (1/D)*Z and records the coefficients it actually
knows together with an exact precision bound::

    sum_i c_i * q^((v+i)/D)  +  O(q^bound)

Every coefficient at an exponent strictly below the bound is known: stored
when it sits on the lattice inside the tracked window, zero otherwise.
Operations never fabricate knowledge; the bound of a result is the largest
one the operands justify, and asking for a coefficient at or beyond the
bound raises :class:`InsufficientPrecision`.  A bound of ``math.inf`` marks
an exact polynomial (constants, monomials, products of such).

Scales are reduced after every operation (the stored scale divides out the
gcd of all exponent numerators actually present), so equality testing is
representation independent.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    blim = bound * scale
    return (blim.numerator - 1) // blim.denominator


class ScaledSeries:
    """Immutable truncated series in q^(1/D) with exact rational coefficients."""

    __slots__ = ("_scale", "_offset", "_coeffs", "_bound")

    def __init__(self, scale, offset, coeffs, bound):
        """Build from raw window data; prefer the named constructors."""
        scale = int(scale)
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        bound = bound if bound == INF else _frac(bound)
        if bound != INF:
            # Drop any slot at or beyond the bound: it is not knowledge.
            cut = _top_numerator(bound, scale) - offset + 1
            if cut < len(coeffs):
                coeffs = coeffs[: max(cut, 0)]
        coeffs = [_frac(c) for c in coeffs]
        # Trim zero margins; the bound keeps the precision information.
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        coeffs = coeffs[lo:hi]
        offset += lo
        if not coeffs:
            self._scale, self._offset = 1, 0
            self._coeffs = ()
            self._bound = bound
            return
        g = scale
        for i, c in enumerate(coeffs):
            if c != 0:
                g = math.gcd(g, offset + i)
        if g > 1:
            new = {}
            for i, c in enumerate(coeffs):
                if c != 0:
                    new[(offset + i) // g] = c
            base = offset // g
            top = max(new)
            coeffs = [new.get(n, Fraction(0)) for n in range(base, top + 1)]
            scale //= g
            offset = base
        self._scale = scale
        self._offset = offset
        self._coeffs = tuple(coeffs)
        self._bound = bound

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Mapping[Exponent, object], bound) -> "ScaledSeries":
        """Series with the given exponent -> coefficient map and bound."""
        bound = bound if bound == INF else _frac(bound)
        clean = {}
        for e, c in terms.items():
            e = _frac(e)
            c = _frac(c)
            if c == 0 or (bound != INF and e >= bound):
                continue
            clean[e] = clean.get(e, Fraction(0)) + c
        if not clean:
            return cls(1, 0, (), bound)
        scale = math.lcm(*(e.denominator for e in clean))
        nums = {int(e * scale): c for e, c in clean.items()}
        lo, hi = min(nums), max(nums)
        coeffs = [nums.get(n, Fraction(0)) for n in range(lo, hi + 1)]
        return cls(scale, lo, coeffs, bound)

    @classmethod
    def constant(cls, c) -> "ScaledSeries":
        return cls.from_terms({Fraction(0): c}, INF)

    @classmethod
    def monomial(cls, exponent: Exponent, c=1) -> "ScaledSeries":
        return cls.from_terms({_frac(exponent): c}, INF)

    @classmethod
    def zero(cls, bound=INF) -> "ScaledSeries":
        return cls(1, 0, (), bound)

    @classmethod
    def one(cls) -> "ScaledSeries":
        return cls.constant(1)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def scale(self) -> int:
        return self._scale

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def bound(self):
        """Exact exponent b with the series known modulo O(q^b); inf if exact."""
        return self._bound

    def items(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                yield Fraction(self._offset + i, self._scale), c

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
        i = int(n) - self._offset
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def valuation(self):
        """Smallest exponent with nonzero known coefficient, or None if none tracked."""
        for e, _ in self.items():
            return e
        return None

    def leading_coefficient(self):
        for _, c in self.items():
            return c
        return None

    def is_zero(self, upto: Exponent | None = None) -> bool:
        """True when every known coefficient below ``upto`` (default: bound) is zero."""
        if upto is not None:
            upto = _frac(upto)
            if upto > self._bound:
                raise InsufficientPrecision(
                    f"zero test up to q^{upto} exceeds tracked bound O(q^{self._bound})"
                )
            return all(e >= upto for e, _ in self.items())
        return not self._coeffs

    def agrees_with(self, other: "ScaledSeries", upto: Exponent | None = None) -> bool:
        """Coefficientwise equality over the shared tracked range."""
        return (self - other).is_zero(upto)

    def __eq__(self, other):
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        return (
            self._bound == other._bound
            and self._scale == other._scale
            and self._offset == other._offset
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self._scale, self._offset, self._coeffs, self._bound))

    def __repr__(self):
        parts = [f"{c}*q^({e})" for e, c in list(self.items())[:8]]
        if len(self._coeffs) > 8:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self._bound == INF else f" + O(q^{self._bound})"
        return f"<ScaledSeries {body}{tail}>"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __neg__(self):
        return ScaledSeries(self._scale, self._offset, [-c for c in self._coeffs], self._bound)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledSeries.constant(other)
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        bound = min(self._bound, other._bound)
        scale = math.lcm(self._scale, other._scale)
        n_max = _top_numerator(bound, scale)
        acc: dict[int, Fraction] = {}
        for n, c in self._num_items(scale) + other._num_items(scale):
            if n_max is None or n <= n_max:
                acc[n] = acc[n] + c if n in acc else c
        return ScaledSeries._from_numerators(scale, acc, bound)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledSeries.constant(other)
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _num_items(self, scale: int) -> list[tuple[int, object]]:
        """Nonzero (numerator, coeff) pairs on the lattice of the given scale."""
        step = scale // self._scale
        return [
            ((self._offset + i) * step, c)
            for i, c in enumerate(self._coeffs)
            if c != 0
        ]

    @staticmethod
    def _from_numerators(scale: int, acc: dict, bound) -> "ScaledSeries":
        if not acc:
            return ScaledSeries(1, 0, (), bound)
        lo, hi = min(acc), max(acc)
        coeffs = [Fraction(0)] * (hi - lo + 1)
        for n, c in acc.items():
            coeffs[n - lo] = _frac(c)
        return ScaledSeries(scale, lo, coeffs, bound)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return ScaledSeries.zero()
            return ScaledSeries(
                self._scale, self._offset, [c * x for x in self._coeffs], self._bound
            )
        if not isinstance(other, ScaledSeries):
            return NotImplemented
        scale = math.lcm(self._scale, other._scale)
        a_items = self._num_items(scale)
        b_items = other._num_items(scale)
        # Effective valuation: smallest known exponent, falling back to the
        # bound when nothing nonzero is tracked (the series is O(q^bound)).
        va = Fraction(a_items[0][0], scale) if a_items else self._bound
        vb = Fraction(b_items[0][0], scale) if b_items else other._bound
        bound = min(va + other._bound, vb + self._bound)
        if not a_items or not b_items:
            return ScaledSeries.zero(bound)
        n_max = _top_numerator(bound, scale)
        # Integer fast path: exact coefficients are usually plain integers.
        if all(c.denominator == 1 for _, c in a_items) and all(
            c.denominator == 1 for _, c in b_items
        ):
            a_fast = [(n, c.numerator) for n, c in a_items]
            b_fast = [(n, c.numerator) for n, c in b_items]
        else:
            a_fast, b_fast = a_items, b_items
        acc: dict[int, object] = {}
        for na, ca in a_fast:
            for nb, cb in b_fast:
                n = na + nb
                if n_max is not None and n > n_max:
                    break  # b items sorted; later numerators only grow
                if n in acc:
                    acc[n] += ca * cb
                else:
                    acc[n] = ca * cb
        return ScaledSeries._from_numerators(scale, acc, bound)

    __rmul__ = __mul__

    def subst_power(self, j: int) -> "ScaledSeries":
        """Replace q by q^j: every exponent is multiplied by j."""
        j = int(j)
        if j < 1:
            raise ValueError("substitution exponent must be >= 1")
        bound = INF if self._bound == INF else self._bound * j
        return ScaledSeries.from_terms({e * j: c for e, c in self.items()}, bound)

    def pow(self, e, terms: int | None = None) -> "ScaledSeries":
        """Formal power self**e for a rational exponent.

        Fractional exponents take the branch whose leading coefficient is the
        rational real root of the input's leading coefficient.  For an exact
        (infinite-bound) base whose power is not a polynomial, ``terms`` sets
        the window of the truncated result.
        """
        e = _frac(e)
        items = list(self.items())
        if e == 0:
            if not items:
                raise NotInvertible("0^0 is undefined for a series with no known leading term")
            return ScaledSeries.one()
        if e.denominator == 1 and e > 0 and self._bound == INF:
            # Polynomial case: binary exponentiation, exact result.
            result = ScaledSeries.one()
            base = self
            n = int(e)
            while n:
                if n & 1:
                    result = result * base
                base = base * base if n > 1 else base
                n >>= 1
            return result
        if not items:
            if e < 0:
                raise NotInvertible(
                    "negative power of a series with zero leading coefficient within tracked precision"
                )
            # |f| = O(q^bound) implies |f^e| = O(q^(e*bound)).
            return ScaledSeries.zero(self._bound * e)
        x0, c0 = items[0]
        if e.denominator == 1:
            # Integer powers: binary exponentiation over the (fast) product;
            # negative powers invert the unit part by the standard recurrence.
            n = int(e)
            base = self
            if self._bound == INF:
                if terms is None:
                    raise InsufficientPrecision(
                        "power of an exact series is not a polynomial; pass terms= to truncate"
                    )
                base = self.truncated(x0 + Fraction(terms))
            if n < 0:
                base = base._unit_inverse()
                n = -n
            result = None
            acc = base
            while n:
                if n & 1:
                    result = acc if result is None else result * acc
                n >>= 1
                if n:
                    acc = acc * acc
            return result
        ell = e.denominator
        root = _rational_nth_root(c0, ell)
        if root is None:
            raise NonRootLeadingCoefficient(
                f"leading coefficient {c0} has no rational {ell}-th root"
            )
        lead = root ** e.numerator
        if self._bound == INF:
            if terms is None:
                raise InsufficientPrecision(
                    "power of an exact series is not a polynomial; pass terms= to truncate"
                )
            window = Fraction(terms)
        else:
            window = self._bound - x0
        # Binomial-series recurrence on (1+u)^e with u = self/(c0 q^x0) - 1:
        #   n*b_n = sum_{k=1..n} ((e+1)k - n) u_k b_{n-k},  b_0 = 1.
        rel = []
        for exp, c in items[1:]:
            num = (exp - x0) * self._scale
            rel.append((int(num), c / c0))
        if rel:
            g = 0
            for n, _ in rel:
                g = math.gcd(g, n)
            u = {n // g: c for n, c in rel}
        else:
            g, u = 1, {}
        slots_frac = window * self._scale / g
        K = math.ceil(slots_frac) if slots_frac != int(slots_frac) else int(slots_frac)
        b = [Fraction(0)] * max(K, 1)
        b[0] = Fraction(1)
        u_keys = sorted(u)
        for n in range(1, K):
            s = Fraction(0)
            for k in u_keys:
                if k > n:
                    break
                s += ((e + 1) * k - n) * u[k] * b[n - k]
            if s:
                b[n] = s / n
        out = {}
        for k, c in enumerate(b):
            if c != 0:
                out[x0 * e + Fraction(k * g, self._scale)] = lead * c
        return ScaledSeries.from_terms(out, x0 * e + window)

    def _unit_inverse(self) -> "ScaledSeries":
        """Multiplicative inverse, window-preserving; requires a finite bound."""
        items = list(self.items())
        if not items:
            raise NotInvertible("no nonzero leading coefficient within tracked precision")
        x0, c0 = items[0]
        if self._bound == INF:
            raise InsufficientPrecision("inverse of an exact series needs a truncation")
        window = self._bound - x0
        scale = self._scale
        rel = [(int((e - x0) * scale), c / c0) for e, c in items[1:]]
        g = 0
        for n, _ in rel:
            g = math.gcd(g, n)
        g = g or scale
        u = {n // g: c for n, c in rel}
        lim = window * scale / g
        K = math.ceil(lim) if lim != int(lim) else int(lim)
        K = max(K, 1)
        ints = all(c.denominator == 1 for c in u.values())
        if ints:
            u = {k: c.numerator for k, c in u.items()}
        u_keys = sorted(u)
        b: list = [0] * K
        b[0] = 1
        for n in range(1, K):
            s = 0
            for k in u_keys:
                if k > n:
                    break
                if b[n - k]:
                    s -= u[k] * b[n - k]
            b[n] = s
        inv_c0 = 1 / c0
        out = {}
        for k, c in enumerate(b):
            if c != 0:
                out[-x0 + Fraction(k * g, scale)] = inv_c0 * c
        return ScaledSeries.from_terms(out, -x0 + window)

    def sqrt(self, terms: int | None = None) -> "ScaledSeries":
        return self.pow(Fraction(1, 2), terms)

    def truncated(self, bound) -> "ScaledSeries":
        """Forget knowledge beyond the given exponent bound."""
        bound = min(self._bound, _frac(bound) if bound != INF else INF)
        return ScaledSeries.from_terms(dict(self.items()), bound)


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
