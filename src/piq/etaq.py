"""Eta quotients and Pi-monomials as symbolic objects.

An eta quotient is a finite product prod_{delta | N} eta(delta*z)^r_delta.
A Pi-monomial is a product of Gosper constants Pi_{q^n} with half-integer
exponents; it converts to an eta quotient through
Pi_{q^n} = eta(2nz)^4 / eta(nz)^2.

The module evaluates the classical modularity conditions (the two mod-24
congruences), enumerates canonical cusp representatives of Gamma_0(N), and
computes exact rational vanishing orders at cusps, both from the eta-quotient
side and directly from Pi-exponent data.  ``EtaQuotient.expand`` is the one
expansion kernel.  ``PiMonomial.expand_to`` is the one route from a Pi
monomial to its series: it turns an exponent bound into kernel steps and
reaches the kernel through the memo ``_expansion``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import LevelMismatch, PreconditionViolated
from .series import ScaledSeries, _frac


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def index_gamma0(level: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z): N * prod_{p | N} (1 + 1/p)."""
    if level < 1:
        raise ValueError("level must be positive")
    num, den = level, 1
    m, p = level, 2
    while p * p <= m:
        if m % p == 0:
            num *= p + 1
            den *= p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        num *= m + 1
        den *= m
    assert num % den == 0
    return num // den


def _squarefree_kernel(n: int) -> int:
    """Sign times the product of primes dividing n to an odd power."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    kernel = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                kernel *= p
        p += 1
    return sign * kernel * n


@dataclass(frozen=True)
class EtaQuotient:
    """Finite exponent map delta -> r_delta over divisors of the level."""

    level: int
    exponents: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, level: int, exponents: Mapping[int, int]) -> "EtaQuotient":
        if level < 1:
            raise ValueError("level must be positive")
        clean = {}
        for delta, r in exponents.items():
            if r == 0:
                continue
            if level % delta != 0:
                raise LevelMismatch(f"eta scale {delta} does not divide level {level}")
            clean[int(delta)] = int(r)
        return cls(level, tuple(sorted(clean.items())))

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.exponents), 2)

    def expand(self, terms: int) -> ScaledSeries:
        """q-expansion of prod eta(delta*z)^r_delta, known modulo O(q^(v + min(delta)*terms)).

        The coefficient of q^(n/scale) is an integer, and v = sum r_delta
        delta / 24 is the valuation.  The product part
        prod (q^delta; q^delta)_oo^r_delta is a power series in Q = q^g with
        g = gcd(delta); its coefficients obey the log-derivative recurrence
        (Knuth, TAOCP vol. 2, 4.7)

            n a_n = -sum_{k=1..n} c_k a_{n-k},
            c_k = sum_{delta' | k} r_delta delta' sigma(k/delta'),

        over delta' = delta/g, in integer arithmetic with exact division.
        """
        if terms < 1:
            raise ValueError("terms must be >= 1")
        if not self.exponents:
            return ScaledSeries.one()
        deltas = [delta for delta, _ in self.exponents]
        g = math.gcd(*deltas)
        window = min(deltas) * terms
        steps = window // g
        sigma = [0] * steps
        for m in range(1, steps):
            for k in range(m, steps, m):
                sigma[k] += m
        c = [0] * steps
        for delta, r in self.exponents:
            d = delta // g
            for m in range(1, (steps - 1) // d + 1):
                c[m * d] += r * d * sigma[m]
        a = [0] * steps
        a[0] = 1
        for n in range(1, steps):
            q, rem = divmod(-sum(map(operator.mul, c[1 : n + 1], a[n - 1 :: -1])), n)
            if rem:
                raise ArithmeticError(f"eta-product recurrence left a remainder at n={n}")
            a[n] = q
        v = Fraction(sum(r * delta for delta, r in self.exponents), 24)
        step = g * v.denominator
        nums = {v.numerator + step * n: x for n, x in enumerate(a) if x}
        return ScaledSeries(v.denominator, nums, v + window)


@dataclass(frozen=True, repr=False)
class PiMonomial:
    """Exponent vector n -> k with k a nonzero half-integer.

    Stored as sorted (n, 2k) integer pairs, so products, substitutions,
    equality and hashing work on integers; ``exponents`` is the (n, k)
    Fraction view that certificates and the DSL print.
    """

    halves: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, exponents: Mapping[int, object]) -> "PiMonomial":
        clean = {}
        for n, k in exponents.items():
            k = _frac(k)
            if k == 0:
                continue
            if n < 1:
                raise ValueError("Pi index must be a positive integer")
            if (2 * k).denominator != 1:
                raise ValueError(f"Pi exponent {k} is not a half-integer")
            clean[int(n)] = int(2 * k)
        return cls(tuple(sorted(clean.items())))

    @classmethod
    def one(cls) -> "PiMonomial":
        return cls(())

    @property
    def exponents(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((n, Fraction(h, 2)) for n, h in self.halves)

    def __repr__(self) -> str:
        return f"PiMonomial(exponents={self.exponents!r})"

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(h for _, h in self.halves), 2)

    @property
    def exponent_weighted_sum(self) -> Fraction:
        """Sum k_i * n_i, the q^(1/4)-prefactor bookkeeping quantity."""
        return Fraction(sum(n * h for n, h in self.halves), 2)

    @property
    def valuation(self) -> Fraction:
        """Leading q-exponent: sum k_i n_i / 4."""
        return Fraction(sum(n * h for n, h in self.halves), 8)

    @property
    def character_disc(self) -> int:
        """Discriminant of the eta quotient's quadratic character, from integers alone.

        The squarefree kernel of (-1)^k prod n over the indices with odd 2k_n,
        k the weight; equal to ``modularity_facts(pi_to_eta(self, N)).character_disc``
        at any level N the monomial lives on.
        """
        signed = math.prod(n for n, h in self.halves if h % 2)
        if sum(h for _, h in self.halves) % 4 == 2:  # odd integral weight
            signed = -signed
        return _squarefree_kernel(signed)

    def indices(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.halves)

    def __mul__(self, other: "PiMonomial") -> "PiMonomial":
        # Sums of half-integers are half-integers: nothing to re-validate.
        if not other.halves:
            return self
        if not self.halves:
            return other
        acc = dict(self.halves)
        for n, h in other.halves:
            acc[n] = acc.get(n, 0) + h
        return PiMonomial(tuple(sorted(item for item in acc.items() if item[1])))

    def __pow__(self, e) -> "PiMonomial":
        e = _frac(e)
        return PiMonomial.make({n: Fraction(h, 2) * e for n, h in self.halves})

    def subst(self, j: int) -> "PiMonomial":
        if j < 1 and self.halves:
            raise ValueError("Pi index must be a positive integer")
        return PiMonomial(tuple((n * j, h) for n, h in self.halves))

    def expand_to(self, min_bound) -> ScaledSeries:
        """q-expansion through the eta quotient at level 2*lcm(indices),
        stopping less than one kernel step past min_bound + 4.

        A kernel step is q^min(indices), the eta quotient's smallest delta:
        one integer recurrence covers the whole product.  This is the one rule
        from an exponent bound to kernel steps: with min_bound = p/q and
        valuation S/8, S = sum n*2k, ceil((p/q - S/8 + 4) / min(index)) steps,
        at least 8, in integers; 1 for the exact empty monomial.

        The result is shared: every request for the same monomial and step
        count in one process gets the same immutable series, from a memo of
        at most ``EXPANSION_MEMO_SIZE`` entries keyed on the integer
        ``halves`` pairs.
        """
        halves = self.halves
        if not halves:
            return _expansion(halves, 1)
        p, q = min_bound.numerator, min_bound.denominator
        s = sum(n * h for n, h in halves)
        # halves is sorted by index, so its first index is the smallest.
        return _expansion(halves, max(8, -((q * s - 8 * p - 32 * q) // (8 * q * halves[0][0]))))


# Distinct (halves, terms) expansions the memo keeps; one lifted_mix pass of
# the benchmark asks for about 600.
EXPANSION_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=EXPANSION_MEMO_SIZE)
def _expansion(halves: tuple[tuple[int, int], ...], terms: int) -> ScaledSeries:
    """``terms`` kernel steps of ``PiMonomial(halves)``, memoized; ScaledSeries is immutable."""
    if not halves:
        return ScaledSeries.one()
    return pi_to_eta(PiMonomial(halves), 2 * math.lcm(*(n for n, _ in halves))).expand(terms)


@dataclass(frozen=True)
class Cusp:
    """Canonical representative r/s of a Gamma_0(N) cusp class, with s | N."""

    r: int
    s: int

    def __str__(self):
        return f"{self.r}/{self.s}"

    def label(self, level: int) -> str:
        if self.s == level:
            return "oo"
        if self.s == 1:
            return "0"
        return f"{self.r}/{self.s}"


@dataclass(frozen=True)
class ModularityFacts:
    """Outcome of the two mod-24 congruence checks plus weight and character data."""

    weight: Fraction
    level: int
    condition_a: bool
    condition_b: bool
    character_disc: int

    @property
    def satisfied(self) -> bool:
        return self.condition_a and self.condition_b and self.weight.denominator == 1


def pi_to_eta(p: PiMonomial, level: int) -> EtaQuotient:
    """Eta-quotient form of a Pi-monomial: r_{2n} += 4k, r_n -= 2k per index."""
    acc: dict[int, int] = {}
    for n, h in p.halves:
        if level % (2 * n) != 0:
            raise LevelMismatch(f"2*{n} does not divide level {level}")
        acc[2 * n] = acc.get(2 * n, 0) + 2 * h
        acc[n] = acc.get(n, 0) - h
    return EtaQuotient.make(level, acc)


def modularity_facts(e: EtaQuotient) -> ModularityFacts:
    """Evaluate the two mod-24 congruences, weight, and character discriminant."""
    sum_delta_r = sum(delta * r for delta, r in e.exponents)
    sum_codelta_r = sum((e.level // delta) * r for delta, r in e.exponents)
    weight = e.weight
    # s = prod delta^r_delta as a rational; the character is the Kronecker
    # symbol of (-1)^k * s, which only depends on the squarefree kernel of
    # numerator times denominator.
    s = Fraction(1)
    for delta, r in e.exponents:
        s *= Fraction(delta) ** r
    signed = s.numerator * s.denominator
    if weight.denominator == 1 and int(weight) % 2 == 1:
        signed = -signed
    return ModularityFacts(
        weight=weight,
        level=e.level,
        condition_a=sum_delta_r % 24 == 0,
        condition_b=sum_codelta_r % 24 == 0,
        character_disc=_squarefree_kernel(signed),
    )


def cusps(level: int) -> list[Cusp]:
    """One canonical representative r/s per Gamma_0(level) cusp class.

    For each divisor s of N the classes are indexed by units modulo
    gcd(s, N/s); representatives are lifted to the smallest positive r with
    gcd(r, s) = 1.  The cusp infinity is stored as 1/N and 0 as 0/1.
    """
    if level < 1:
        raise ValueError("level must be positive")
    out = []
    for s in divisors(level):
        g = math.gcd(s, level // s)
        reps = [r for r in range(1, g + 1) if math.gcd(r, g) == 1] if g > 1 else [1]
        for r in reps:
            lifted = r
            while math.gcd(lifted, s) != 1:
                lifted += g
            if s == 1:
                lifted = 0
            out.append(Cusp(lifted, s))
    return out


def cusps_equivalent(level: int, c1: Cusp, c2: Cusp) -> bool:
    """Standard Gamma_0(N) equivalence test on cusps a/c written in lowest terms."""

    def complete(a, c):
        # Extend (a, c) with gcd 1 to a matrix [[a, b], [c, d]] of determinant 1.
        g, x, y = _xgcd(a, c)
        assert g == 1
        return x, y  # d, -b with a*d - b*c = 1 -> a*x + c*y = 1

    d1, _ = complete(c1.r, c1.s)
    d2, _ = complete(c2.r, c2.s)
    # a1/c1 ~ a2/c2 iff c2*d1 == c1*d2 (mod gcd(c1*c2, N)) with d_i from the
    # completed matrices; robust for all lowest-term representatives.
    g = math.gcd(c1.s * c2.s, level)
    return (c2.s * d1 - c1.s * d2) % g == 0


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def ligozat_value(e: EtaQuotient, c: Cusp) -> Fraction:
    """Raw evaluation of N/24 * sum gcd(s,delta)^2 r_delta / (gcd(s,N/s) s delta)."""
    N, s = e.level, c.s
    total = Fraction(0)
    for delta, r in e.exponents:
        total += Fraction(math.gcd(s, delta) ** 2 * r, math.gcd(s, N // s) * s * delta)
    return Fraction(N, 24) * total


def order_at_cusp(e: EtaQuotient, c: Cusp) -> Fraction:
    """Exact vanishing order of the eta quotient at the cusp r/s.

    Requires the mod-24 congruences (with integral weight) to hold; without
    them the closed formula does not compute a well-defined cusp order.
    """
    facts = modularity_facts(e)
    if not facts.satisfied:
        raise PreconditionViolated(
            "cusp-order formula requires integral weight and both mod-24 congruences"
        )
    return ligozat_value(e, c)


def pi_order_at_cusp(p: PiMonomial, c: Cusp, level: int) -> Fraction:
    """Vanishing order of a Pi-monomial at the cusp r/s, directly from exponent data.

    The order is sum_n 2k_n (N/n) (gcd(s,2n)^2 - gcd(s,n)^2) / (24 s gcd(s,N/s)),
    where 2k_n and N/n are integers, so the sum is one integer.
    """
    N, s = level, c.s
    total = 0
    for n, h in p.halves:
        m, rem = divmod(N, n)
        if rem:
            raise LevelMismatch(f"Pi index {n} does not divide level {N}")
        total += h * m * (math.gcd(s, 2 * n) ** 2 - math.gcd(s, n) ** 2)
    return Fraction(total, 24 * s * math.gcd(s, N // s))
