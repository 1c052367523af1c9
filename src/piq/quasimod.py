"""Eisenstein and Lambert series with reductions to certified modular combinations.

Lambert sums are expanded exactly by double-sum enumeration.  The reduction
layer is one rewrite table: every rule rewrites one atom into (coefficient,
factor) parts and carries the citation a proof certificate records.
``split_rule``'s factors are atoms: it writes the quartic atom as a sum of
two.  ``reduce_atom``'s factors are None (the constant 1) or combinations
``sum a_d E2(d z)``, holomorphic weight-2 forms on Gamma_0(lcm of scales)
exactly when sum a_d / d = 0, the proof engine's certification rule, or
sums of E4(m z), holomorphic weight-4 forms with no side condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .series import ScaledSeries, _frac


def sigma(s: int, n: int) -> int:
    """Divisor power sum sigma_s(n) = sum_{d | n} d^s."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if s < 0:
        raise ValueError("s must be nonnegative")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**s
            if d != n // d:
                total += (n // d) ** s
        d += 1
    return total


@dataclass(frozen=True)
class LambertSpec:
    """One Lambert-type series atom.

    kind LAM:  sum_{n>=1} q^(an-b) / (1 - q^(an-b))^2
    kind LAM4: sum_{n>=1} q^(2(an-b)) / (1 - q^(an-b))^4
    kind DL3:  sum_{n>=1} n^3 q^(mn) / (1 - q^(2mn))      (m stored in `a`)
    kind SODD: sum_{m odd} sigma(m) q^(am)                (scale stored in `a`)
    kind E2:   E2(az),  kind E4: E4(az)
    """

    kind: str
    a: int = 1
    b: int = 0

    def __post_init__(self):
        if self.kind not in ("LAM", "LAM4", "DL3", "SODD", "E2", "E4"):
            raise ValueError(f"unknown Lambert kind {self.kind!r}")
        if self.a < 1:
            raise ValueError("scale parameter must be positive")
        if self.kind in ("LAM", "LAM4"):
            if not 0 <= self.b < self.a:
                raise ValueError("LAM/LAM4 require 0 <= b < a")
        elif self.b:
            raise ValueError(f"{self.kind} takes no second parameter")

    def scaled(self, j: int) -> "LambertSpec":
        """The atom after replacing q by q^j."""
        if self.kind in ("LAM", "LAM4"):
            return LambertSpec(self.kind, self.a * j, self.b * j)
        return LambertSpec(self.kind, self.a * j)

    def key(self):
        """Sort key among the atoms of a term; it sorts before the E2 and E4
        combinations, whose keys start with their weight."""
        return (0, self.kind, self.a, self.b)

    def __str__(self):
        if self.kind == "LAM":
            return f"lam({self.a},{self.b})"
        if self.kind == "LAM4":
            return f"lam4({self.a},{self.b})"
        if self.kind == "DL3":
            return "dl3()" if self.a == 1 else f"dl3@{self.a}"
        if self.kind == "SODD":
            return "sodd()" if self.a == 1 else f"sodd@{self.a}"
        return f"{self.kind}({self.a})"


def expand_lambert(spec: LambertSpec, terms: int) -> ScaledSeries:
    """Exact q-expansion of a Lambert atom, known modulo O(q^terms)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    acc: dict[int, int] = {}
    if spec.kind == "LAM":
        n = 1
        while spec.a * n - spec.b < terms:
            j = spec.a * n - spec.b
            k = 1
            while k * j < terms:
                acc[k * j] = acc.get(k * j, 0) + k
                k += 1
            n += 1
    elif spec.kind == "LAM4":
        n = 1
        while 2 * (spec.a * n - spec.b) < terms:
            j = spec.a * n - spec.b
            k = 2
            while k * j < terms:
                acc[k * j] = acc.get(k * j, 0) + (k**3 - k) // 6
                k += 1
            n += 1
    elif spec.kind == "DL3":
        n = 1
        while spec.a * n < terms:
            coeff = sigma(3, n) - (sigma(3, n // 2) if n % 2 == 0 else 0)
            acc[spec.a * n] = coeff
            n += 1
    elif spec.kind == "SODD":
        m = 1
        while spec.a * m < terms:
            acc[spec.a * m] = sigma(1, m)
            m += 2
    else:  # E2 or E4: 1 + c * sum sigma_s(n) q^(an)
        s, c = (1, -24) if spec.kind == "E2" else (3, 240)
        acc[0] = 1
        n = 1
        while spec.a * n < terms:
            acc[spec.a * n] = c * sigma(s, n)
            n += 1
    return ScaledSeries(1, acc, terms)


@dataclass(frozen=True)
class _EisensteinCombo:
    """sum a_d * E_k(d z) with exact rational a_d: the code both weights share."""

    terms: tuple[tuple[int, Fraction], ...]

    @classmethod
    def make(cls, terms: Mapping[int, object]):
        clean = {}
        for d, a in terms.items():
            a = _frac(a)
            if a == 0:
                continue
            if d < 1:
                raise ValueError(f"E{cls.weight} scale must be positive")
            clean[int(d)] = a
        return cls(tuple(sorted(clean.items())))

    def __mul__(self, c):
        c = _frac(c)
        return self.make({d: a * c for d, a in self.terms})

    __rmul__ = __mul__

    def __add__(self, other):
        acc = dict(self.terms)
        for d, a in other.terms:
            acc[d] = acc.get(d, Fraction(0)) + a
        return self.make(acc)

    def scaled(self, j: int):
        return self.make({d * j: a for d, a in self.terms})

    def key(self):
        """Sort key among the atoms of a term: weight, then the terms."""
        return (self.weight, self.terms)

    def describe(self) -> str:
        return "(" + " + ".join(f"{a}*E{self.weight}({d}z)" for d, a in self.terms) + ")"

    @property
    def level(self) -> int:
        return lcm(*(d for d, _ in self.terms)) if self.terms else 1

    def expand(self, terms: int) -> ScaledSeries:
        parts = ((a, expand_lambert(LambertSpec(f"E{self.weight}", d), terms)) for d, a in self.terms)
        return ScaledSeries.linear_sum(parts)


@dataclass(frozen=True)
class E2Combo(_EisensteinCombo):
    """sum a_d * E2(d z); a weight-2 form on Gamma_0(lcm of scales) iff sum a_d/d = 0."""

    weight = 2


def is_modular_combo(c: E2Combo) -> bool:
    """True iff sum a_d / d = 0, making the combination a weight-2 form."""
    return sum((a / d for d, a in c.terms), Fraction(0)) == 0


@dataclass(frozen=True)
class E4Combo(_EisensteinCombo):
    """sum a_m * E4(m z); holomorphic weight-4 form on Gamma_0(lcm of scales)."""

    weight = 4


# ---------------------------------------------------------------------------
# the rewrite table: every Lambert rule and the citation it leaves in a
# proof certificate
# ---------------------------------------------------------------------------


def reduce_atom(spec: LambertSpec) -> Optional[tuple[tuple[tuple[Fraction, object], ...], str]]:
    """((coefficient, factor) parts summing to one Lambert atom, citation), or None.

    A factor is a certified ``E2Combo``/``E4Combo``, or None for the constant
    1.  Registered patterns: LAM(a, 0) is 1/24 - E2(az)/24; LAM(2b, b) is
    (E2(2bz) - E2(bz))/24; SODD at scale m is (3E2(2mz) - E2(mz) - 2E2(4mz))/24;
    DL3 at scale m is (E4(mz) - E4(2mz))/240; an E2 or E4 atom is itself.
    None for anything else: a LAM4 atom reduces only through the parts
    ``split_rule`` gives it.
    """
    m = spec.a
    if spec.kind == "DL3":
        combo = E4Combo.make({m: Fraction(1, 240), 2 * m: Fraction(-1, 240)})
        return ((1, combo),), "cube-sum-to-E4-difference"
    if spec.kind == "E4":
        return ((1, E4Combo.make({m: 1})),), f"{spec} -> E4 combination"
    if spec.kind == "LAM" and spec.b == 0:
        parts = ((Fraction(1, 24), None), (1, E2Combo.make({m: Fraction(-1, 24)})))
    elif spec.kind == "LAM" and m == 2 * spec.b:
        parts = ((1, E2Combo.make({m: Fraction(1, 24), spec.b: Fraction(-1, 24)})),)
    elif spec.kind == "SODD":
        parts = ((1, E2Combo.make({2 * m: Fraction(3, 24), m: Fraction(-1, 24), 4 * m: Fraction(-2, 24)})),)
    elif spec.kind == "E2":
        parts = ((1, E2Combo.make({m: 1})),)
    else:
        return None
    return parts, f"{spec} -> E2 combination"


def split_rule(spec: LambertSpec) -> Optional[tuple[tuple[tuple[Fraction, LambertSpec], ...], str]]:
    """((coefficient, atom) parts summing to the atom, citation), or None.

    The one registered split: LAM4(2b,b) = (DL3(b) - LAM(2b,b))/6, the pair
    identity 6*LAM4(2b,b) + LAM(2b,b) = DL3(b) read as a rewrite of LAM4.
    """
    if spec.kind != "LAM4" or spec.a != 2 * spec.b:
        return None
    sixth = Fraction(1, 6)
    parts = ((sixth, LambertSpec("DL3", spec.b)), (-sixth, LambertSpec("LAM", spec.a, spec.b)))
    return parts, "lam4-pair-to-cube-sum"
