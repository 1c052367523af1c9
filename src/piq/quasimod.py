"""Eisenstein and Lambert series with reductions to certified modular combinations.

Lambert sums are expanded exactly by double-sum enumeration.  The reduction
layer rewrites recognized Lambert patterns into combinations
``constant + sum a_d E2(d z)``; such a combination is a holomorphic weight-2
form on Gamma_0(lcm of scales) exactly when sum a_d / d = 0, which is the
certification rule used by the proof engine.  Sums of E4(m z) are holomorphic
weight-4 forms with no side condition.
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
        """Sort key among the atoms of a term."""
        return (self.kind, self.a, self.b)

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
    elif spec.kind == "E2":
        acc[0] = 1
        n = 1
        while spec.a * n < terms:
            acc[spec.a * n] = -24 * sigma(1, n)
            n += 1
    elif spec.kind == "E4":
        acc[0] = 1
        n = 1
        while spec.a * n < terms:
            acc[spec.a * n] = 240 * sigma(3, n)
            n += 1
    return ScaledSeries(1, acc, terms)


@dataclass(frozen=True)
class E2Combo:
    """constant + sum a_d * E2(d z), with exact rational a_d."""

    terms: tuple[tuple[int, Fraction], ...]
    constant: Fraction = Fraction(0)
    weight = 2

    @classmethod
    def make(cls, terms: Mapping[int, object], constant=0) -> "E2Combo":
        clean = {}
        for d, a in terms.items():
            a = _frac(a)
            if a == 0:
                continue
            if d < 1:
                raise ValueError("E2 scale must be positive")
            clean[int(d)] = a
        return cls(tuple(sorted(clean.items())), _frac(constant))

    def __add__(self, other: "E2Combo") -> "E2Combo":
        acc = dict(self.terms)
        for d, a in other.terms:
            acc[d] = acc.get(d, Fraction(0)) + a
        return E2Combo.make(acc, self.constant + other.constant)

    def __mul__(self, c) -> "E2Combo":
        c = _frac(c)
        return E2Combo.make({d: a * c for d, a in self.terms}, self.constant * c)

    __rmul__ = __mul__

    def scaled(self, j: int) -> "E2Combo":
        return E2Combo.make({d * j: a for d, a in self.terms}, self.constant)

    def drop_constant(self) -> "E2Combo":
        return E2Combo(self.terms, Fraction(0))

    def key(self):
        """Sort key among the atoms of a term: weight, then the E2 terms."""
        return (self.weight, self.terms)

    def describe(self) -> str:
        inner = " + ".join(f"{a}*E2({d}z)" for d, a in self.terms)
        return f"({self.constant} + {inner})" if self.constant else f"({inner})"

    @property
    def level(self) -> int:
        return lcm(*(d for d, _ in self.terms)) if self.terms else 1

    def expand(self, terms: int) -> ScaledSeries:
        out = ScaledSeries.from_terms({0: self.constant}, terms)
        for d, a in self.terms:
            out = out + expand_lambert(LambertSpec("E2", d), terms) * a
        return out


def is_modular_combo(c: E2Combo) -> bool:
    """True iff sum a_d / d = 0, making the combination a weight-2 form."""
    return sum((a / d for d, a in c.terms), Fraction(0)) == 0


@dataclass(frozen=True)
class E4Combo:
    """sum a_m * E4(m z); holomorphic weight-4 form on Gamma_0(lcm of scales)."""

    terms: tuple[tuple[int, Fraction], ...]
    weight = 4

    @classmethod
    def make(cls, terms: Mapping[int, object]) -> "E4Combo":
        clean = {}
        for m, a in terms.items():
            a = _frac(a)
            if a == 0:
                continue
            clean[int(m)] = a
        return cls(tuple(sorted(clean.items())))

    def __mul__(self, c) -> "E4Combo":
        c = _frac(c)
        return E4Combo.make({m: a * c for m, a in self.terms})

    __rmul__ = __mul__

    def scaled(self, j: int) -> "E4Combo":
        return E4Combo.make({m * j: a for m, a in self.terms})

    def key(self):
        """Sort key among the atoms of a term: weight, then the E4 terms."""
        return (self.weight, self.terms)

    def describe(self) -> str:
        return "(" + " + ".join(f"{a}*E4({m}z)" for m, a in self.terms) + ")"

    @property
    def level(self) -> int:
        return lcm(*(m for m, _ in self.terms)) if self.terms else 1

    def expand(self, terms: int) -> ScaledSeries:
        out = ScaledSeries.zero(terms)
        for m, a in self.terms:
            out = out + expand_lambert(LambertSpec("E4", m), terms) * a
        return out


def reduce_to_e2(spec: LambertSpec) -> Optional[E2Combo]:
    """Rewrite a Lambert atom as constant + sum a_d E2(dz), or None if unrecognized.

    Registered patterns: LAM(a, 0) is (1 - E2(az))/24; LAM(2b, b) is
    (E2(2bz) - E2(bz))/24; SODD at scale m is (3E2(2mz) - E2(mz) - 2E2(4mz))/24;
    an E2 atom is itself.  LAM4 and DL3 are handled by the pair rules below.
    """
    if spec.kind == "E2":
        return E2Combo.make({spec.a: 1})
    if spec.kind == "SODD":
        m = spec.a
        return E2Combo.make({2 * m: Fraction(3, 24), m: Fraction(-1, 24), 4 * m: Fraction(-2, 24)})
    if spec.kind == "LAM":
        if spec.b == 0:
            return E2Combo.make({spec.a: Fraction(-1, 24)}, Fraction(1, 24))
        if spec.a == 2 * spec.b:
            b = spec.b
            return E2Combo.make({2 * b: Fraction(1, 24), b: Fraction(-1, 24)})
    return None


# Rule names recorded in proof certificates.
RULE_QUARTIC_PAIR = "lam4-pair-to-cube-sum"
RULE_CUBE_SUM_TO_E4 = "cube-sum-to-E4-difference"


def rule_quartic_pair(spec4: LambertSpec, spec2: LambertSpec) -> Optional[LambertSpec]:
    """6*LAM4(2b,b) + LAM(2b,b) collapses to the cube sum DL3 at scale b."""
    if spec4.kind != "LAM4" or spec2.kind != "LAM":
        return None
    if (spec4.a, spec4.b) != (spec2.a, spec2.b) or spec4.a != 2 * spec4.b:
        return None
    return LambertSpec("DL3", spec4.b)


def rule_cube_sum(spec: LambertSpec) -> Optional[E4Combo]:
    """DL3 at scale m equals (E4(mz) - E4(2mz))/240."""
    if spec.kind != "DL3":
        return None
    m = spec.a
    return E4Combo.make({m: Fraction(1, 240), 2 * m: Fraction(-1, 240)})


def combo_rules(fragment):
    """Apply a registered rewrite to a coefficient-weighted Lambert fragment.

    ``fragment`` is a sequence of (coefficient, LambertSpec) pairs.  Returns
    (rewritten fragment or combo, rule name) for the two registered rules,
    or None when nothing matches.
    """
    frag = [( _frac(c), s) for c, s in fragment]
    if len(frag) == 2:
        (c1, s1), (c2, s2) = frag
        for (ca, sa), (cb, sb) in (((c1, s1), (c2, s2)), ((c2, s2), (c1, s1))):
            if sa.kind == "LAM4" and sb.kind == "LAM" and cb != 0 and ca == 6 * cb:
                dl3 = rule_quartic_pair(sa, sb)
                if dl3 is not None:
                    return [(cb, dl3)], RULE_QUARTIC_PAIR
    if len(frag) == 1:
        c, s = frag[0]
        combo = rule_cube_sum(s)
        if combo is not None:
            return combo * c, RULE_CUBE_SUM_TO_E4
    return None
