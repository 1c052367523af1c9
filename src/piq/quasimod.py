"""Eisenstein and Lambert series with reductions to certified modular combinations.

Lambert sums are expanded exactly by double-sum enumeration.  The reduction
layer is one rewrite table, ``reduce_atom`` for single atoms and ``pair_rule``
for the quartic pair, and each rule carries the citation a proof certificate
records.  It rewrites recognized Lambert patterns into combinations
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
    def make(cls, terms: Mapping[int, object], *constant):
        clean = {}
        for d, a in terms.items():
            a = _frac(a)
            if a == 0:
                continue
            if d < 1:
                raise ValueError(f"E{cls.weight} scale must be positive")
            clean[int(d)] = a
        return cls(tuple(sorted(clean.items())), *map(_frac, constant))

    def _constant(self) -> tuple:
        """The fields after ``terms``: E2's constant, nothing for E4."""
        return ()

    def __mul__(self, c):
        c = _frac(c)
        return self.make({d: a * c for d, a in self.terms}, *(x * c for x in self._constant()))

    __rmul__ = __mul__

    def scaled(self, j: int):
        return self.make({d * j: a for d, a in self.terms}, *self._constant())

    def key(self):
        """Sort key among the atoms of a term: weight, then the terms."""
        return (self.weight, self.terms)

    def describe(self) -> str:
        parts = [str(c) for c in self._constant() if c]
        parts.append(" + ".join(f"{a}*E{self.weight}({d}z)" for d, a in self.terms))
        return "(" + " + ".join(parts) + ")"

    @property
    def level(self) -> int:
        return lcm(*(d for d, _ in self.terms)) if self.terms else 1

    def expand(self, terms: int) -> ScaledSeries:
        # The constant part, even a zero one, keeps the sum's bound at terms.
        parts = [(1, ScaledSeries.from_terms({0: c for c in self._constant()}, terms))]
        parts += [(a, expand_lambert(LambertSpec(f"E{self.weight}", d), terms)) for d, a in self.terms]
        return ScaledSeries.linear_sum(parts)


@dataclass(frozen=True)
class E2Combo(_EisensteinCombo):
    """constant + sum a_d * E2(d z), with exact rational a_d."""

    constant: Fraction = Fraction(0)
    weight = 2

    def _constant(self) -> tuple:
        return (self.constant,)

    def __add__(self, other: "E2Combo") -> "E2Combo":
        acc = dict(self.terms)
        for d, a in other.terms:
            acc[d] = acc.get(d, Fraction(0)) + a
        return E2Combo.make(acc, self.constant + other.constant)

    def drop_constant(self) -> "E2Combo":
        return E2Combo(self.terms, Fraction(0))


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


def reduce_to_e2(spec: LambertSpec) -> Optional[E2Combo]:
    """Rewrite a Lambert atom as constant + sum a_d E2(dz), or None if unrecognized.

    Registered patterns: LAM(a, 0) is (1 - E2(az))/24; LAM(2b, b) is
    (E2(2bz) - E2(bz))/24; SODD at scale m is (3E2(2mz) - E2(mz) - 2E2(4mz))/24;
    an E2 atom is itself.
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


def reduce_atom(spec: LambertSpec) -> Optional[tuple[_EisensteinCombo, str]]:
    """The certified combination equal to one Lambert atom, with its citation.

    DL3 at scale m is (E4(mz) - E4(2mz))/240; an E4 atom is itself; the E2
    patterns are those of ``reduce_to_e2``.  None for anything else: a LAM4
    atom reduces only through its pair rule.
    """
    if spec.kind == "DL3":
        m = spec.a
        combo = E4Combo.make({m: Fraction(1, 240), 2 * m: Fraction(-1, 240)})
        return combo, "cube-sum-to-E4-difference"
    if spec.kind == "E4":
        return E4Combo.make({spec.a: 1}), f"{spec} -> E4 combination"
    combo = reduce_to_e2(spec)
    return None if combo is None else (combo, f"{spec} -> E2 combination")


def pair_rule(spec: LambertSpec) -> Optional[tuple[LambertSpec, int, LambertSpec, str]]:
    """(partner, ratio, result, citation) when ratio*spec + partner = result.

    The one registered pair: 6*LAM4(2b,b) + LAM(2b,b) is the cube sum DL3 at
    scale b.
    """
    if spec.kind != "LAM4" or spec.a != 2 * spec.b:
        return None
    partner = LambertSpec("LAM", spec.a, spec.b)
    return partner, 6, LambertSpec("DL3", spec.b), "lam4-pair-to-cube-sum"
