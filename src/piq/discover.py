"""Relation mining: enumerate Pi-monomials, find exact kernels, certify.

For a fixed index set and degree, all monomials Pi_{q^n1}^k1 ... with
sum k_i = d are grouped by sum(k_i n_i) mod 4 (terms of a valid relation must
share that residue because of the q^(n/4) prefactors).  Within a class, the
coefficient matrix over a Sturm-sized window is exact, so a kernel vector is
already a proof: the exponents are integers, so every monomial of degree d has
character discriminant (-1)^d (``PiMonomial.character_disc``), and one
residue class has one character, one substitution exponent m and one level,
whose Sturm bound the window of level 8 lcm(indices) covers.  Each surviving
relation is nevertheless re-certified through the proof engine and carries
its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PiqError, Unbounded
from .etaq import PiMonomial, index_gamma0
from .ident import parse_identity
from .linalg import kernel_basis, rank, series_window_matrix
from .verify import ProofReport, prove, sturm_bound


@dataclass(frozen=True)
class DiscoveryQuery:
    indices: tuple[int, ...]
    max_degree: int = 6

    @classmethod
    def make(cls, indices: Sequence[int], max_degree: int = 6) -> "DiscoveryQuery":
        idx = tuple(indices)
        if len(idx) < 2 or list(idx) != sorted(set(idx)) or idx[0] < 1:
            raise ValueError("indices must be at least two strictly increasing positive integers")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        return cls(idx, max_degree)


@dataclass(frozen=True)
class DiscoveredRelation:
    monomials: tuple[PiMonomial, ...]
    coefficients: tuple[int, ...]
    residue_class: int
    degree: int
    dsl: str
    certificate: ProofReport

    def coefficient_map(self) -> dict:
        return {m: c for m, c in zip(self.monomials, self.coefficients) if c != 0}


def _compositions(total: int, parts: int):
    """Exponent vectors summing to total, lexicographically decreasing."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total, -1, -1):
        for tail in _compositions(total - k, parts - 1):
            yield (k,) + tail


def enumerate_monomials(indices: Sequence[int], degree: int) -> dict[int, list[PiMonomial]]:
    """All degree-d monomials over the index set, grouped by residue mod 4."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    idx = tuple(indices)
    out: dict[int, list[PiMonomial]] = {}
    for exps in _compositions(degree, len(idx)):
        residue = sum(k * n for k, n in zip(exps, idx)) % 4
        mono = PiMonomial.make({n: k for n, k in zip(idx, exps)})
        out.setdefault(residue, []).append(mono)
    return out


def monomial_count(indices: Sequence[int], degree: int) -> int:
    m = len(tuple(indices))
    return math.comb(degree + m - 1, m - 1)


def gosper_bound(query: DiscoveryQuery) -> int:
    """Smallest k at which a degree-2k relation is forced to exist.

    Compares the monomial count binom(2k+m-1, m-1) against the dimension
    bound 2kn prod_{p | n, p > 2}(1 + 1/p) + 1 with n = lcm(indices); needs
    at least three indices.
    """
    m = len(query.indices)
    if m <= 2:
        raise Unbounded("a degree guarantee needs at least three indices")
    n = math.lcm(*query.indices)
    odd = n // (n & -n)
    dim_factor = Fraction(index_gamma0(odd), odd)  # prod_{p | n, p > 2}(1 + 1/p)
    k = 1
    while True:
        count = math.comb(2 * k + m - 1, m - 1)
        dim_bound = 2 * k * n * dim_factor + 1
        if count > dim_bound:
            return k
        k += 1


def _relation_dsl(monomials: Sequence[PiMonomial], coeffs: Sequence[int]) -> str:
    def mono_dsl(mono: PiMonomial, c: int) -> str:
        factors = [str(c)] if c != 1 else []
        for n, k in mono.exponents:
            factors.append(f"pi({n})" + (f"^{k}" if k != 1 else ""))
        return "*".join(factors) if factors else "1"

    pos = [(m, c) for m, c in zip(monomials, coeffs) if c > 0]
    neg = [(m, -c) for m, c in zip(monomials, coeffs) if c < 0]
    lhs = " + ".join(mono_dsl(m, c) for m, c in pos) or "0"
    rhs = " + ".join(mono_dsl(m, c) for m, c in neg) or "0"
    return f"{lhs} = {rhs}"


def _inherited_span(
    relations: list[DiscoveredRelation],
    indices: tuple[int, ...],
    degree: int,
    residue: int,
    class_monomials: list[PiMonomial],
) -> list[list[int]]:
    """(Lower-degree relation) x (complementary monomial) products as class vectors."""
    span = []
    position = {m: i for i, m in enumerate(class_monomials)}
    for rel in relations:
        d_rest = degree - rel.degree
        if d_rest < 1:
            continue
        for exps in _compositions(d_rest, len(indices)):
            mu = PiMonomial.make({n: k for n, k in zip(indices, exps)})
            if (rel.residue_class + int(mu.exponent_weighted_sum)) % 4 != residue:
                continue
            vec = [0] * len(class_monomials)
            for mono, c in zip(rel.monomials, rel.coefficients):
                if c:
                    vec[position[mono * mu]] = c
            span.append(vec)
    return span


def mine(query: DiscoveryQuery) -> list[DiscoveredRelation]:
    """Search degrees 1..max_degree for certified monomial relations.

    Relations implied by lower-degree ones times a monomial are suppressed;
    every emitted relation is re-proven through the certification pipeline.
    """
    relations: list[DiscoveredRelation] = []
    n = math.lcm(*query.indices)
    for degree in range(1, query.max_degree + 1):
        classes = enumerate_monomials(query.indices, degree)
        rows = sturm_bound(8 * n, degree) + 5
        for residue in sorted(classes):
            monomials = classes[residue]
            if len(monomials) < 2:
                continue
            base = min(m.valuation for m in monomials)
            columns = [m.expand_to(base + rows + 1) for m in monomials]
            kernel = kernel_basis(series_window_matrix(columns, rows))
            if not kernel:
                continue
            span = _inherited_span(relations, query.indices, degree, residue, monomials)
            span_rank = rank(span)
            for vec in kernel:
                if rank(span + [vec]) == span_rank:
                    continue
                span.append(vec)
                span_rank += 1
                dsl = _relation_dsl(monomials, vec)
                rec = parse_identity(
                    dsl, id=f"mined-{'.'.join(map(str, query.indices))}-d{degree}-c{residue}-{len(relations)}"
                )
                report = prove(rec)
                if report.verdict != "PROVEN":
                    raise PiqError(
                        f"mined relation failed certification ({report.verdict}): {dsl}"
                    )
                relations.append(
                    DiscoveredRelation(
                        monomials=tuple(monomials),
                        coefficients=vec,
                        residue_class=residue,
                        degree=degree,
                        dsl=dsl,
                        certificate=report,
                    )
                )
    return relations
