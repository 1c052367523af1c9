"""Genus-zero machinery: hauptmodul checks, cusp tables, rational-function fits.

On a genus-zero group Gamma_0(N), an eta-quotient hauptmodul h with its only
pole at infinity generates the function field, so any weight-0 eta-quotient
expression is a rational function of h.  The fit is found by exact linear
algebra over coefficient windows and certified by proving the cleared
identity target * Q(h) = P(h) through the proof engine; cusp values of h are
never computed directly, they reappear as rational roots of the fitted
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NoFitWithinBounds, NotAnEtaQuotient, NotWeightZero
from .etaq import (
    EtaQuotient,
    cusps,
    modularity_facts,
    order_at_cusp,
    pi_to_eta,
)
from .ident import (
    Add,
    Const,
    Expr,
    IdentityRecord,
    Lambert,
    Mul,
    Neg,
    Pi,
    Pow,
    Sqrt,
    Subst,
    _pi_factor,
    evaluate_to_bound,
    parse_expression,
    to_dsl,
)
from .verify import ProofReport, prove
from .linalg import kernel_basis, series_window_matrix

# Levels at which Gamma_0(N) has genus zero, hence admits a hauptmodul.
GENUS_ZERO_LEVELS = frozenset(range(1, 11)) | {12, 13, 16, 18, 25}


def _require_genus_zero(level: int):
    if level not in GENUS_ZERO_LEVELS:
        raise ValueError(f"Gamma_0({level}) does not have genus zero")


def expr_to_eta_quotient(expr: Expr, level: int) -> EtaQuotient:
    """Convert a monomial Pi-expression with positive coefficient to an eta quotient."""
    folded = _pi_factor(expr)
    if folded is None or folded[0] <= 0:
        raise NotAnEtaQuotient(f"{to_dsl(expr)} is not a positive Pi monomial")
    return pi_to_eta(folded[1], level)


@dataclass(frozen=True)
class HauptCheck:
    """Per-condition outcome of the hauptmodul candidacy test."""

    level: int
    weight_zero: bool
    condition_a: bool
    condition_b: bool
    simple_pole_at_infinity: bool
    holomorphic_elsewhere: bool
    orders: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return (
            self.weight_zero
            and self.condition_a
            and self.condition_b
            and self.simple_pole_at_infinity
            and self.holomorphic_elsewhere
        )


def haupt_candidate_check(h: Expr, level: int) -> HauptCheck:
    """Check the eta-quotient hauptmodul conditions at the given level."""
    _require_genus_zero(level)
    quotient = expr_to_eta_quotient(h, level)
    facts = modularity_facts(quotient)
    sum_delta_r = sum(d * r for d, r in quotient.exponents)
    orders = []
    holomorphic = True
    pole_ok = sum_delta_r == -24
    if facts.satisfied:
        for c in cusps(level):
            o = order_at_cusp(quotient, c)
            orders.append((c.label(level), str(o)))
            if c.s == level:
                pole_ok = pole_ok and o == -1
            elif o < 0:
                holomorphic = False
    return HauptCheck(
        level=level,
        weight_zero=quotient.weight == 0,
        condition_a=facts.condition_a,
        condition_b=facts.condition_b,
        simple_pole_at_infinity=pole_ok,
        holomorphic_elsewhere=holomorphic and facts.satisfied,
        orders=tuple(orders),
    )


@dataclass(frozen=True)
class CuspTable:
    level: int
    cusp_labels: tuple[str, ...]
    rows: tuple[tuple[str, tuple[Fraction, ...]], ...]

    def formatted(self) -> str:
        head = ["cusp"] + list(self.cusp_labels)
        lines = [head] + [
            [name] + [str(o) for o in orders] for name, orders in self.rows
        ]
        widths = [max(len(r[i]) for r in lines) for i in range(len(head))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in lines
        )


def cusp_table(level: int, functions: Sequence[tuple[str, Expr]]) -> CuspTable:
    """Orders of the given eta-quotient expressions at all cusps of the level."""
    cusp_list = cusps(level)
    rows = []
    for name, expr in functions:
        quotient = expr_to_eta_quotient(expr, level)
        rows.append((name, tuple(order_at_cusp(quotient, c) for c in cusp_list)))
    return CuspTable(
        level=level,
        cusp_labels=tuple(c.label(level) for c in cusp_list),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class HauptFit:
    """Certified identity target = P(h)/Q(h) with coprime integer coefficients."""

    level: int
    target: str
    hauptmodul: str
    numerator: tuple[int, ...]  # P coefficients, ascending powers of h
    denominator: tuple[int, ...]  # Q coefficients, ascending powers of h
    certificate: ProofReport

    def identity_dsl(self) -> str:
        t = parse_expression(self.target)
        h = parse_expression(self.hauptmodul)
        lhs = Mul((t, _poly_expr(self.denominator, h)))
        return f"{to_dsl(lhs)} = {to_dsl(_poly_expr(self.numerator, h))}"


def _poly_expr(coeffs: Sequence[int], h: Expr) -> Expr:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        factors = []
        if c != 1 or i == 0:
            factors.append(Const(Fraction(c)))
        if i == 1:
            factors.append(h)
        elif i > 1:
            factors.append(Pow(h, Fraction(i)))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    if not terms:
        return Const(Fraction(0))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def _expr_weight(expr: Expr) -> Fraction:
    if isinstance(expr, Const):
        return Fraction(0)
    if isinstance(expr, Pi):
        return Fraction(1)
    if isinstance(expr, Neg):
        return _expr_weight(expr.child)
    if isinstance(expr, Sqrt):
        return _expr_weight(expr.child) / 2
    if isinstance(expr, Subst):
        return _expr_weight(expr.child)
    if isinstance(expr, Pow):
        return _expr_weight(expr.child) * expr.e
    if isinstance(expr, Mul):
        return sum((_expr_weight(c) for c in expr.children), Fraction(0))
    if isinstance(expr, Add):
        weights = {_expr_weight(c) for c in expr.children}
        if len(weights) != 1:
            raise NotWeightZero(f"mixed weights {sorted(weights)} in {to_dsl(expr)}")
        return weights.pop()
    if isinstance(expr, Lambert):
        raise NotWeightZero("Lambert series are not weight-0 eta expressions")
    raise TypeError(f"not an expression node: {expr!r}")


def fit_rational(
    target: Expr,
    h: Expr,
    level: int,
    max_degree: int = 8,
) -> HauptFit:
    """Express a weight-0 expression as a certified rational function of h.

    Iterative deepening over total degree deg P + deg Q; the first
    one-dimensional kernel whose cleared identity certifies wins, which makes
    the returned fit degree-minimal.
    """
    _require_genus_zero(level)
    if _expr_weight(target) != 0:
        raise NotWeightZero(f"target {to_dsl(target)} has nonzero weight")
    if _expr_weight(h) != 0:
        raise NotWeightZero(f"hauptmodul {to_dsl(h)} has nonzero weight")
    check = haupt_candidate_check(h, level)
    if not check.passed:
        raise NotAnEtaQuotient(
            f"{to_dsl(h)} fails the hauptmodul conditions at level {level}: {check}"
        )
    for total in range(0, 2 * max_degree + 1):
        # Expansions of the target and of each h^i, keyed by (power index or
        # None for the target, min_bound): the degree pairs of one total and
        # their row doublings ask for the same ones, and no other total does.
        expansions: dict = {}
        for deg_p in range(min(total, max_degree), -1, -1):
            deg_q = total - deg_p
            if deg_q > max_degree:
                continue
            fit = _try_fit(target, h, level, deg_p, deg_q, expansions)
            if fit is not None:
                return fit
    raise NoFitWithinBounds(
        f"no rational expression of {to_dsl(target)} in {to_dsl(h)} up to degree {max_degree}"
    )


def _try_fit(target, h, level, deg_p, deg_q, expansions: dict) -> HauptFit | None:
    def expand(i, min_bound):
        key = (i, min_bound)
        if key not in expansions:
            expr = target if i is None else Pow(h, Fraction(i)) if i else Const(Fraction(1))
            expansions[key] = evaluate_to_bound(expr, min_bound)
        return expansions[key]

    rows = 24 + 6 * (deg_p + deg_q)
    for _ in range(4):
        min_bound = Fraction(rows + deg_p + deg_q + 2)
        h_pows = [expand(i, min_bound) for i in range(max(deg_p, deg_q) + 1)]
        t_series = expand(None, min_bound)
        columns = [t_series * h_pows[j] for j in range(deg_q + 1)]
        columns += [-h_pows[i] for i in range(deg_p + 1)]
        kernel = kernel_basis(series_window_matrix(columns, rows))
        if not kernel:
            return None
        if len(kernel) > 1:
            rows *= 2
            continue
        vec = kernel[0]
        q_poly = list(vec[: deg_q + 1])
        p_poly = list(vec[deg_q + 1 :])
        while q_poly and q_poly[-1] == 0:
            q_poly.pop()
        while p_poly and p_poly[-1] == 0:
            p_poly.pop()
        if not q_poly or not p_poly:
            return None
        if q_poly[-1] < 0:
            q_poly = [-c for c in q_poly]
            p_poly = [-c for c in p_poly]
        rec = IdentityRecord(
            id=f"hauptfit-N{level}",
            source="haupt",
            lhs=Mul((target, _poly_expr(q_poly, h))),
            rhs=_poly_expr(p_poly, h),
        )
        report = prove(rec)
        if report.verdict != "PROVEN":
            return None
        return HauptFit(
            level=level,
            target=to_dsl(target),
            hauptmodul=to_dsl(h),
            numerator=tuple(p_poly),
            denominator=tuple(q_poly),
            certificate=report,
        )
    return None
