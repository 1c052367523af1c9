"""Proof engine: modularity certificates plus Sturm-bounded coefficient checks.

The pipeline for :func:`prove`:

1.  Flatten both sides to cleared polynomial term sums over a common
    denominator (quotients cross-multiplied, negative Pi powers lifted).
    The prover works on these ``ident.Term`` sums and their ``ts_*``
    operations throughout; there is no second term algebra.
2.  Rewrite Lambert atoms in place from the one rewrite table of
    ``quasimod``, whose every rule rewrites one atom: ``split_rule``
    replaces each quartic atom lam4(2b,b) by (dl3(b) - lam(2b,b))/6, the
    canonical term sum merges the parts, so a quartic pair cancels to the
    cube sum, and ``reduce_atom`` turns each remaining atom into parts of
    the same shape, a constant or an E2 or E4 combination, with the
    citation the certificate records; one multiply-out serves both rules.
    A reduced term is a ``Term`` whose atom slot holds these certified
    ``E2Combo``/``E4Combo`` factors.
3.  If radicals remain, one squaring round: terms are grouped by radical
    signature (at most two groups after an optional radical multiplication
    that merges reciprocal radicals), each group sum A*sqrt(R) is squared as
    A^2 * R, and a final leading-coefficient comparison of the unsquared
    sides is recorded as an extra obligation.  A first unsquared side that
    vanishes on its first window is instead put through steps 4-6 without
    its radicals, as the identity "radical-free part = 0".
4.  Homogeneity: all terms must share an integral total weight and a common
    residue of sum(k_i n_i) mod 4; the residue fixes the substitution
    exponent m in {1, 2, 4}, applied to Pi indices and combination scales.
5.  The level is N = lcm(2 m lcm(n_i), all combination scales).  Every term
    must be holomorphic: nonnegative cusp orders for the Pi part and
    certified combinations (sum a_d/d = 0 for E2; E4 sums are
    unconditional).  The clearing monomial leaves every Pi exponent
    nonnegative, and as Pi_n = eta(2nz)^4/eta(nz)^2 the order of Pi_n at a
    cusp c/s is a nonnegative multiple of gcd(s,2n)^2 - gcd(s,n)^2 >= 0.
    The orders are still checked: a negative one leaves the identity
    uncertified.  Each monomial's order row over the cusps of a level is
    computed once per process and read from a bounded memo after that, as
    is each level's cusp list.
6.  The terms of both sides are grouped by the quadratic character of their
    Pi part, keyed by ``PiMonomial.character_disc`` (E2 and E4 combinations
    have trivial character).  As M_k(Gamma_1(N)) is the direct sum of the
    spaces M_k(N, chi), the identity holds iff every group's two sums agree,
    and each group's difference lies in one M_k(N, chi), whose Sturm bound
    is that of Gamma_0(N) (Stein, Cor. 9.19).  Each group's sides are
    expanded past the bound floor(k * [SL2(Z):Gamma_0(N)] / 12) + 1, every
    Pi monomial by ``PiMonomial.expand_to``, which stops less than one
    kernel step of q^min(index) past the bound + 4, and every radicand as a
    term sum of its own; the sides are compared below the bound on the
    integer numerators of their difference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PiqError
from .etaq import (
    PiMonomial,
    cusps,
    index_gamma0,
    pi_order_at_cusp,
)
from .ident import (
    IdentityRecord,
    Term,
    build_sides,
    evaluate_to_bound,
    net_clearing_monomial,
    ts_add,
    ts_make,
    ts_mul,
    ts_neg,
    ts_subst,
    _key,
)
from .quasimod import E2Combo, LambertSpec, is_modular_combo, reduce_atom, split_rule
from .series import INF, ScaledSeries, _frac, to_bound


def sturm_bound(level: int, weight: int) -> int:
    """Number of leading coefficients whose vanishing forces a form to zero."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    return (weight * index_gamma0(level)) // 12 + 1


def root_match(f: ScaledSeries, g: ScaledSeries) -> bool:
    """Branch selection after a power comparison.

    Given f^ell = g^ell, the series agree iff their leading exponents and
    leading coefficients are equal (the only real branch with matching
    positive leading terms).
    """
    fe, fc = f.valuation(), f.leading_coefficient()
    ge, gc = g.valuation(), g.leading_coefficient()
    return fe == ge and fc == gc


@dataclass(frozen=True)
class ProveConfig:
    max_coefficients: int = 2000


# First window of the leading-term search on an unsquared side.
ROOT_WINDOW = 8
# Coefficients compared when an identity cannot be certified.
FALLBACK_CHECK_TERMS = 60


@dataclass(frozen=True)
class TermFacts:
    """Per-term certificate data."""

    term: str
    weight: Fraction
    cusp_orders: tuple[tuple[str, str], ...]
    combo_levels: tuple[int, ...]
    character: int  # discriminant D of the character d -> (D/d)


@dataclass(frozen=True)
class Certificate:
    """Facts establishing that the compared difference is a form of the stated
    weight and level, holomorphic at every cusp."""

    weight: int
    level: int
    subst_exponent: int
    clearing: Optional[PiMonomial]
    citations: tuple[str, ...]
    terms: tuple[TermFacts, ...]


@dataclass(frozen=True)
class ProofReport:
    id: str
    verdict: str  # PROVEN | REFUTED | CHECKED | UNCERTIFIED | ERROR
    weight: Optional[int] = None
    level: Optional[int] = None
    subst_exponent: Optional[int] = None
    clearing_multiplier: Optional[PiMonomial] = None
    sturm_bound: Optional[int] = None
    coefficients_compared: int = 0
    detail: str = ""
    mismatch: Optional[tuple[Fraction, Fraction, Fraction]] = None
    certificate: Optional[Certificate] = None

    def tsv_line(self) -> str:
        def show(x):
            return "-" if x is None else str(x)

        return "\t".join(
            [
                self.id,
                self.verdict,
                show(self.weight),
                show(self.level),
                show(self.subst_exponent),
                show(self.sturm_bound),
                str(self.coefficients_compared),
            ]
        )


class _Uncertifiable(PiqError):
    """Internal: the identity cannot be certified by this engine."""


# ---------------------------------------------------------------------------
# Lambert reduction
# ---------------------------------------------------------------------------


def _rewrite(terms, rule, citations: list[str]) -> list[Term]:
    """The terms with every atom that ``rule`` rewrites replaced by its parts.

    A rule gives ((coefficient, factor) parts, citation) or None.  Products
    of parts are multiplied out, a None factor (the constant 1) leaves no
    atom, and an atom without a rule stays as it is.
    """
    out: list[Term] = []
    for t in terms:
        branches = [(t.coef, ())]
        for spec in t.lamberts:
            hit = rule(spec)
            if hit:
                citations.append(hit[1])
            parts = hit[0] if hit else ((1, spec),)
            branches = [(c * a, atoms if f is None else atoms + (f,)) for c, atoms in branches for a, f in parts]
        out.extend(Term(c, t.pi, tuple(sorted(atoms, key=_key)), t.sqrts) for c, atoms in branches)
    return out


def _split_atoms(terms: tuple, citations: list[str]) -> tuple:
    """The term sum with every atom that ``split_rule`` splits replaced by its parts.

    The parts are merged by ``ts_make``, so parts that cancel between terms
    are gone before any atom is reduced.  A sum with no such atom comes back
    as the same tuple.
    """
    if not any(split_rule(s) for t in terms for s in t.lamberts):
        return terms
    return ts_make(_rewrite(terms, split_rule, citations))


def _reduce_side(terms: Sequence[Term]) -> tuple[tuple[Term, ...], list[str]]:
    """Rewrite Lambert atoms to constants and certified combinations.

    Atoms with a split rule are first replaced by their parts, and then
    every atom by the parts ``reduce_atom`` gives it.  Terms with exactly
    one E2 combination and equal other factors fold into one term carrying
    the coefficient-weighted sum; the fold is what turns a list of
    individually quasimodular Lambert sums into one certifiable combination.
    """
    citations: list[str] = []
    out: list[Term] = []
    folds: dict = {}  # (pi, E4 factors, radicals) -> accumulated E2 combination
    for t in _rewrite(_split_atoms(terms, citations), reduce_atom, citations):
        for spec in t.lamberts:
            if isinstance(spec, LambertSpec):
                raise _Uncertifiable(f"irreducible Lambert pattern {spec}")
        for atom in t.sqrts:
            if any(u.lamberts for u in atom.inner):
                raise _Uncertifiable("Lambert series under a radical")
        e2s = [c for c in t.lamberts if isinstance(c, E2Combo)]
        if len(e2s) == 1:
            key = (t.pi, t.lamberts[1:], t.sqrts)  # an E2 key sorts before every E4 key
            folds[key] = folds.get(key, E2Combo.make({})) + e2s[0] * t.coef
        else:
            out.append(t)
    for (pi, e4s, sqrts), total in folds.items():
        if total.terms:
            out.append(Term(Fraction(1), pi, (total,) + e4s, sqrts))
    return ts_make(out), sorted(set(citations))


# ---------------------------------------------------------------------------
# expansion of reduced terms
# ---------------------------------------------------------------------------


def _term_series(t: Term, min_bound: Fraction, roots: dict) -> ScaledSeries:
    """Expansion of a term without its coefficient.

    ``roots`` maps each radical to its square root at this min_bound, so a
    radical shared by several terms is rooted once.
    """
    s = t.pi.expand_to(min_bound)
    window = max(1, math.ceil(min_bound))
    for combo in t.lamberts:
        s = s * combo.expand(window)
    for atom in t.sqrts:
        if atom not in roots:
            roots[atom] = _rts_sum(atom.inner, min_bound).pow(Fraction(1, 2), terms=window)
        s = s * roots[atom]
    return s


def _rts_sum(terms, min_bound: Fraction) -> ScaledSeries:
    """Every term's expansion added onto one integer accumulator."""
    roots: dict = {}
    return ScaledSeries.linear_sum((t.coef, _term_series(t, min_bound, roots)) for t in terms)


def rts_series(terms, min_bound) -> ScaledSeries:
    """Expansion of a reduced term sum with bound at least min_bound.

    A square root loses half its radicand's valuation x0 (a radicand known
    to O(q^b) has a root known to O(q^(b - x0/2))), and a combination
    expanded to ceil(min_bound) loses a negative Pi valuation beside it, so
    the sum can fall short of the request; ``to_bound`` then asks again.
    """
    return to_bound(functools.partial(_rts_sum, terms), min_bound)


def _first_mismatch(s_l: ScaledSeries, s_r: ScaledSeries, start, scale: int, count: int):
    """Earliest (e, cl, cr) with cl != cr over the grid e = start + i/scale, i < count.

    The sides are compared on the integer numerators of their difference,
    and coefficients become Fractions only for the reported mismatch.  With
    no mismatch below the shorter bound, a grid point at or past it raises
    ``InsufficientPrecision``, as asking both sides for it would.  None when
    the sides agree on the whole grid.
    """
    start = _frac(start)
    diff = ScaledSeries.linear_sum(((1, s_l), (-1, s_r)))
    # Entry n of the difference sits at n/diff.scale, which is grid point
    # i = scale * (n/diff.scale - start) when that is an integer.
    num, lat = start.numerator * diff.scale, start.denominator * diff.scale
    for n in diff.nums:
        i, rem = divmod(scale * (n * start.denominator - num), lat)
        if i >= count:
            break
        if i >= 0 and not rem:
            e = start + Fraction(i, scale)
            return e, s_l.coefficient(e), s_r.coefficient(e)
    if diff.bound != INF:
        i = max(0, math.ceil((diff.bound - start) * scale))
        if i < count:
            for side in (s_l, s_r):
                side.coefficient(start + Fraction(i, scale))  # raises past its bound
    return None


# ---------------------------------------------------------------------------
# the prover
# ---------------------------------------------------------------------------


def _signature(t: Term):
    return tuple(a.key() for a in t.sqrts)


# Memo sizes: the levels and the (monomial, level) order rows one process
# keeps; one lifted_mix pass of the benchmark needs 6 levels and about 500 rows.
CUSP_LIST_MEMO_SIZE = 64
CUSP_ROW_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=CUSP_LIST_MEMO_SIZE)
def _cusp_list(level: int) -> tuple:
    """The cusps of Gamma_0(level), once per level."""
    return tuple(cusps(level))


@functools.lru_cache(maxsize=CUSP_ROW_MEMO_SIZE)
def _cusp_row(halves: tuple, level: int) -> tuple[Fraction, ...]:
    """Orders of PiMonomial(halves) over _cusp_list(level), once per pair."""
    mono = PiMonomial(halves)
    return tuple(pi_order_at_cusp(mono, c, level) for c in _cusp_list(level))


def _common_weight(terms) -> Fraction:
    weights = {t.weight for t in terms}
    if len(weights) > 1:
        raise _Uncertifiable(f"non-homogeneous weights [{', '.join(map(str, sorted(weights)))}]")
    return next(iter(weights)) if weights else Fraction(0)


def _common_residue(terms) -> int:
    residues = set()
    for t in terms:
        s = t.pi.exponent_weighted_sum
        for atom in t.sqrts:
            s += atom.inner[0].pi.exponent_weighted_sum / 2
        if s.denominator != 1:
            raise _Uncertifiable(f"non-integral exponent sum {s}")
        residues.add(int(s) % 4)
    if len(residues) > 1:
        raise _Uncertifiable(f"mixed mod-4 residue classes {sorted(residues)}")
    return residues.pop() if residues else 0


def _term_facts(terms, level: int) -> tuple[TermFacts, ...]:
    cusp_list = _cusp_list(level)
    facts = []
    for t in terms:
        orders = _cusp_row(t.pi.halves, level)
        row = tuple((c.label(level), str(o)) for c, o in zip(cusp_list, orders))
        combo_levels = tuple(c.level for c in t.lamberts)
        facts.append(TermFacts(t.describe(), t.weight, row, combo_levels, t.pi.character_disc))
    return tuple(facts)


def prove(rec: IdentityRecord, config: ProveConfig | None = None) -> ProofReport:
    """Run the full certification pipeline on one identity.

    When no certificate can be assembled, the identity is downgraded to a
    plain coefficient check: a mismatch still refutes it, while agreement is
    reported as UNCERTIFIED, never as a pass.
    """
    cfg = config or ProveConfig()
    try:
        return _prove(rec, cfg)
    except _Uncertifiable as exc:
        fallback = check(rec, FALLBACK_CHECK_TERMS)
        if fallback.verdict == "REFUTED":
            return fallback
        detail = str(exc)
        if fallback.verdict == "CHECKED":
            detail += (
                f"; first {fallback.coefficients_compared} coefficients agree"
                " (not a proof)"
            )
        return ProofReport(
            id=rec.id,
            verdict="UNCERTIFIED",
            coefficients_compared=fallback.coefficients_compared,
            detail=detail,
        )
    except PiqError as exc:
        return ProofReport(id=rec.id, verdict="ERROR", detail=f"{type(exc).__name__}: {exc}")


def _prove(rec: IdentityRecord, cfg: ProveConfig) -> ProofReport:
    lhs_t, rhs_t = build_sides(rec)
    if not ts_add(lhs_t, ts_neg(rhs_t)):
        return ProofReport(
            id=rec.id,
            verdict="PROVEN",
            weight=0,
            level=1,
            subst_exponent=1,
            sturm_bound=1,
            coefficients_compared=1,
            detail="sides cancel symbolically",
        )

    lhs, cit_l = _reduce_side(lhs_t)
    rhs, cit_r = _reduce_side(rhs_t)
    return _prove_reduced(rec.id, lhs, rhs, sorted(set(cit_l) | set(cit_r)), cfg)


def _atomless(terms) -> tuple:
    """The term sum with every radical factor divided out."""
    return ts_make(Term(t.coef, t.pi, t.lamberts) for t in terms)


def _square_group(g: tuple) -> tuple:
    """``ts_mul(g, g)`` for terms that share one radical signature: (A*sqrt(R))^2 = A^2 * R."""
    if not g:
        return ()
    # Dropping the shared radicals keeps g's canonical order and merges nothing.
    part = tuple(Term(t.coef, t.pi, t.lamberts) for t in g)
    out = ts_mul(part, part)
    for atom in g[0].sqrts:
        out = ts_mul(out, atom.inner)
    return out


def _prove_reduced(rid: str, lhs, rhs, citations: list, cfg: ProveConfig) -> ProofReport:
    """Steps 3 to 6 for Lambert-reduced sides: radicals, modularity, comparison."""
    squared = False
    root_pair = None
    sigs = sorted({_signature(t) for t in list(lhs) + list(rhs)})
    if any(s for s in sigs):
        attempts = 0
        while len(sigs) > 2 and attempts < 3:
            target = next(s for s in sigs if s)
            carrier = next(t for t in list(lhs) + list(rhs) if _signature(t) == target)
            mult = (Term(Fraction(1), PiMonomial.one(), (), carrier.sqrts),)
            lhs, rhs = ts_mul(lhs, mult), ts_mul(rhs, mult)
            citations.append("radical-merge multiplication")
            sigs = sorted({_signature(t) for t in list(lhs) + list(rhs)})
            attempts += 1
        if len(sigs) > 2:
            raise _Uncertifiable("radical signatures exceed one squaring round")
        if len(sigs) == 1:
            # Every term carries the same radical: divide it out.
            lhs, rhs = _atomless(lhs), _atomless(rhs)
            citations.append("common radical factor cancelled")
        else:
            sig_a, sig_b = sigs
            diff = ts_add(lhs, ts_neg(rhs))
            g1 = tuple(t for t in diff if _signature(t) == sig_a)
            g2 = tuple(t for t in diff if _signature(t) == sig_b)
            root_pair = (g1, ts_neg(g2))
            lhs, rhs = _square_group(g1), _square_group(g2)
            squared = True
            citations.append("one squaring round (radical elimination)")

    net_clear = net_clearing_monomial(lhs + rhs)
    clearing = net_clear if net_clear.halves else None
    if clearing is not None:
        mult = (Term(Fraction(1), net_clear),)
        lhs, rhs = ts_mul(lhs, mult), ts_mul(rhs, mult)

    # All certification data comes from the one-sided difference, where any
    # term shared by both sides (for example split-off combination constants)
    # cancels and imposes no homogeneity constraint.
    diff = ts_add(lhs, ts_neg(rhs))
    weight = _common_weight(diff)
    if weight.denominator != 1:
        raise _Uncertifiable(f"half-integral total weight {weight}")
    for t in diff:
        if t.pi.weight.denominator != 1:
            raise _Uncertifiable(f"half-integral Pi weight in term {t.describe()}")
    residue = _common_residue(diff)
    m = 4 // math.gcd(residue, 4)
    lhs, rhs, diff = ts_subst(lhs, m), ts_subst(rhs, m), ts_subst(diff, m)

    indices = sorted({n for t in diff for n in t.pi.indices()})
    level = 2 * math.lcm(*indices) if indices else 1
    for t in diff:
        for combo in t.lamberts:
            level = math.lcm(level, combo.level)

    cusp_list = _cusp_list(level)
    for t in diff:
        for c, o in zip(cusp_list, _cusp_row(t.pi.halves, level)):
            if o < 0:
                raise _Uncertifiable(
                    f"term {t.describe()} has order {o} at cusp {c.label(level)}"
                )
        if t.sqrts:
            raise _Uncertifiable("radical survived the squaring round")
        for combo in t.lamberts:
            if isinstance(combo, E2Combo) and not is_modular_combo(combo):
                raise _Uncertifiable(
                    f"E2 combination {combo.terms} fails sum a_d/d = 0"
                )

    k = int(weight) if diff else 0
    if k < 0:
        raise _Uncertifiable(f"negative certified weight {k}")
    bound = sturm_bound(level, k)
    if bound > cfg.max_coefficients:
        raise _Uncertifiable(
            f"Sturm bound {bound} exceeds configured ceiling {cfg.max_coefficients}"
        )

    groups: dict[int, tuple[list, list]] = {}
    for side, terms in enumerate((lhs, rhs)):
        for t in terms:
            groups.setdefault(t.pi.character_disc, ([], []))[side].append(t)
    facts = dict(
        id=rid, weight=k, level=level, subst_exponent=m, clearing_multiplier=clearing, sturm_bound=bound
    )
    first = None  # (e, cl, cr) of the earliest mismatch; ties keep the smaller disc
    for disc in sorted(groups):
        s_l, s_r = (rts_series(ts, bound) for ts in groups[disc])
        first = _first_mismatch(s_l, s_r, 0, 1, bound if first is None else first[0]) or first
    if first is not None:
        e, cl, cr = first
        e = int(e)
        return ProofReport(
            **facts,
            verdict="REFUTED",
            coefficients_compared=e + 1,
            detail=f"coefficient mismatch at q^{e}: {cl} vs {cr}",
            mismatch=(Fraction(e), cl, cr),
        )

    if squared:
        citation, info = _check_root_branch(root_pair, cfg)
        if citation is None:
            e, cl, cr = info
            return ProofReport(
                **facts,
                verdict="REFUTED",
                coefficients_compared=bound,
                detail=f"squares agree but leading terms differ at q^{e}: {cl} vs {cr}",
                mismatch=(e, cl, cr),
            )
        citations.append(citation)

    cert = Certificate(
        weight=k,
        level=level,
        subst_exponent=m,
        clearing=clearing,
        citations=tuple(sorted(set(citations))),
        terms=_term_facts(diff, level),
    )
    return ProofReport(**facts, verdict="PROVEN", coefficients_compared=bound, certificate=cert)


def _check_root_branch(root_pair, cfg: ProveConfig):
    """Leading-term comparison of the unsquared sides (the j = 0 branch).

    Returns (citation, None) when the sides agree and (None, (e, cl, cr))
    when their leading terms differ.  The first side is its radicals times a
    radical-free sum; when it is zero on its first window and the prover
    certifies that sum zero, the side is zero, and so is the other side,
    whose square equals its square.
    """
    f_terms, g_terms = root_pair

    def leading(terms, try_zero=False):
        vals = []
        for t in terms:
            v = t.pi.valuation
            for atom in t.sqrts:
                v += min(u.pi.valuation for u in atom.inner) / 2
            vals.append(v)
        start = min(vals) if vals else Fraction(0)
        window = ROOT_WINDOW
        while window <= 512:
            s = rts_series(terms, start + window)
            if not s.is_zero():
                return s
            if try_zero and window == ROOT_WINDOW and _proven_zero(terms, cfg):
                return None
            window *= 2
        raise _Uncertifiable("cannot locate leading coefficient of unsquared side")

    f = leading(f_terms, try_zero=True)
    if f is None:
        return "vanishing unsquared sides (radical-free part proven zero)", None
    g = leading(g_terms)
    if root_match(f, g):
        return "leading-coefficient branch comparison", None
    fe, ge = f.valuation(), g.valuation()
    e = fe if (ge is None or (fe is not None and fe <= ge)) else ge
    cl = f.coefficient(e) if e is not None else Fraction(0)
    cr = g.coefficient(e) if e is not None else Fraction(0)
    return None, (e, cl, cr)


def _proven_zero(terms, cfg: ProveConfig) -> bool:
    """True when the prover certifies the terms' radical-free part as zero."""
    try:
        return _prove_reduced("", _atomless(terms), (), [], cfg).verdict == "PROVEN"
    except _Uncertifiable:
        return False


def check(rec: IdentityRecord, terms: int) -> ProofReport:
    """Non-certifying comparison of the first `terms` lattice coefficients.

    Both sides are evaluated to q^(terms + 4), and once more to the grid's
    end when the grid they fix runs past either bound."""
    if terms < 1:
        raise ValueError("terms must be >= 1")

    def sides(b):
        s_l, s_r = evaluate_to_bound(rec.lhs, b), evaluate_to_bound(rec.rhs, b)
        vals = [v for v in (s_l.valuation(), s_r.valuation()) if v is not None]
        return s_l, s_r, min(vals, default=Fraction(0)), math.lcm(s_l.scale, s_r.scale)

    try:
        s_l, s_r, start, scale = sides(terms + 4)
        need = start + Fraction(terms, scale)
        if min(s_l.bound, s_r.bound) < need:
            # A wider window can only refine the lattice and lower start, so
            # the second evaluation still reaches the grid's last point.
            s_l, s_r, start, scale = sides(need)
        first = _first_mismatch(s_l, s_r, start, scale, terms)
        if first is not None:
            e, cl, cr = first
            return ProofReport(
                id=rec.id,
                verdict="REFUTED",
                coefficients_compared=int((e - start) * scale) + 1,
                detail=f"coefficient mismatch at q^{e}: {cl} vs {cr}",
                mismatch=(e, cl, cr),
            )
        return ProofReport(
            id=rec.id, verdict="CHECKED", coefficients_compared=terms,
            detail=f"first {terms} coefficients agree",
        )
    except PiqError as exc:
        return ProofReport(id=rec.id, verdict="ERROR", detail=f"{type(exc).__name__}: {exc}")
