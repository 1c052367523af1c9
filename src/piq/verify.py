"""Proof engine: modularity certificates plus Sturm-bounded coefficient checks.

The pipeline for :func:`prove`:

1.  Flatten both sides to cleared polynomial term sums over a common
    denominator (quotients cross-multiplied, negative Pi powers lifted).
2.  Rewrite Lambert atoms: the registered pair rule collapses quartic
    Lambert pairs to the cube sum, the cube sum becomes an E4 difference,
    and the remaining patterns become E2 combinations whose constants are
    split off and merged with the other constant terms.
3.  If radicals remain, one squaring round: terms are grouped by radical
    signature (at most two groups after an optional radical multiplication
    that merges reciprocal radicals), each group sum is squared, and a final
    leading-coefficient comparison of the unsquared sides is recorded as an
    extra obligation.
4.  Homogeneity: all terms must share an integral total weight and a common
    residue of sum(k_i n_i) mod 4; the residue fixes the substitution
    exponent m in {1, 2, 4}, applied to Pi indices and combination scales.
5.  The level is N = lcm(2 m lcm(n_i), all combination scales).  Every term
    must be holomorphic: nonnegative cusp orders for the Pi part (searching
    a clearing monomial if needed) and certified combinations (sum a_d/d = 0
    for E2; E4 sums are unconditional).
6.  Both sides are expanded and compared coefficient by coefficient up to
    the Sturm bound floor(k * [SL2(Z):Gamma_0(N)] / 12) + 1.  The shared
    character is quadratic, and equality of squares reduces that case to the
    trivial-character bound, so the same bound applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PiqError
from .etaq import (
    PiMonomial,
    cusps,
    divisors,
    index_gamma0,
    pi_order_at_cusp,
    pi_to_eta,
)
from .ident import (
    IdentityRecord,
    SqrtAtom,
    Term,
    build_sides,
    parse_expression,
    _build,
    _single_pi_term,
)
from .quasimod import (
    RULE_CUBE_SUM_TO_E4,
    RULE_QUARTIC_PAIR,
    E2Combo,
    LambertSpec,
    is_modular_combo,
    reduce_to_e2,
    rule_cube_sum,
    rule_quartic_pair,
)
from .series import INF, ScaledSeries


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def sturm_bound(level: int, weight: int) -> int:
    """Number of leading coefficients whose vanishing forces a form to zero."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    return (weight * index_gamma0(level)) // 12 + 1


def root_match(f: ScaledSeries, g: ScaledSeries, ell: int = 2) -> bool:
    """Branch selection after an ell-th power comparison.

    Given f^ell = g^ell, the series agree iff their leading exponents and
    leading coefficients are equal (the only real branch with matching
    positive leading terms).
    """
    fe, fc = f.valuation(), f.leading_coefficient()
    ge, gc = g.valuation(), g.leading_coefficient()
    return fe == ge and fc == gc


@dataclass(frozen=True)
class ProveConfig:
    max_clear_weight: int = 16
    max_coefficients: int = 2000
    root_window: int = 8
    fallback_check_terms: int = 60


@dataclass(frozen=True)
class TermFacts:
    """Per-term certificate data."""

    term: str
    weight: Fraction
    cusp_orders: tuple[tuple[str, str], ...]
    combo_levels: tuple[int, ...]


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
# reduced terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RTerm:
    """coef * Pi-monomial * (modular E2 parts) * (E4 sums) * (radicals)."""

    coef: Fraction
    pi: PiMonomial
    e2: tuple[E2Combo, ...] = ()
    e4: tuple[E4Combo, ...] = ()
    sqrts: tuple[SqrtAtom, ...] = ()

    @property
    def weight(self) -> Fraction:
        w = self.pi.weight + 2 * len(self.e2) + 4 * len(self.e4)
        for atom in self.sqrts:
            inner = atom.inner[0]
            w += inner.pi.weight / 2
        return w

    def describe(self) -> str:
        bits = [str(self.coef)]
        for n, k in self.pi.exponents:
            bits.append(f"Pi[{n}]^{k}")
        for c in self.e2:
            inner = " + ".join(f"{a}*E2({d}z)" for d, a in c.terms)
            bits.append(f"({inner})")
        for c in self.e4:
            inner = " + ".join(f"{a}*E4({m}z)" for m, a in c.terms)
            bits.append(f"({inner})")
        for a in self.sqrts:
            bits.append("sqrt(...)")
        return " * ".join(bits)


def _rkey(t: RTerm):
    return (
        t.pi.exponents,
        tuple(c.terms for c in t.e2),
        tuple(c.terms for c in t.e4),
        tuple(a.key() for a in t.sqrts),
    )


def rts_make(terms) -> tuple[RTerm, ...]:
    acc: dict = {}
    for t in terms:
        k = _rkey(t)
        if k in acc:
            acc[k] = RTerm(acc[k].coef + t.coef, t.pi, t.e2, t.e4, t.sqrts)
        else:
            acc[k] = t
    out = [t for t in acc.values() if t.coef != 0]
    out.sort(key=_rkey)
    return tuple(out)


def rts_neg(terms) -> tuple[RTerm, ...]:
    return tuple(RTerm(-t.coef, t.pi, t.e2, t.e4, t.sqrts) for t in terms)


def _combo_sort_key(c):
    return c.terms


def _rterm_mul(t1: RTerm, t2: RTerm) -> list[RTerm]:
    from .ident import ts_mul as _ts_mul

    coef = t1.coef * t2.coef
    pi = t1.pi * t2.pi
    e2 = tuple(sorted(t1.e2 + t2.e2, key=_combo_sort_key))
    e4 = tuple(sorted(t1.e4 + t2.e4, key=_combo_sort_key))
    atoms = sorted(t1.sqrts + t2.sqrts, key=lambda a: a.key())
    extra: list[tuple] = []
    pending = None
    for atom in atoms:
        if pending is None:
            pending = atom
            continue
        if pending == atom:
            extra.append(pending.inner)
            pending = None
            continue
        pending = SqrtAtom(_ts_mul(pending.inner, atom.inner))
        if len(pending.inner) == 1:
            from .ident import _monomial_sqrt

            m = _monomial_sqrt(pending.inner[0])
            if m is not None:
                coef *= m.coef
                pi = pi * m.pi
                pending = None
        elif not pending.inner:
            return []
    out = [RTerm(coef, pi, e2, e4, (pending,) if pending is not None else ())]
    for inner in extra:
        expanded = []
        for rt in out:
            for it in inner:
                if it.lamberts:
                    raise _Uncertifiable("Lambert series under a radical")
                expanded.append(
                    RTerm(rt.coef * it.coef, rt.pi * it.pi, rt.e2, rt.e4, rt.sqrts + it.sqrts)
                )
        out = expanded
    return out


def rts_mul(a, b) -> tuple[RTerm, ...]:
    out: list[RTerm] = []
    for t1 in a:
        for t2 in b:
            out.extend(_rterm_mul(t1, t2))
    return rts_make(out)


def rts_subst(terms, j: int) -> tuple[RTerm, ...]:
    return rts_make(
        RTerm(
            t.coef,
            t.pi.subst(j),
            tuple(sorted((c.scaled(j) for c in t.e2), key=_combo_sort_key)),
            tuple(sorted((c.scaled(j) for c in t.e4), key=_combo_sort_key)),
            tuple(a.subst(j) for a in t.sqrts),
        )
        for t in terms
    )


# ---------------------------------------------------------------------------
# Lambert reduction
# ---------------------------------------------------------------------------


def _apply_pair_rule(terms: Sequence[Term], citations: list[str]) -> list[Term]:
    """Collapse 6*LAM4(2b,b) + LAM(2b,b) pairs into cube-sum atoms."""
    work = list(terms)
    changed = True
    while changed:
        changed = False
        for i, t in enumerate(work):
            quartics = [s for s in t.lamberts if s.kind == "LAM4"]
            if not quartics:
                continue
            spec4 = quartics[0]
            dl3 = rule_quartic_pair(spec4, LambertSpec("LAM", spec4.a, spec4.b))
            if dl3 is None:
                continue
            rest = list(t.lamberts)
            rest.remove(spec4)
            partner_lams = tuple(sorted(rest + [LambertSpec("LAM", spec4.a, spec4.b)], key=lambda s: (s.kind, s.a, s.b)))
            for j, u in enumerate(work):
                if j == i or u.pi != t.pi or u.sqrts != t.sqrts:
                    continue
                if u.lamberts == partner_lams and t.coef == 6 * u.coef:
                    merged_lams = tuple(
                        sorted(rest + [dl3], key=lambda s: (s.kind, s.a, s.b))
                    )
                    work[i] = Term(u.coef, t.pi, merged_lams, t.sqrts)
                    del work[j]
                    citations.append(RULE_QUARTIC_PAIR)
                    changed = True
                    break
            if changed:
                break
    return work


def _reduce_side(terms: Sequence[Term]) -> tuple[tuple[RTerm, ...], list[str]]:
    """Rewrite Lambert atoms to certified combinations and split constants."""
    citations: list[str] = []
    work = _apply_pair_rule(terms, citations)

    # Convert Lambert atoms; E2-style combos keep their constants for now.
    staged = []  # (coef, pi, [E2Combo with const], [E4Combo], sqrts)
    for t in work:
        e2s: list[E2Combo] = []
        e4s: list[E4Combo] = []
        for spec in t.lamberts:
            if spec.kind == "DL3":
                e4s.append(rule_cube_sum(spec))
                citations.append(RULE_CUBE_SUM_TO_E4)
                continue
            combo = reduce_to_e2(spec)
            if combo is None:
                raise _Uncertifiable(f"irreducible Lambert pattern {spec}")
            citations.append(f"{spec} -> E2 combination")
            e2s.append(combo)
        for atom in t.sqrts:
            if any(u.lamberts for u in atom.inner):
                raise _Uncertifiable("Lambert series under a radical")
        staged.append([t.coef, t.pi, e2s, e4s, t.sqrts])

    # Fold groups with exactly one E2 combination each into a single term
    # carrying the coefficient-weighted sum; the fold is what turns a list of
    # individually quasimodular Lambert sums into one certifiable combination.
    groups: dict = {}
    for entry in staged:
        coef, pi, e2s, e4s, sqrts = entry
        key = (
            pi.exponents,
            tuple(c.terms for c in sorted(e4s, key=_combo_sort_key)),
            tuple(a.key() for a in sqrts),
            len(e2s),
        )
        groups.setdefault(key, []).append(entry)
    folded = []
    for key, entries in sorted(groups.items()):
        if key[3] == 1 and len(entries) >= 1:
            total = E2Combo.make({})
            first = entries[0]
            for coef, pi, e2s, e4s, sqrts in entries:
                total = total + e2s[0] * coef
            folded.append([Fraction(1), first[1], [total], first[3], first[4]])
        else:
            folded.extend(entries)

    # Split combination constants into plain terms and keep modular parts.
    out: list[RTerm] = []
    for coef, pi, e2s, e4s, sqrts in folded:
        branches = [(coef, [])]
        for combo in e2s:
            nxt = []
            for c, mods in branches:
                if combo.terms:
                    nxt.append((c, mods + [combo.drop_constant()]))
                if combo.constant != 0:
                    nxt.append((c * combo.constant, mods))
            branches = nxt
        for c, mods in branches:
            out.append(
                RTerm(
                    c,
                    pi,
                    tuple(sorted(mods, key=_combo_sort_key)),
                    tuple(sorted(e4s, key=_combo_sort_key)),
                    tuple(sqrts),
                )
            )
    return rts_make(out), sorted(set(citations))


# ---------------------------------------------------------------------------
# expansion of reduced terms
# ---------------------------------------------------------------------------


def _pi_series(mono: PiMonomial, min_bound) -> ScaledSeries:
    """Expansion of a Pi-monomial with bound at least min_bound."""
    if not mono.exponents:
        return ScaledSeries.one()
    level = 2 * math.lcm(*mono.indices())
    # The expansion is known past valuation + t >= min_bound + 4.
    t = max(8, math.ceil(_frac(min_bound) - mono.valuation) + 4)
    return pi_to_eta(mono, level).expand(t)


def _term_series(t: RTerm, min_bound) -> ScaledSeries:
    s = _pi_series(t.pi, min_bound) * t.coef
    window = max(1, math.ceil(_frac(min_bound)))
    for combo in t.e2:
        s = s * combo.expand(window)
    for combo in t.e4:
        s = s * combo.expand(window)
    for atom in t.sqrts:
        inner = ScaledSeries.zero()
        for it in atom.inner:
            inner = inner + _pi_series(it.pi, min_bound) * it.coef
        s = s * inner.pow(Fraction(1, 2), terms=window)
    return s


def rts_series(terms, min_bound) -> ScaledSeries:
    """Expansion of a reduced term sum with bound at least min_bound."""
    min_bound = _frac(min_bound)
    out = ScaledSeries.zero()
    for t in terms:
        out = out + _term_series(t, min_bound)
    # Guard: operations can only have shrunk the bound below the request if
    # a radical or combination windows interacted; grow windows until met.
    attempt = 0
    while out.bound != INF and out.bound < min_bound and attempt < 6:
        attempt += 1
        out = ScaledSeries.zero()
        for t in terms:
            out = out + _term_series(t, min_bound + attempt * 8)
    return out


# ---------------------------------------------------------------------------
# the prover
# ---------------------------------------------------------------------------


def _signature(t: RTerm):
    return tuple(a.key() for a in t.sqrts)


def _clear_rterms(lhs, rhs, cancel_common: bool = True) -> tuple[tuple, tuple, PiMonomial]:
    """Shift both sides by the net monomial making all Pi exponents >= 0.

    With ``cancel_common`` a positive monomial factor shared by every term is
    divided out as well; a record carrying an explicit clearing hint keeps it.
    """
    mins: dict[int, Fraction] = {}
    first = True
    for t in list(lhs) + list(rhs):
        exps = t.pi.exponent_map()
        if first:
            mins = dict(exps)
            first = False
        else:
            for n in list(mins):
                mins[n] = min(mins[n], exps.get(n, Fraction(0)))
            for n, k in exps.items():
                if n not in mins:
                    mins[n] = min(k, Fraction(0))
    if not cancel_common:
        mins = {n: k for n, k in mins.items() if k < 0}
    net = PiMonomial.make({n: -k for n, k in mins.items() if k != 0})
    if not net.exponents:
        return tuple(lhs), tuple(rhs), net
    mult = (RTerm(Fraction(1), net),)
    return rts_mul(lhs, mult), rts_mul(rhs, mult), net


def _search_clearing(lhs, rhs, level: int, max_weight: int):
    """Breadth-first search for a monomial fixing negative cusp orders.

    Candidates are supported on divisors of the lcm of the present indices,
    carry residue 0 mod 4 (so the substitution stays valid), and are tried in
    increasing weight, ties broken by lexicographically smallest exponents.
    """
    terms = list(lhs) + list(rhs)
    cusp_list = cusps(level)
    worst: dict = {c: Fraction(0) for c in cusp_list}
    for t in terms:
        for c in cusp_list:
            worst[c] = min(worst[c], pi_order_at_cusp(t.pi, c, level))
    if all(v >= 0 for v in worst.values()):
        return None
    indices = sorted({n for t in terms for n, _ in t.pi.exponents})
    if not indices:
        raise _Uncertifiable("negative cusp orders with no Pi support")
    support = [d for d in divisors(math.lcm(*indices)) if level % (2 * d) == 0]

    def candidates(weight):
        def rec(rem, pos):
            if pos == len(support):
                if rem == 0:
                    yield ()
                return
            for k in range(rem, -1, -1):
                for tail in rec(rem - k, pos + 1):
                    yield (k,) + tail

        for exps in rec(weight, 0):
            yield PiMonomial.make(dict(zip(support, exps)))

    for w in range(1, max_weight + 1):
        for mono in candidates(w):
            if mono.exponent_weighted_sum % 4 != 0:
                continue
            if all(
                pi_order_at_cusp(mono, c, level) + worst[c] >= 0 for c in cusp_list
            ):
                return mono
    raise _Uncertifiable(
        f"clearing search exhausted at weight {max_weight} for level {level}"
    )


def _common_weight(terms) -> Fraction:
    weights = {t.weight for t in terms}
    if len(weights) > 1:
        raise _Uncertifiable(f"non-homogeneous weights {sorted(weights)}")
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
    cusp_list = cusps(level)
    facts = []
    for t in terms:
        orders = tuple(
            (c.label(level), str(pi_order_at_cusp(t.pi, c, level))) for c in cusp_list
        )
        combo_levels = tuple(c.level for c in t.e2) + tuple(c.level for c in t.e4)
        facts.append(TermFacts(t.describe(), t.weight, orders, combo_levels))
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
        fallback = check(rec, cfg.fallback_check_terms)
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
    lhs_t, rhs_t, _ = build_sides(rec)
    if rec.hints.clear:
        mono = _parse_clear_hint(rec.hints.clear)
        from .ident import ts_mul as _ts_mul

        mt = (Term(Fraction(1), mono),)
        lhs_t, rhs_t = _ts_mul(lhs_t, mt), _ts_mul(rhs_t, mt)

    from .ident import ts_add, ts_neg

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
    citations = sorted(set(cit_l) | set(cit_r))

    squared = False
    root_pair = None
    sigs = sorted({_signature(t) for t in list(lhs) + list(rhs)})
    if any(s for s in sigs):
        attempts = 0
        while len(sigs) > 2 and attempts < 3:
            target = next(s for s in sigs if s)
            carrier = next(t for t in list(lhs) + list(rhs) if _signature(t) == target)
            mult = (RTerm(Fraction(1), PiMonomial.one(), (), (), carrier.sqrts),)
            lhs, rhs = rts_mul(lhs, mult), rts_mul(rhs, mult)
            citations.append("radical-merge multiplication")
            sigs = sorted({_signature(t) for t in list(lhs) + list(rhs)})
            attempts += 1
        if len(sigs) > 2:
            raise _Uncertifiable("radical signatures exceed one squaring round")
        if len(sigs) == 1:
            # Every term carries the same radical: divide it out.
            atomless = lambda ts: rts_make(
                RTerm(t.coef, t.pi, t.e2, t.e4, ()) for t in ts
            )
            lhs, rhs = atomless(lhs), atomless(rhs)
            citations.append("common radical factor cancelled")
        else:
            sig_a, sig_b = sigs
            diff = rts_make(list(lhs) + list(rts_neg(rhs)))
            g1 = tuple(t for t in diff if _signature(t) == sig_a)
            g2 = tuple(t for t in diff if _signature(t) == sig_b)
            root_pair = (g1, rts_neg(g2))
            lhs, rhs = rts_mul(g1, g1), rts_mul(g2, g2)
            squared = True
            citations.append("one squaring round (radical elimination)")

    lhs, rhs, net_clear = _clear_rterms(lhs, rhs, cancel_common=not rec.hints.clear)

    # All certification data comes from the one-sided difference, where any
    # term shared by both sides (for example split-off combination constants)
    # cancels and imposes no homogeneity constraint.
    diff = rts_make(list(lhs) + list(rts_neg(rhs)))
    weight = _common_weight(diff)
    if weight.denominator != 1:
        raise _Uncertifiable(f"half-integral total weight {weight}")
    for t in diff:
        if t.pi.weight.denominator != 1:
            raise _Uncertifiable(f"half-integral Pi weight in term {t.describe()}")
    residue = _common_residue(diff)
    m = rec.hints.subst or 4 // math.gcd(residue, 4)
    if (residue * m) % 4 != 0:
        raise _Uncertifiable(f"substitution hint {m} does not clear residue {residue}")
    lhs, rhs, diff = rts_subst(lhs, m), rts_subst(rhs, m), rts_subst(diff, m)

    indices = sorted({n for t in diff for n, _ in t.pi.exponents})
    level = 2 * math.lcm(*indices) if indices else 1
    for t in diff:
        for combo in t.e2 + t.e4:
            level = math.lcm(level, combo.level)

    extra_clear = _search_clearing(diff, (), level, cfg.max_clear_weight)
    if extra_clear is not None:
        mult = (RTerm(Fraction(1), extra_clear),)
        lhs, rhs, diff = rts_mul(lhs, mult), rts_mul(rhs, mult), rts_mul(diff, mult)
        net_clear = net_clear * extra_clear
        weight = _common_weight(diff)
        citations.append(f"cusp clearing multiplier {extra_clear.exponents}")

    for t in diff:
        if t.sqrts:
            raise _Uncertifiable("radical survived the squaring round")
        for combo in t.e2:
            if not is_modular_combo(combo):
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

    s_l = rts_series(lhs, bound)
    s_r = rts_series(rhs, bound)
    for e in range(bound):
        cl, cr = s_l.coefficient(e), s_r.coefficient(e)
        if cl != cr:
            return ProofReport(
                id=rec.id,
                verdict="REFUTED",
                weight=k,
                level=level,
                subst_exponent=m,
                clearing_multiplier=net_clear,
                sturm_bound=bound,
                coefficients_compared=e + 1,
                detail=f"coefficient mismatch at q^{e}: {cl} vs {cr}",
                mismatch=(Fraction(e), cl, cr),
            )

    if squared:
        ok, info = _check_root_branch(root_pair, cfg)
        if not ok:
            e, cl, cr = info
            return ProofReport(
                id=rec.id,
                verdict="REFUTED",
                weight=k,
                level=level,
                subst_exponent=m,
                clearing_multiplier=net_clear,
                sturm_bound=bound,
                coefficients_compared=bound,
                detail=f"squares agree but leading terms differ at q^{e}: {cl} vs {cr}",
                mismatch=(e, cl, cr),
            )
        citations.append("leading-coefficient branch comparison")

    cert = Certificate(
        weight=k,
        level=level,
        subst_exponent=m,
        clearing=net_clear if net_clear.exponents else None,
        citations=tuple(sorted(set(citations))),
        terms=_term_facts(diff, level),
    )
    return ProofReport(
        id=rec.id,
        verdict="PROVEN",
        weight=k,
        level=level,
        subst_exponent=m,
        clearing_multiplier=net_clear if net_clear.exponents else None,
        sturm_bound=bound,
        coefficients_compared=bound,
        certificate=cert,
    )


def _check_root_branch(root_pair, cfg: ProveConfig):
    """Leading-term comparison of the unsquared sides (the j = 0 branch)."""
    f_terms, g_terms = root_pair

    def leading(terms):
        vals = []
        for t in terms:
            v = t.pi.valuation
            for atom in t.sqrts:
                v += min(u.pi.valuation for u in atom.inner) / 2
            vals.append(v)
        start = min(vals) if vals else Fraction(0)
        window = cfg.root_window
        while window <= 512:
            s = rts_series(terms, start + window)
            if not s.is_zero():
                return s
            window *= 2
        raise _Uncertifiable("cannot locate leading coefficient of unsquared side")

    f = leading(f_terms)
    g = leading(g_terms)
    if root_match(f, g):
        return True, None
    fe, ge = f.valuation(), g.valuation()
    e = fe if (ge is None or (fe is not None and fe <= ge)) else ge
    cl = f.coefficient(e) if e is not None else Fraction(0)
    cr = g.coefficient(e) if e is not None else Fraction(0)
    return False, (e, cl, cr)


def _parse_clear_hint(text: str) -> PiMonomial:
    expr = parse_expression(text)
    frac = _build(expr)
    mono = _single_pi_term(frac)
    if mono is None or mono.coef != 1:
        raise _Uncertifiable(f"clear hint {text!r} is not a Pi monomial")
    return mono.pi


def check(rec: IdentityRecord, terms: int) -> ProofReport:
    """Non-certifying comparison of the first `terms` lattice coefficients."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    from .ident import evaluate

    try:
        window = terms + 4
        for _ in range(8):
            s_l = evaluate(rec.lhs, window)
            s_r = evaluate(rec.rhs, window)
            scale = math.lcm(s_l.scale, s_r.scale)
            vals = [v for v in (s_l.valuation(), s_r.valuation()) if v is not None]
            start = min(vals) if vals else Fraction(0)
            need = start + Fraction(terms, scale)
            if min(s_l.bound, s_r.bound) >= need:
                break
            window += max(4, math.ceil(need - min(s_l.bound, s_r.bound)) + 2)
        for i in range(terms):
            e = start + Fraction(i, scale)
            cl, cr = s_l.coefficient(e), s_r.coefficient(e)
            if cl != cr:
                return ProofReport(
                    id=rec.id,
                    verdict="REFUTED",
                    coefficients_compared=i + 1,
                    detail=f"coefficient mismatch at q^{e}: {cl} vs {cr}",
                    mismatch=(e, cl, cr),
                )
        return ProofReport(
            id=rec.id, verdict="CHECKED", coefficients_compared=terms,
            detail=f"first {terms} coefficients agree",
        )
    except PiqError as exc:
        return ProofReport(id=rec.id, verdict="ERROR", detail=f"{type(exc).__name__}: {exc}")
