"""The three benchmark workloads: their inputs, their known answers and their gates.

Every workload is a list of items.  An item is one call into piq's public API
(one ``prove``, one ``mine`` query or one ``fit_rational``) together with a
check of its result against an answer that was fixed without running the
prover on that input: the seed's TSV report, the construction of a lifted
identity, or the acceptance table of hauptmodul fits.

``build(name, seed, piq)`` is called inside a fresh interpreter after
``import piq``; everything the program receives goes through
``parse_identity``, ``parse_corpus`` or ``parse_expression``.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("corpus_prove", "lifted_mix", "mine_fit")


@dataclass
class Item:
    label: str
    expect: str  # the verdict the construction or reference fixes
    run: Callable[[], object]
    check: Callable[[object], str]  # "" when correct, else why not


# ---------------------------------------------------------------------------
# corpus_prove: the 47 shipped records, proved in id order
# ---------------------------------------------------------------------------


def _expected_tsv() -> dict[str, str]:
    out = {}
    with open(os.path.join(HERE, "expected", "corpus_prove.tsv"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            line = line.rstrip("\n")
            out[line.split("\t", 1)[0]] = line
    return out


def _corpus_items(piq) -> list[Item]:
    expected = _expected_tsv()
    with open(piq.corpus_path(), encoding="utf-8") as fh:
        records = sorted(piq.ident.parse_corpus(fh.read()), key=lambda r: r.id)
    if sorted(expected) != [r.id for r in records]:
        raise SystemExit("corpus ids differ from perfbench/expected/corpus_prove.tsv")

    def make(rec):
        want = expected[rec.id]

        def check(rep):
            if rep.verdict != "PROVEN":
                return f"verdict {rep.verdict}: {rep.detail}"
            if rep.coefficients_compared < rep.sturm_bound:
                return "compared fewer coefficients than the Sturm bound"
            if rep.tsv_line() != want:
                return f"TSV {rep.tsv_line()!r} != seed {want!r}"
            return ""

        return Item(rec.id, "PROVEN", lambda: piq.verify.prove(rec), check)

    return [make(rec) for rec in records]


# ---------------------------------------------------------------------------
# lifted_mix: true Pi identities times a random Pi polynomial, plus mutants
# ---------------------------------------------------------------------------

# (id, lhs, rhs, indices, why chosen).  The text is the corpus record's, kept
# here so that an edit to the corpus does not silently change the workload.
LIFT_BASES = (
    ("L8-1", "pi(1)^2/(pi(2)*pi(4)) - pi(2)^2/pi(4)^2", "4", (1, 2, 4),
     "quotients against a constant side: cross-multiplication and clearing at level 8/16"),
    ("L8-2", "8*pi(2)^2 + 16*pi(4)^2 + pi(2)^4/pi(4)^2", "pi(1)^4/pi(2)^2", (1, 2, 4),
     "negative Pi powers on both sides: the net clearing monomial is nontrivial"),
    ("L12-1", "pi(2)^2 + 2*pi(2)*pi(6)", "pi(1)*pi(3) + 3*pi(6)^2", (1, 2, 3, 6),
     "plain polynomial identity: term-algebra cost with no denominators"),
    ("L12-2", "pi(2)*pi(3)^2/(pi(6)*pi(1)^2)", "(pi(2) - pi(6))/(pi(2) + 3*pi(6))", (1, 2, 3, 6),
     "a sum in a denominator: flattening multiplies the polynomial by two binomials"),
    ("L12-3", "sqrt(pi(2)*pi(6))*(pi(1)^2 - 3*pi(3)^2)", "sqrt(pi(1)*pi(3))*(pi(2)^2 + 3*pi(6)^2)",
     (1, 2, 3, 6),
     "radicals: the squaring round squares the lifted polynomial (largest term counts)"),
    ("L16-1", "pi(1)^2*pi(8)", "pi(2)*(pi(4) + 2*pi(8))^2", (1, 2, 4, 8),
     "level 16 with four indices: more cusps per cusp-order check"),
)

# One slot per mod-4 class of the multiplier, each class once per base: the
# class fixes the substitution exponent and so the level and Sturm bound,
# which dominate an item's cost.  Fixing (degree, class, size) per slot keeps
# the cost of a pass close across seeds; the seed picks the monomials, the
# coefficients and the mutation.
LIFT_SLOTS = ((3, 0), (4, 1), (5, 2), (4, 3))
LIFT_MONOMIALS = 8
LIFT_COEFFS = (1, 9)


def _mono_dsl(indices: tuple[int, ...]) -> str:
    parts = []
    for n, group in itertools.groupby(indices):
        k = len(list(group))
        parts.append(f"pi({n})" if k == 1 else f"pi({n})^{k}")
    return "*".join(parts)


def _poly_dsl(monos, coeffs) -> str:
    return " + ".join(f"{c}*{_mono_dsl(m)}" for m, c in zip(monos, coeffs))


def lifted_identities(seed: int) -> list[tuple[str, str, str]]:
    """(label, dsl, expected verdict) for every lifted item of this seed.

    For a true identity L = R and a homogeneous Pi polynomial P, L*P = R*P
    holds, so it is PROVEN by construction.  Its mutant bumps one coefficient
    of P on one side only; the sides then differ by L times one Pi monomial,
    a nonzero form in the same space, so it is REFUTED by construction.
    """
    rng = random.Random(seed)
    out = []
    for base, lhs, rhs, indices, _why in LIFT_BASES:
        for degree, cls in LIFT_SLOTS:
            pool = [m for m in itertools.combinations_with_replacement(indices, degree)
                    if sum(m) % 4 == cls]
            monos = sorted(rng.sample(pool, min(len(pool), LIFT_MONOMIALS)))
            coeffs = [rng.randint(*LIFT_COEFFS) for _ in monos]
            bumped = list(coeffs)
            bumped[rng.randrange(len(bumped))] += 1
            p, p_mut = _poly_dsl(monos, coeffs), _poly_dsl(monos, bumped)
            label = f"{base}-d{degree}c{cls}"
            out.append((label, f"({lhs})*({p}) = ({rhs})*({p})", "PROVEN"))
            if rng.random() < 0.5:
                mutant = f"({lhs})*({p_mut}) = ({rhs})*({p})"
            else:
                mutant = f"({lhs})*({p}) = ({rhs})*({p_mut})"
            out.append((label + "-mut", mutant, "REFUTED"))
    return out


def _lifted_items(piq, seed: int) -> list[Item]:
    def make(label, dsl, expect):
        rec = piq.ident.parse_identity(dsl, id=label)

        def check(rep):
            if rep.verdict != expect:
                return f"verdict {rep.verdict}, expected {expect}: {rep.detail}"
            if expect == "PROVEN" and rep.coefficients_compared < rep.sturm_bound:
                return "compared fewer coefficients than the Sturm bound"
            if expect == "REFUTED":
                if rep.sturm_bound is None or rep.mismatch is None:
                    return "refuted without a Sturm-bounded mismatch"
                if not rep.mismatch[0] < rep.sturm_bound:
                    return f"mismatch at q^{rep.mismatch[0]} not below bound {rep.sturm_bound}"
            return ""

        return Item(label, expect, lambda: piq.verify.prove(rec), check)

    return [make(*spec) for spec in lifted_identities(seed)]


# ---------------------------------------------------------------------------
# mine_fit: relation mining and the acceptance hauptmodul fits
# ---------------------------------------------------------------------------

# (indices, degree, number of relations mine emits at the seed)
MINE_QUERIES = (((1, 2, 5, 10), 4, 2), ((1, 2, 3, 6), 4, 4), ((1, 2, 4, 8), 4, 3))

# The acceptance table: (level, target, hauptmodul, numerator, denominator).
ACCEPT_FITS = (
    (8, "pi(1)^2/(pi(2)*pi(4))", "pi(2)^2/pi(4)^2", (4, 1), (1,)),
    (12, "pi(1)*pi(3)/pi(6)^2", "pi(2)/pi(6)", (-3, 2, 1), (1,)),
    (12, "pi(3)^2/pi(1)^2", "pi(2)/pi(6)", (-1, 1), (0, 3, 1)),
    (12, "pi(3)^4/pi(6)^4", "pi(2)/pi(6)", (-3, 8, -6, 0, 1), (0, 1)),
    (12, "pi(1)^4/pi(6)^4", "pi(2)/pi(6)", (0, -27, 0, 18, 8, 1), (1,)),
    (12, "pi(3)^3/(pi(1)*pi(6)^2)", "pi(2)/pi(6)", (1, -2, 1), (0, 1)),
    (12, "pi(1)^3/(pi(3)*pi(6)^2)", "pi(2)/pi(6)", (0, 9, 6, 1), (1,)),
    (16, "pi(1)^2/(pi(2)*pi(8))", "pi(4)/pi(8)", (4, 4, 1), (1,)),
    (16, "pi(1)^4/pi(2)^4", "pi(4)/pi(8)", (16, 32, 24, 8, 1), (0, 4, 0, 1)),
    (16, "pi(2)^2/pi(4)^2", "pi(4)/pi(8)", (4, 0, 1), (0, 1)),
    (18, "pi(3)^2/pi(9)^2", "sqrt(pi(1)/pi(9))", (0, 3, -3, 1), (1,)),
)


def _mine_fit_items(piq) -> list[Item]:
    items = []
    for indices, degree, count in MINE_QUERIES:
        query = piq.discover.DiscoveryQuery.make(indices, degree)

        def check(rels, count=count):
            if len(rels) != count:
                return f"{len(rels)} relations, expected {count}"
            bad = [r.dsl for r in rels if r.certificate.verdict != "PROVEN"]
            return f"uncertified relations {bad}" if bad else ""

        items.append(Item(
            f"mine-{'.'.join(map(str, indices))}-d{degree}", f"{count} relations",
            lambda query=query: piq.discover.mine(query), check,
        ))
    for level, target, h, num, den in ACCEPT_FITS:
        t_expr = piq.ident.parse_expression(target)
        h_expr = piq.ident.parse_expression(h)

        def check(fit, num=num, den=den):
            if fit.numerator != num or fit.denominator != den:
                return f"fit {fit.numerator}/{fit.denominator}, expected {num}/{den}"
            if fit.certificate.verdict != "PROVEN":
                return f"fit certificate {fit.certificate.verdict}"
            return ""

        items.append(Item(
            f"fit-N{level}-{target}", "exact fit",
            lambda t=t_expr, hh=h_expr, lv=level: piq.haupt.fit_rational(t, hh, lv), check,
        ))
    return items


def build(name: str, seed: int, piq) -> list[Item]:
    if name == "corpus_prove":
        return _corpus_items(piq)
    if name == "lifted_mix":
        return _lifted_items(piq, seed)
    if name == "mine_fit":
        return _mine_fit_items(piq)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
