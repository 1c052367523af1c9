"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import piq
from piq.discover import DiscoveryQuery, enumerate_monomials, gosper_bound, mine
from piq.etaq import Cusp, PiMonomial, cusps_equivalent, pi_to_eta
from piq.haupt import cusp_table, fit_rational
from piq.ident import Add, Const, Mul, Neg, Pi, Pow, Sqrt, Subst, Lambert, parse_expression, parse_identity
from piq.quasimod import E4Combo, LambertSpec, expand_lambert, reduce_atom
from piq.series import ScaledSeries, eta_expansion, psi_expansion
from piq.verify import check, prove, sturm_bound


def _ok(n, message):
    print(f"ACCEPTANCE {n}: PASS  {message}", flush=True)


@pytest.fixture(scope="module")
def corpus():
    return {rec.id: rec for rec in piq.load_corpus()}


@pytest.fixture(scope="module")
def proof_reports(corpus):
    reports = {}
    timings = {}
    for rid in sorted(corpus):
        start = time.perf_counter()
        reports[rid] = prove(corpus[rid])
        timings[rid] = time.perf_counter() - start
    return reports, timings


def test_criterion_1_corpus_proof_sweep(corpus, proof_reports):
    reports, timings = proof_reports
    pi_ids = [rid for rid in corpus if not rid.startswith("La")]
    lambert_ids = [rid for rid in corpus if rid.startswith("La")]
    assert len(pi_ids) == 30
    assert len(lambert_ids) == 17
    failures = {rid: r.verdict for rid, r in reports.items() if r.verdict != "PROVEN"}
    assert not failures, failures
    for rid, rep in reports.items():
        assert rep.subst_exponent in (1, 2, 4), rid
        assert rep.coefficients_compared >= rep.sturm_bound, rid
    total = sum(timings.values())
    worst_id, worst = max(timings.items(), key=lambda kv: kv[1])
    assert total < 60.0, f"sweep took {total:.1f}s"
    assert worst < 5.0, f"{worst_id} took {worst:.1f}s"
    _ok(1, f"47 records PROVEN in {total:.1f}s (worst {worst_id} {worst:.2f}s)")


def test_corpus_tsv_matches_expected_file(proof_reports):
    # The benchmark's reference bytes, read only: one tsv_line() per record in id order.
    reports, _ = proof_reports
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "corpus_prove.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    want = [line for line in lines if line.strip() and not line.startswith("#")]
    assert [reports[rid].tsv_line() for rid in sorted(reports)] == want


def test_criterion_2_sturm_bounds():
    table = {
        (12, 6): 13,
        (40, 10): 61,
        (10, 6): 10,
        (10, 4): 7,
        (12, 2): 5,
        (18, 2): 7,
        (18, 4): 13,
        (18, 8): 25,
        (20, 8): 25,
        (2, 4): 2,
    }
    for (level, weight), want in table.items():
        assert sturm_bound(level, weight) == want, (level, weight)
    _ok(2, f"{len(table)} Sturm bounds match the stated coefficient counts exactly")


PAPER_TABLES = {
    8: {
        "h": ("pi(2)^2/pi(4)^2", {(1, 8): -1, (0, 1): 0, (1, 2): 0, (1, 4): 1}),
        "F1": ("pi(1)^2/(pi(2)*pi(4))", {(1, 8): -1, (0, 1): 0, (1, 2): 1, (1, 4): 0}),
    },
    12: {
        "h": ("pi(2)/pi(6)", {(1, 12): -1, (0, 1): 0, (1, 2): 0, (1, 3): 0, (1, 4): 1, (1, 6): 0}),
        "F1": ("pi(1)*pi(3)/pi(6)^2", {(1, 12): -2, (0, 1): 0, (1, 2): 1, (1, 3): 0, (1, 4): 0, (1, 6): 1}),
        "F2": ("pi(3)^2/pi(1)^2", {(1, 12): 1, (0, 1): 0, (1, 2): -1, (1, 3): 0, (1, 4): -1, (1, 6): 1}),
    },
    16: {
        "h": ("pi(4)/pi(8)", {(1, 16): -1, (0, 1): 0, (1, 2): 0, (1, 4): 0, (3, 4): 0, (1, 8): 1}),
        "F1": ("pi(1)^2/(pi(2)*pi(8))", {(1, 16): -2, (0, 1): 0, (1, 2): 2, (1, 4): 0, (3, 4): 0, (1, 8): 0}),
        "F2": ("pi(1)^4/pi(2)^4", {(1, 16): -1, (0, 1): 0, (1, 2): 4, (1, 4): -1, (3, 4): -1, (1, 8): -1}),
        "F3": ("pi(2)^2/pi(4)^2", {(1, 16): -1, (0, 1): 0, (1, 2): 0, (1, 4): 1, (3, 4): 1, (1, 8): -1}),
    },
    18: {
        "h": (
            "sqrt(pi(1)/pi(9))",
            {(1, 18): -1, (0, 1): 0, (1, 2): 1, (1, 3): 0, (2, 3): 0, (1, 6): 0, (5, 6): 0, (1, 9): 0},
        ),
        "F1": (
            "pi(3)^2/pi(9)^2",
            {(1, 18): -3, (0, 1): 0, (1, 2): 1, (1, 3): 0, (2, 3): 0, (1, 6): 1, (5, 6): 1, (1, 9): 0},
        ),
    },
}


def _column_by_class(table, level, paper_cusp):
    r, s = paper_cusp
    for j, label in enumerate(table.cusp_labels):
        if label == "oo":
            canon = Cusp(1, level)
        elif label == "0":
            canon = Cusp(0, 1)
        else:
            rr, ss = label.split("/")
            canon = Cusp(int(rr), int(ss))
        if cusps_equivalent(level, canon, Cusp(r, s)):
            return j
    raise AssertionError(f"no cusp class matches {paper_cusp} at level {level}")


def test_criterion_3_cusp_tables():
    entries = 0
    for level, spec_rows in PAPER_TABLES.items():
        table = cusp_table(
            level, [(name, parse_expression(dsl)) for name, (dsl, _) in spec_rows.items()]
        )
        rows = dict(table.rows)
        for name, (_, expected) in spec_rows.items():
            for paper_cusp, order in expected.items():
                j = _column_by_class(table, level, paper_cusp)
                assert rows[name][j] == order, (level, name, paper_cusp)
                entries += 1
    _ok(3, f"Tables for levels 8/12/16/18 reproduced entry-for-entry ({entries} entries)")


ACCEPT_FITS = [
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
]


def test_criterion_4_hauptmodul_fits():
    for level, target, h, num, den in ACCEPT_FITS:
        fit = fit_rational(parse_expression(target), parse_expression(h), level)
        assert fit.numerator == num, (level, target, fit.numerator)
        assert fit.denominator == den, (level, target, fit.denominator)
        assert fit.certificate.verdict == "PROVEN"
    _ok(4, f"{len(ACCEPT_FITS)} hauptmodul fits recovered with the exact integer coefficients")


def test_criterion_5_discovery():
    # (a) {1,2,3,6} at degree 2: exactly the level-12 degree-2 relation.
    rels = mine(DiscoveryQuery.make((1, 2, 3, 6), 2))
    assert len(rels) == 1
    stated_order = [
        PiMonomial.make({2: 2}),
        PiMonomial.make({2: 1, 6: 1}),
        PiMonomial.make({1: 1, 3: 1}),
        PiMonomial.make({6: 2}),
    ]
    stated_vector = (1, 2, -1, -3)
    got = rels[0].coefficient_map()
    as_stated = tuple(got.get(m, 0) for m in stated_order)
    assert as_stated in (stated_vector, tuple(-c for c in stated_vector))

    # (b) {1,2,5,10} at degree <= 4: the span of emitted relations contains
    # the level-20 degree-4 relation.
    rels20 = mine(DiscoveryQuery.make((1, 2, 5, 10), 4))
    assert rels20
    target = {
        PiMonomial.make({2: 1, 5: 2, 10: 1}): 5,
        PiMonomial.make({1: 1, 2: 1, 5: 1, 10: 1}): -4,
        PiMonomial.make({1: 2, 2: 1, 10: 1}): 1,
        PiMonomial.make({1: 2, 10: 2}): -1,
        PiMonomial.make({2: 2, 5: 2}): -1,
    }
    residue = {m.exponent_weighted_sum % 4 for m in target}
    assert len(residue) == 1
    residue = int(residue.pop())
    class_monos = enumerate_monomials((1, 2, 5, 10), 4)[residue]
    position = {m.exponents: i for i, m in enumerate(class_monos)}
    target_vec = [0] * len(class_monos)
    for m, c in target.items():
        target_vec[position[m.exponents]] = c

    from piq.discover import _compositions
    from piq.linalg import independent

    span = []
    for rel in rels20:
        for exps in _compositions(4 - rel.degree, 4) if rel.degree < 4 else [(0, 0, 0, 0)]:
            mu = PiMonomial.make(dict(zip((1, 2, 5, 10), exps)))
            if (rel.residue_class + int(mu.exponent_weighted_sum)) % 4 != residue:
                continue
            vec = [0] * len(class_monos)
            for mono, c in rel.coefficient_map().items():
                vec[position[(mono * mu).exponents]] = c
            span.append(vec)
    assert len(span) not in independent(span + [target_vec]), "level-20 relation not in the mined span"

    # (c) a-priori degree bound and (d) two indices mine nothing.
    assert gosper_bound(DiscoveryQuery.make((1, 2, 5, 10))) == 3
    assert mine(DiscoveryQuery.make((1, 2), 6)) == []
    _ok(5, f"degree-2 relation exact, level-20 relation in span of {len(rels20)}, bound 3, two-index search empty")


def test_criterion_6_eisenstein_anchor():
    rep = prove(parse_identity("pi(1)^4 = dl3()", id="anchor"))
    assert rep.verdict == "PROVEN"
    assert rep.weight == 4
    assert rep.level == 2
    assert rep.sturm_bound == 2
    assert rep.coefficients_compared == 2
    _ok(6, "Pi_q^4 = (E4(z) - E4(2z))/240 certified by a 2-coefficient check at weight 4, level 2")


def _mutate_integer_consts(expr):
    """All variants of expr with exactly one integer literal bumped by +1."""
    if isinstance(expr, Const):
        if expr.value.denominator == 1:
            yield Const(expr.value + 1)
        return
    if isinstance(expr, (Pi, Lambert)):
        return
    if isinstance(expr, Neg):
        for child in _mutate_integer_consts(expr.child):
            yield Neg(child)
        return
    if isinstance(expr, Sqrt):
        for child in _mutate_integer_consts(expr.child):
            yield Sqrt(child)
        return
    if isinstance(expr, Subst):
        for child in _mutate_integer_consts(expr.child):
            yield Subst(child, expr.j)
        return
    if isinstance(expr, Pow):
        for child in _mutate_integer_consts(expr.child):
            yield Pow(child, expr.e)
        return
    if isinstance(expr, (Add, Mul)):
        for i, child in enumerate(expr.children):
            for mutated in _mutate_integer_consts(child):
                children = list(expr.children)
                children[i] = mutated
                yield type(expr)(tuple(children))
        return
    raise TypeError(expr)


def test_criterion_7_mutation_suite(corpus, proof_reports):
    reports, _ = proof_reports
    mutated_count = 0
    for rid in ["L8-1", "L12-1", "La4-3a", "La4-3b", "L18-1"]:
        rec = corpus[rid]
        bound = reports[rid].sturm_bound
        variants = [
            (lhs, rec.rhs) for lhs in _mutate_integer_consts(rec.lhs)
        ] + [(rec.lhs, rhs) for rhs in _mutate_integer_consts(rec.rhs)]
        for lhs, rhs in variants:
            mutated = type(rec)(f"{rid}-mut", rec.source, lhs, rhs)
            rep = prove(mutated)
            assert rep.verdict == "REFUTED", (rid, mutated.dsl, rep.verdict, rep.detail)
            assert rep.mismatch is not None
            assert rep.mismatch[0] <= bound, (rid, rep.mismatch, bound)
            mutated_count += 1
    assert mutated_count >= 6
    _ok(7, f"{mutated_count} single-coefficient mutations all REFUTED within the Sturm bound")


def test_criterion_8_oracle_equivalence():
    # Pi_q two ways, 200 coefficients on the quarter lattice.
    T = 205
    psi = psi_expansion(T)
    via_psi = ScaledSeries.monomial(F(1, 4)) * (psi * psi)
    via_eta = pi_to_eta(PiMonomial.make({1: 1}), 2).expand(T)
    for i in range(200):
        e = F(1, 4) + i
        assert via_psi.coefficient(e) == via_eta.coefficient(e)

    # eta pentagonal form against brute-force partial products, 200 terms.
    T = 200
    coeffs = [0] * T
    coeffs[0] = 1
    for n in range(1, T):
        nxt = coeffs[:]
        for i in range(T - n):
            nxt[i + n] -= coeffs[i]
        coeffs = nxt
    eta = eta_expansion(1, T)
    for i in range(T):
        assert eta.coefficient(F(1, 24) + i) == coeffs[i]

    # every registered quasimodular reduction against double-sum enumeration.
    reductions = 0
    for spec in [
        LambertSpec("LAM", 1, 0),
        LambertSpec("LAM", 2, 0),
        LambertSpec("LAM", 3, 0),
        LambertSpec("LAM", 4, 0),
        LambertSpec("LAM", 5, 0),
        LambertSpec("LAM", 9, 0),
        LambertSpec("LAM", 18, 0),
        LambertSpec("LAM", 2, 1),
        LambertSpec("LAM", 4, 2),
        LambertSpec("LAM", 6, 3),
        LambertSpec("LAM", 8, 4),
        LambertSpec("LAM", 10, 5),
        LambertSpec("LAM", 12, 6),
        LambertSpec("LAM", 18, 9),
        LambertSpec("SODD", 1),
    ]:
        parts, _ = reduce_atom(spec)
        total = ScaledSeries.linear_sum(
            (a, ScaledSeries.one() if f is None else f.expand(50)) for a, f in parts
        )
        assert total.agrees_with(expand_lambert(spec, 50), upto=50)
        reductions += 1
    # the two pair rules
    lhs = expand_lambert(LambertSpec("LAM4", 2, 1), 50) * 6 + expand_lambert(LambertSpec("LAM", 2, 1), 50)
    assert lhs.agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))
    e4diff = E4Combo.make({1: F(1, 240), 2: F(-1, 240)})
    assert e4diff.expand(50).agrees_with(expand_lambert(LambertSpec("DL3", 1), 50))
    _ok(8, f"200-term expansion oracles agree; {reductions + 2} reduction rules verified to 50 terms")


SQRT_IDS = ["L12-3", "L18-1", "La10-2", "La18-2", "La18-3"]


def test_criterion_9_square_root_mechanics(corpus, proof_reports):
    reports, _ = proof_reports
    for rid in SQRT_IDS:
        rep = reports[rid]
        assert rep.verdict == "PROVEN", (rid, rep.detail)
        cites = rep.certificate.citations
        assert any("squaring round" in c for c in cites), (rid, cites)
        assert any("branch comparison" in c for c in cites), (rid, cites)
        # Negating the radical-carrying side leaves the squared identity
        # untouched, so only the leading-coefficient branch check can fail.
        rec = corpus[rid]
        flipped = type(rec)(f"{rid}-flip", rec.source, rec.lhs, Neg(rec.rhs))
        rep_flip = prove(flipped)
        assert rep_flip.verdict == "REFUTED", (rid, rep_flip.verdict, rep_flip.detail)
        assert "leading" in rep_flip.detail, (rid, rep_flip.detail)
    _ok(9, f"{len(SQRT_IDS)} radical identities pass squared proof + branch check; sign flips refute")
