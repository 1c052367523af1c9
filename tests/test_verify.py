import collections
import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import piq
import piq.etaq as etaq_module
import piq.verify as verify_module
from piq.discover import _compositions, _relation_dsl
from piq.errors import InsufficientPrecision
from piq.etaq import PiMonomial, _expansion
from piq.ident import SqrtAtom, Term, _key, _term_mul, build_sides, parse_identity, ts_make, ts_mul
from piq.linalg import kernel_basis, series_window_matrix
from piq.quasimod import E2Combo, E4Combo, LambertSpec, split_rule
from piq.series import ScaledSeries as S
from piq.verify import (
    _first_mismatch,
    _square_group,
    check,
    prove,
    root_match,
    rts_series,
    sturm_bound,
)


class TestSturmBound:
    @pytest.mark.parametrize(
        "level,weight,bound",
        [(12, 6, 13), (40, 10, 61), (18, 8, 25), (10, 6, 10), (2, 4, 2)],
    )
    def test_examples(self, level, weight, bound):
        assert sturm_bound(level, weight) == bound

    def test_weight_zero(self):
        assert sturm_bound(1, 0) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            sturm_bound(4, -2)


class TestRootMatch:
    def test_equal(self):
        s = S.from_terms({0: 1, 1: 1}, 5)
        assert root_match(s, s)

    def test_opposite_branch(self):
        s = S.from_terms({0: 1, 1: 1}, 5)
        assert not root_match(s, -s)

    def test_l12_3_sides(self):
        rec = next(r for r in piq.load_corpus() if r.id == "L12-3")
        lhs = piq.evaluate_to_bound(rec.lhs, F(9, 4))
        rhs = piq.evaluate_to_bound(rec.rhs, F(9, 4))
        assert root_match(lhs, rhs)
        assert lhs.leading_coefficient() > 0


class TestProve:
    def test_l8_1_certificate_numbers(self):
        rep = prove(parse_identity("pi(1)^2/(pi(2)*pi(4)) - pi(2)^2/pi(4)^2 = 4", id="L8-1"))
        assert rep.verdict == "PROVEN"
        assert rep.weight == 3
        assert rep.level == 16
        assert rep.subst_exponent == 2
        assert rep.sturm_bound == 7
        assert rep.coefficients_compared >= rep.sturm_bound

    def test_l12_3_squared_route(self):
        rep = prove(
            parse_identity(
                "sqrt(pi(2)*pi(6))*(pi(1)^2 - 3*pi(3)^2) = sqrt(pi(1)*pi(3))*(pi(2)^2 + 3*pi(6)^2)",
                id="L12-3",
            )
        )
        assert rep.verdict == "PROVEN"
        assert (rep.weight, rep.level, rep.sturm_bound) == (6, 12, 13)
        cites = rep.certificate.citations
        assert any("squaring" in c for c in cites)
        assert any("branch comparison" in c for c in cites)

    def test_half_power_distributes_but_sqrt_of_a_monomial_stays_a_radical(self):
        """A half-integer power of a Pi monomial goes onto its exponents, while
        sqrt() of anything but one Pi atom stays a radical for the squaring
        round, so the two spellings of L12-3 reach different certificates."""
        sides = [
            ("sqrt(pi(2)*pi(6))", "sqrt(pi(1)*pi(3))", "L12-3\tPROVEN\t6\t12\t1\t13\t13", True),
            ("(pi(2)*pi(6))^1/2", "(pi(1)*pi(3))^1/2", "L12-3\tPROVEN\t3\t24\t2\t13\t13", False),
        ]
        for left, right, line, squared in sides:
            rep = prove(parse_identity(
                f"{left}*(pi(1)^2 - 3*pi(3)^2) = {right}*(pi(2)^2 + 3*pi(6)^2)", id="L12-3"
            ))
            assert rep.tsv_line() == line
            assert squared == any("squaring" in c for c in rep.certificate.citations)
        rep = prove(parse_identity("(pi(1)/pi(9))^1/2*pi(9) = pi(1)^1/2*pi(9)^1/2", id="h"))
        assert rep.detail == "sides cancel symbolically"
        rep = prove(parse_identity("sqrt(pi(1)/pi(9))*pi(9) = pi(1)^1/2*pi(9)^1/2", id="s"))
        assert rep.verdict == "PROVEN" and rep.detail != "sides cancel symbolically"
        assert any("squaring" in c for c in rep.certificate.citations)
        # Any rational power that keeps the exponents half-integers moves onto
        # them, as in the evaluator; one that does not is still an error.
        for dsl in ("(pi(1)^2)^1/4 = pi(1)^1/2", "(pi(1)^3)^1/3 = pi(1)"):
            rep = prove(parse_identity(dsl, id="p"))
            assert (rep.verdict, rep.detail) == ("PROVEN", "sides cancel symbolically"), dsl
        rep = prove(parse_identity("pi(1)^1/3 = pi(1)^1/3", id="t"))
        assert (rep.verdict, rep.detail) == (
            "ERROR", "NotPolynomializable: unsupported fractional exponent 1/3"
        )

    @pytest.mark.parametrize("dsl", ["0^0 = 1", "(pi(1)-pi(1))^0 = 1"])
    def test_zero_to_the_zero_is_an_error_in_both_modes(self, dsl):
        rep = prove(parse_identity(dsl))
        assert (rep.verdict, rep.detail) == (
            "ERROR", "NotPolynomializable: 0^0 is undefined for a symbolically zero expression"
        )
        rep = check(parse_identity(dsl), 10)
        assert rep.verdict == "ERROR" and rep.detail.startswith("NotInvertible: 0^0 is undefined")

    def test_mutated_constant_refuted(self):
        rep = prove(parse_identity("pi(1)^2/(pi(2)*pi(4)) - pi(2)^2/pi(4)^2 = 5", id="bad"))
        assert rep.verdict == "REFUTED"
        assert rep.mismatch is not None
        assert rep.mismatch[0] <= rep.sturm_bound

    def test_non_homogeneous_false_identity_refuted_by_fallback(self):
        rep = prove(parse_identity("pi(1)*pi(3) + pi(2) = pi(2)^2", id="mixed"))
        assert rep.verdict == "REFUTED"

    def test_true_but_unrecognized_pattern_is_uncertified(self):
        # a genuine identity built from patterns outside the reduction rules
        rep = prove(parse_identity("lam(3,1) + lam(3,2) = lam(1,0) - lam(3,0)", id="offrule"))
        assert rep.verdict == "UNCERTIFIED"
        assert "agree" in rep.detail

    def test_bare_constant_uncertified_or_refuted(self):
        rep = prove(parse_identity("pi(1)*pi(3) + 1 = pi(2)^2", id="const"))
        assert rep.verdict in ("UNCERTIFIED", "REFUTED")

    def test_irreducible_lambert_is_checked_not_passed(self):
        # A quartic pair need not stand at 6:1: its split leaves lam(2,1) on
        # both sides, and they cancel.
        rep = prove(parse_identity("6*lam4(2,1) + 2*lam(2,1) = dl3() + lam(2,1)", id="pair"))
        assert rep.verdict == "PROVEN"
        assert "lam4-pair-to-cube-sum" in rep.certificate.citations
        # true (corpus L12-1 times lam(3,1)), but lam(3,1) has no rule
        rep = prove(parse_identity(
            "lam(3,1)*(pi(2)^2 + 2*pi(2)*pi(6)) = lam(3,1)*(pi(1)*pi(3) + 3*pi(6)^2)", id="nopair"
        ))
        assert rep.verdict == "UNCERTIFIED"
        assert rep.detail.startswith("irreducible Lambert pattern lam(3,1)")
        assert "not a proof" in rep.detail
        rep2 = prove(parse_identity("lam(3,1) = lam(3,1) + 0", id="samepattern"))
        assert rep2.verdict == "PROVEN"  # sides cancel symbolically
        rep3 = prove(parse_identity("lam(3,2) + pi(1)*pi(3) = lam(3,1)", id="irred"))
        assert rep3.verdict == "REFUTED"

    def test_trivial_identity(self):
        rep = prove(parse_identity("1 = 1", id="one"))
        assert rep.verdict == "PROVEN"


class TestCertificatePins:
    """Reduced terms of three Lambert records, pinned in full: their order, the
    text of each term and the levels of its combinations."""

    E2_1_2 = "(-1/24*E2(1z) + 1/12*E2(2z))"
    A = "(-1/8*E2(2z) + 1/8*E2(4z) + 9/8*E2(18z) + -9/8*E2(36z))"
    B = "(-1/24*E2(2z) + 1/24*E2(4z) + 3/8*E2(18z) + -3/8*E2(36z))"
    C = "(-1/8*E2(2z) + 9/8*E2(18z))"
    PINS = {
        "La2-1b": (
            4, 2, 1, None,
            ("cube-sum-to-E4-difference",),
            (
                ("-1 * (1/240*E4(1z) + -1/240*E4(2z))", (2,)),
                ("1 * Pi[1]^4", ()),
            ),
        ),
        "La4-1": (
            4, 4, 1, None,
            ("lam(1,0) -> E2 combination", "lam(2,0) -> E2 combination"),
            (
                ("-1/24 * Pi[1]^4", ()),
                (f"1 * Pi[2]^2 * {E2_1_2}", (2,)),
                ("-2/3 * Pi[2]^4", ()),
            ),
        ),
        "La18-3": (
            6, 36, 2, {1: F(-1), 9: F(-1)},
            (
                "lam(1,0) -> E2 combination",
                "lam(18,9) -> E2 combination",
                "lam(2,1) -> E2 combination",
                "lam(9,0) -> E2 combination",
                "leading-coefficient branch comparison",
                "one squaring round (radical elimination)",
            ),
            (
                (f"-2 * Pi[2]^1 * Pi[18]^1 * {A} * {B}", (36, 36)),
                (f"1 * Pi[2]^1 * Pi[18]^1 * {C} * {C}", (18, 18)),
                (f"-1 * Pi[2]^2 * {B} * {B}", (36, 36)),
                (f"-1 * Pi[18]^2 * {A} * {A}", (36, 36)),
            ),
        ),
    }

    @pytest.mark.parametrize("rid", sorted(PINS))
    def test_certificate(self, rid):
        weight, level, m, clearing, citations, terms = self.PINS[rid]
        rec = next(r for r in piq.load_corpus() if r.id == rid)
        cert = prove(rec).certificate
        assert (cert.weight, cert.level, cert.subst_exponent) == (weight, level, m)
        assert cert.clearing == (None if clearing is None else PiMonomial.make(clearing))
        assert cert.citations == citations
        assert tuple((tf.term, tf.combo_levels) for tf in cert.terms) == terms
        assert all(tf.weight == weight for tf in cert.terms)

    # Cusp orders of every certificate term, in cusp order: L8-1 needs no
    # clearing multiplier, La18-3 carries the net multiplier Pi[1]^-1 Pi[9]^-1.
    ORDERS = {
        "L8-1": (
            ("0", "1/2", "1/4", "3/4", "1/8", "oo"),
            (
                ("0", "0", "1", "1", "1", "3"),
                ("0", "0", "0", "0", "1", "5"),
                ("0", "0", "0", "0", "3", "3"),
            ),
        ),
        "La18-3": (
            ("0", "1/2", "1/3", "2/3", "1/4", "1/6", "5/6", "1/9", "1/12", "5/12", "1/18", "oo"),
            (
                ("0", "0", "0", "0", "5", "0", "0", "0", "1", "1", "0", "5"),
                ("0", "0", "0", "0", "5", "0", "0", "0", "1", "1", "0", "5"),
                ("0", "0", "0", "0", "9", "0", "0", "0", "1", "1", "0", "1"),
                ("0", "0", "0", "0", "1", "0", "0", "0", "1", "1", "0", "9"),
            ),
        ),
    }

    @pytest.mark.parametrize("rid", sorted(ORDERS))
    def test_cusp_orders(self, rid):
        labels, rows = self.ORDERS[rid]
        rec = next(r for r in piq.load_corpus() if r.id == rid)
        cert = prove(rec).certificate
        assert tuple(tf.cusp_orders for tf in cert.terms) == tuple(
            tuple(zip(labels, row)) for row in rows
        )


class TestE4Atoms:
    def test_cube_sum_as_e4_difference_proven(self):
        rep = prove(parse_identity("dl3() = 1/240*E4(1) - 1/240*E4(2)", id="e4"))
        assert rep.verdict == "PROVEN"
        assert (rep.weight, rep.level, rep.sturm_bound) == (4, 2, 2)
        assert "E4(1) -> E4 combination" in rep.certificate.citations

    def test_substituted_cube_sum_proven_at_level_4(self):
        rep = prove(parse_identity("subst(dl3(),2) = 1/240*E4(2) - 1/240*E4(4)", id="e4s"))
        assert rep.verdict == "PROVEN"
        assert rep.level == 4

    def test_mutant_refuted_at_constant_term(self):
        rep = prove(parse_identity("dl3() = 1/241*E4(1) - 1/240*E4(2)", id="e4m"))
        assert rep.verdict == "REFUTED"
        assert rep.mismatch[0] == 0


class TestPairRuleInEngine:
    @staticmethod
    def _terms(c4, c2, scale=1):
        one = PiMonomial.one()
        return (
            Term(F(c4), one, (LambertSpec("LAM4", 2 * scale, scale),)),
            Term(F(c2), one, (LambertSpec("LAM", 2 * scale, scale),)),
        )

    def test_collapses_at_ratio_6_with_partner_coefficient(self):
        cites = []
        out = verify_module._rewrite(self._terms(12, 2, 3), split_rule, cites)
        assert out == (Term(F(2), PiMonomial.one(), (LambertSpec("DL3", 3),)),)
        assert cites == ["lam4-pair-to-cube-sum"]

    def test_wrong_ratio_splits_into_both_parts(self):
        cites = []
        out = verify_module._rewrite(self._terms(5, 1), split_rule, cites)
        assert out == (
            Term(F(5, 6), PiMonomial.one(), (LambertSpec("DL3", 1),)),
            Term(F(1, 6), PiMonomial.one(), (LambertSpec("LAM", 2, 1),)),
        )
        assert cites == ["lam4-pair-to-cube-sum"]

    def test_side_without_quartic_atom_is_the_same_tuple(self):
        cites = []
        terms = ts_make([Term(F(3), _pm({1: 2}), (LambertSpec("LAM", 2, 1),)), Term(F(1), _pm({2: 1}))])
        assert verify_module._rewrite(terms, split_rule, cites) is terms
        assert cites == []

    def test_product_of_quartic_atoms_multiplies_out(self):
        lam4, dl3, lam = LambertSpec("LAM4", 2, 1), LambertSpec("DL3", 1), LambertSpec("LAM", 2, 1)
        cites = []
        out = verify_module._rewrite((Term(F(36), PiMonomial.one(), (lam4, lam4)),), split_rule, cites)
        one = PiMonomial.one()
        assert out == ts_make([
            Term(F(1), one, (dl3, dl3)), Term(F(-2), one, (dl3, lam)), Term(F(1), one, (lam, lam))
        ])
        assert cites == ["lam4-pair-to-cube-sum"] * 2


class TestLambertPairsInOtherRatios:
    """c*(6*lam4(2b,b) + lam(2b,b))*M plus d*lam(2b,b)*M on both sides: true
    for every c and d, and at 6:1 only when d = 0."""

    MONOMIALS = ("1", "pi(1)^2", "pi(2)*pi(6)", "pi(4)^4")

    @classmethod
    def _cases(cls, seed):
        rng = random.Random(seed)
        for b, mono in itertools.product((1, 2, 3), cls.MONOMIALS):
            c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            yield b, mono, c, F(rng.choice([-2, -1, 1, 2, 5]))

    @staticmethod
    def _dsl(b, mono, c4, c2, c3, d):
        lam4, lam, dl3 = f"lam4({2 * b},{b})", f"lam({2 * b},{b})", f"subst(dl3(),{b})"
        return f"({c4}*{lam4} + {c2}*{lam})*{mono} = ({c3}*{dl3} + {d}*{lam})*{mono}"

    def test_true_pairs_proven_and_mutants_not(self):
        # d is never 0, so no case stands at the 6:1 ratio alone.
        for b, mono, c, d in self._cases(20261019):
            rec = parse_identity(self._dsl(b, mono, 6 * c, c + d, c, d), id="pair")
            rep = prove(rec)
            assert rep.verdict == "PROVEN", (rec.dsl, rep.detail)
            assert "lam4-pair-to-cube-sum" in rep.certificate.citations
            assert check(rec, 6 * rep.sturm_bound + 40).verdict == "CHECKED", rec.dsl
            for mutant in (
                self._dsl(b, mono, 6 * c + 1, c + d, c, d),
                self._dsl(b, mono, 6 * c, c + d + 1, c, d),
                self._dsl(b, mono, 6 * c, c + d, c + 1, d),
            ):
                rep = prove(parse_identity(mutant, id="mutant"))
                assert rep.verdict != "PROVEN", (mutant, rep.detail)


class TestLambertProducts:
    """Five corpus-true Lambert identities times reducible atoms, their
    products, and modular controls, in three shapes."""

    IDENTITIES = (
        ("lam(1,0) - 4*lam(4,0)", "1/8*(pi(1)^4/pi(2)^2 - 1)"),
        ("lam(2,1) - 2*lam(4,2)", "pi(2)^2"),
        ("sodd()", "pi(2)^2"),
        ("lam(1,0) - 2*lam(2,0)", "1/24*(pi(1)^4/pi(2)^2 - 1) + 2/3*pi(2)^2"),
        ("lam(2,1) - 3*lam(6,3)", "pi(1)*pi(3)"),
    )
    MULTIPLIERS = ("lam(1,0)", "sodd()", "E2(1)", "lam(1,0)^2", "lam(2,1)", "E4(1)", "dl3()",
                   "lam(1,0)*sodd()", "pi(1)^2")
    SHAPES = ("({l})*{m} = ({r})*{m}", "{m}*({l}) + {m} = {m}*({r}) + {m}", "({l})*{m} - ({r})*{m} = 0")

    def _grid(self, mutate=False):
        for (l, r), m, shape in itertools.product(self.IDENTITIES, self.MULTIPLIERS, self.SHAPES):
            r = r + " + 1/7*pi(2)^2" if mutate else r
            yield parse_identity(shape.format(l=l, r=r, m=m), id="grid")

    def test_verdicts_and_checks(self):
        verdicts = collections.Counter()
        for rec in self._grid():
            rep = prove(rec)
            verdicts[rep.verdict] += 1
            if rep.verdict == "PROVEN":
                assert check(rec, 6 * rep.sturm_bound + 40).verdict == "CHECKED", rec.dsl
        assert verdicts == {"PROVEN": 135}

    def test_mutants_are_refuted_below_the_bound(self):
        for rec in self._grid(mutate=True):
            rep = prove(rec)
            assert rep.verdict == "REFUTED" and rep.sturm_bound is not None, (rec.dsl, rep.detail)
            assert rep.mismatch[0] < rep.sturm_bound, rec.dsl

    def test_one_e2_combination_left_after_the_multiply_out_is_folded(self):
        # lam(1,0)*sodd() splits into 1/24*sodd() and an E2 product; the
        # first folds with the other one-E2 terms.  The E2(z) parts split
        # off the products cancel, so the difference is one form of weight 6.
        dsl = "(lam(1,0) - 4*lam(4,0))*sodd() = (1/8*(pi(1)^4/pi(2)^2 - 1))*sodd()"
        rep = prove(parse_identity(dsl))
        assert (rep.verdict, rep.weight, rep.detail) == ("PROVEN", 6, "")
        assert "E2(z) split off every E2 combination with sum a_d/d != 0" in rep.certificate.citations

    def test_refuted_names_its_part(self):
        # lam(1,0) = 1/24 - E2(z)/24: the parts (0, 2) and (1, 4) differ by
        # 1/24 and -1/24 times pi(2)^2 - pi(1)*pi(3), first at q^2.
        rep = prove(parse_identity("lam(1,0)*pi(2)^2 = lam(1,0)*pi(1)*pi(3)"))
        assert (rep.verdict, rep.weight, rep.sturm_bound, rep.coefficients_compared) == ("REFUTED", 4, 9, 3)
        assert rep.detail == "coefficient mismatch at q^2 in the part of E2 degree 0 and weight 2: 0 vs 1/12"
        assert rep.mismatch == (2, 0, F(1, 12))
        rep = prove(parse_identity("E2(1)*pi(2)^2 = E2(1)*pi(1)*pi(3)"))
        assert rep.detail == "coefficient mismatch at q^2 in the part of E2 degree 1 and weight 4: 0 vs 2"
        # One part of E2 degree 0 keeps the plain text.
        rep = prove(parse_identity("pi(2)^2 = pi(1)*pi(3)"))
        assert rep.detail == "coefficient mismatch at q^2: 0 vs 2"

    def test_proven_cites_its_parts(self):
        l, r = "pi(2)^2 + 2*pi(2)*pi(6)", "pi(1)*pi(3) + 3*pi(6)^2"
        rep = prove(parse_identity(f"lam(1,0)*({l}) = lam(1,0)*({r})"))
        assert (rep.verdict, rep.weight, rep.sturm_bound) == ("PROVEN", 4, 9)
        assert "compared by parts (E2 degree, weight): (0, 2), (1, 4)" in rep.certificate.citations
        rep = prove(parse_identity(f"E2(1)*({l}) = E2(1)*({r})"))
        assert "compared by parts (E2 degree, weight): (1, 4)" in rep.certificate.citations
        rep = prove(parse_identity(f"{l} = {r}"))
        assert not any(c.startswith("compared by parts") for c in rep.certificate.citations)

    FACTORS = ("lam(1,0)", "lam(2,0)", "lam(2,1)", "sodd()", "E2(1)", "E2(2)", "E4(1)", "dl3()",
               "pi(4)", "pi(2)^2", "pi(1)*pi(3)")

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_random_multiplier_proven_only_when_true(self, data):
        # A true base times a sum of products of atoms and Pi monomials, of
        # mixed weights, is PROVEN only if it also checks far past the
        # bound, and its mutant is never PROVEN.
        l, r = data.draw(st.sampled_from(self.IDENTITIES))
        products = data.draw(st.lists(st.lists(st.sampled_from(self.FACTORS), min_size=1, max_size=3),
                                      min_size=1, max_size=2))
        m = " + ".join("*".join(p) for p in products)
        rec = parse_identity(f"({l})*({m}) = ({r})*({m})", id="prop")
        rep = prove(rec)
        if rep.verdict == "PROVEN":
            assert check(rec, 6 * rep.sturm_bound + 40).verdict == "CHECKED", rec.dsl
        mutant = parse_identity(f"({l})*({m}) = ({r} + 1/7*pi(2)^2)*({m})", id="prop-mut")
        assert prove(mutant).verdict != "PROVEN", mutant.dsl


class TestProvenSoundnessSpotChecks:
    @pytest.mark.parametrize("rid", ["L8-1", "L12-1", "L16-1", "La6-2", "La4-2"])
    def test_check_mode_confirms_proofs(self, rid):
        rec = next(r for r in piq.load_corpus() if r.id == rid)
        proven = prove(rec)
        assert proven.verdict == "PROVEN"
        confirmed = check(rec, 2 * proven.sturm_bound)
        assert confirmed.verdict == "CHECKED"

    def test_minimal_subst_exponent(self):
        for rid in ["L8-1", "L12-1", "L18-5", "L20-5"]:
            rec = next(r for r in piq.load_corpus() if r.id == rid)
            rep = prove(rec)
            assert rep.subst_exponent in (1, 2, 4)


class TestCheck:
    def test_la2_1_first_equality(self):
        rec = parse_identity("6*lam4(2,1) + lam(2,1) = dl3()", id="La2-1a")
        rep = check(rec, 100)
        assert rep.verdict == "CHECKED"
        assert rep.coefficients_compared == 100
        assert prove(rec).verdict == "PROVEN"  # the pair rule fires

    def test_corpus_sanity_sweep_30_terms(self):
        for rec in piq.load_corpus()[:8]:
            rep = check(rec, 30)
            assert rep.verdict == "CHECKED", (rec.id, rep.detail)

    def test_trivial(self):
        assert check(parse_identity("1 = 1"), 1).verdict == "CHECKED"

    def test_check_refutes(self):
        rep = check(parse_identity("pi(1)*pi(3) = pi(2)^2"), 10)
        assert rep.verdict == "REFUTED"
        assert rep.mismatch is not None

    @staticmethod
    def _spy_bounds(monkeypatch):
        bounds = []
        real = verify_module.evaluate_to_bound

        def spy(expr, b):
            bounds.append(b)
            return real(expr, b)

        monkeypatch.setattr(verify_module, "evaluate_to_bound", spy)
        return bounds

    @pytest.mark.parametrize("terms", [1, 30, 100])
    def test_corpus_checks_take_at_most_two_rounds(self, terms, monkeypatch):
        bounds = self._spy_bounds(monkeypatch)
        for rec in piq.load_corpus():
            bounds.clear()
            check(rec, terms)
            assert len(bounds) <= 4, (rec.id, terms, bounds)

    def test_second_round_reaches_the_grid(self, monkeypatch):
        # lam(20,1) is zero through the first window, q^9, while pi(80)
        # starts at q^20, so the grid of 5 from q^20 ends past it.  The
        # second round, at q^25, finds lam(20,1)'s q^19 and lowers the start.
        bounds = self._spy_bounds(monkeypatch)
        rep = check(parse_identity("lam(20,1) = pi(80)"), 5)
        assert bounds == [9, 9, 25, 25]
        assert rep.verdict == "REFUTED" and rep.mismatch == (19, 1, 0)


class TestClearingSearch:
    """Clearing and holomorphy: cusp orders add under multiplication, and a
    term left with a pole is refused by name."""

    def test_clearing_adds_its_cusp_orders(self):
        # Cusp orders add over products of Pi monomials: a term's order
        # after clearing is its own plus the clearing multiplier's.
        from piq.etaq import cusps, pi_order_at_cusp

        terms = (Term(F(1), PiMonomial.make({1: -1, 2: 2})), Term(F(1), PiMonomial.make({1: 3})))
        mono = PiMonomial.make({1: 2, 2: 1})
        rng = random.Random(7)
        monos = [t.pi for t in terms] + [
            PiMonomial.make({n: F(rng.randint(-6, 6), 2) for n in (1, 2, 3, 6)}) for _ in range(20)
        ]
        for p in monos:
            for c in cusps(24):
                direct = pi_order_at_cusp(p * mono, c, 24)
                assert direct == pi_order_at_cusp(p, c, 24) + pi_order_at_cusp(mono, c, 24)

    def test_negative_cusp_order_is_uncertified(self, monkeypatch):
        # Both sides arrive multiplied by Pi[1]^-2 Pi[2]^3.  The clearing
        # monomial takes that factor off again; without it the term keeps
        # order -1/2 at the cusp 1/2 of level 4.
        from piq.etaq import Cusp, pi_order_at_cusp
        from piq.ident import ts_mul

        pole = PiMonomial.make({1: -2, 2: 3})
        assert pi_order_at_cusp(pole, Cusp(1, 2), 4) == F(-1, 2)
        build, factor = verify_module.build_sides, (Term(F(1), pole),)
        monkeypatch.setattr(
            verify_module, "build_sides", lambda rec: tuple(ts_mul(s, factor) for s in build(rec))
        )
        rec = parse_identity("sodd() = pi(2)^2", id="sodd-pole")
        assert prove(rec).verdict == "PROVEN"
        monkeypatch.setattr(verify_module, "net_clearing_monomial", lambda terms: PiMonomial.one())
        rep = prove(rec)
        assert rep.verdict == "UNCERTIFIED"
        assert "order -1/2 at cusp 1/2" in rep.detail

    def test_refuted_without_clearing_multiplier_reports_none(self):
        # An L8-2 mutant: its cross-multiplied sides share no Pi factor.
        rep = prove(parse_identity(
            "9*pi(2)^2 + 16*pi(4)^2 + pi(2)^4/pi(4)^2 = pi(1)^4/pi(2)^2", id="L8-2-mut"
        ))
        assert rep.verdict == "REFUTED"
        assert rep.sturm_bound is not None  # refuted by the prover, not the fallback
        assert rep.clearing_multiplier is None

    def test_refuted_with_clearing_multiplier_keeps_it(self):
        # A La10-2 mutant: after the squaring round every term carries Pi[5]^8.
        rep = prove(parse_identity(
            "(lam(2,1) - 5*lam(10,5))/pi(5)^2"
            " = sqrt(pi(1)^3/pi(5)^3 - 2*pi(1)^2/pi(5)^2 + 6*pi(1)/pi(5))",
            id="La10-2-mut",
        ))
        assert rep.verdict == "REFUTED"
        assert rep.clearing_multiplier == PiMonomial.make({5: -8})


class TestRootBranchRefutation:
    def test_sign_flip_refutes(self):
        rep = prove(
            parse_identity(
                "pi(3)^2 + 3*pi(1)*pi(9) = -sqrt(pi(1)*pi(9))*(pi(1) + 3*pi(9))",
                id="L18-1-flipped",
            )
        )
        assert rep.verdict == "REFUTED"
        assert "leading" in rep.detail


class TestVanishingRootBranch:
    """A squaring round whose unsquared sides are both identically zero."""

    # Corpus L12-1 times a radical binomial: both unsquared groups vanish.
    DSL = (
        "(pi(2) + sqrt(pi(1)*pi(3)))*(pi(2)^2 + 2*pi(2)*pi(6))"
        " = (pi(2) + sqrt(pi(1)*pi(3)))*(pi(1)*pi(3) + {}*pi(6)^2)"
    )

    def test_proven(self):
        rec = parse_identity(self.DSL.format(3))
        rep = prove(rec)
        assert rep.tsv_line() == "inline\tPROVEN\t6\t12\t1\t13\t13"
        assert (
            "vanishing unsquared sides (radical-free part proven zero)"
            in rep.certificate.citations
        )
        assert check(rec, 6 * rep.sturm_bound).verdict != "REFUTED"

    def test_mutant_refuted(self):
        rep = prove(parse_identity(self.DSL.format(2)))
        assert rep.verdict == "REFUTED"
        assert rep.detail == "coefficient mismatch at q^8: 0 vs 2"


def _reference_rts_series(terms, min_bound):
    """rts_series as one Fraction series per term, added one by one."""

    def term_series(t, b):
        s = t.pi.expand_to(b) * t.coef
        window = max(1, math.ceil(b))
        for combo in t.lamberts:
            s = s * combo.expand(window)
        for atom in t.sqrts:
            inner = S.zero()
            for it in atom.inner:
                inner = inner + it.pi.expand_to(b) * it.coef
            s = s * inner.pow(F(1, 2), terms=window)
        return s

    def total(b):
        out = S.zero()
        for t in terms:
            out = out + term_series(t, b)
        return out

    min_bound = F(min_bound)
    b = min_bound
    while True:
        out = total(b)
        if out.bound == math.inf or out.bound >= min_bound:
            return out
        b += max(4, math.ceil(min_bound - out.bound) + 2)


class TestRtsSeriesGuard:
    def test_radicand_valuation_forces_a_retry(self, monkeypatch):
        # sqrt(pi(1)^40): the radicand has valuation 10, so its root is known
        # 5 short of the radicand's bound, which stops just past 40 + 4; the
        # retry asks for the shortfall plus 2, at least 4, more.
        terms = (Term(F(1), PiMonomial.one(), (), (SqrtAtom((Term(F(1), _pm({1: 40})),)),)),)
        calls = []
        real = verify_module._rts_sum

        def counting(ts, min_bound):
            if ts is terms:  # not the radicand's own sum
                calls.append(min_bound)
            return real(ts, min_bound)

        monkeypatch.setattr(verify_module, "_rts_sum", counting)
        got = rts_series(terms, 40)
        monkeypatch.undo()
        assert calls == [40, 44]
        assert got.bound >= 40
        assert _fields(got) == _fields(_reference_rts_series(terms, 40))


def _fields(s):
    return s.scale, s.den, tuple(s.nums.items()), s.bound


def _pm(exps):
    return PiMonomial.make(exps)


class TestRtsSeriesIntegerSum:
    """The integer term sum equals the per-term Fraction loop, field for field."""

    SHARED = SqrtAtom((Term(F(1), _pm({1: 2})), Term(F(3), _pm({1: 1, 2: 1}))))
    CASES = {
        "mixed_denominators": (
            [Term(F(1, 3), _pm({1: 2})), Term(F(-5, 4), _pm({1: 1, 2: 1})),
             Term(F(7, 6), _pm({2: F(1, 2), 4: F(3, 2)}))],
            20,
        ),
        "lattices_quarter_and_eighth": (
            [Term(F(2), _pm({1: 1})), Term(F(-1, 2), _pm({1: F(1, 2)})),
             Term(F(3), _pm({3: 2, 1: -1})), Term(F(1, 5), _pm({6: F(1, 2), 2: F(1, 2)}))],
            F(31, 3),
        ),
        "constant_term": ([Term(F(3, 2), PiMonomial.one()), Term(F(1), _pm({2: 2}))], 12),
        "only_constants": ([Term(F(3, 2), PiMonomial.one()), Term(F(-1, 7), PiMonomial.one())], 5),
        "cancelled_to_zero": (
            [Term(F(2), PiMonomial.one()), Term(F(1, 3), _pm({1: 3})),
             Term(F(-2), PiMonomial.one()), Term(F(-1, 3), _pm({1: 3}))],
            9,
        ),
        # pi(1)^2/(pi(2)*pi(4)) - pi(2)^2/pi(4)^2 = 4, cleared: parts with
        # different bounds cancel, and the smallest bound is kept.
        "true_identity_cancels": (
            [Term(F(1), _pm({1: 2, 4: 1})), Term(F(-1), _pm({2: 3})),
             Term(F(-4), _pm({2: 1, 4: 2}))],
            15,
        ),
        "zero_coefficient": ([Term(F(0), _pm({1: 1})), Term(F(1), _pm({2: 1}))], 7),
        "e2_e4_combinations": (
            [Term(F(1, 3), _pm({1: 2}), (E2Combo.make({1: 1, 2: -2}),)),
             Term(F(-1), _pm({1: 1, 2: 1})),
             Term(F(2), _pm({2: 2}), (E4Combo.make({1: 1, 2: F(-1, 2)}),))],
            14,
        ),
        "shared_radical": (
            [Term(F(1), _pm({1: 1}), (), (SHARED,)), Term(F(-2, 3), _pm({2: 1}), (), (SHARED,)),
             Term(F(5), _pm({1: 2}))],
            11,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, name):
        terms, bound = self.CASES[name]
        got = rts_series(tuple(terms), bound)
        assert _fields(got) == _fields(_reference_rts_series(tuple(terms), bound))
        if name.endswith("cancels"):
            assert got.is_zero() and got.bound != math.inf

    @pytest.mark.parametrize("rid", ["L12-3", "L18-4"])
    def test_reduced_corpus_sides(self, rid, monkeypatch):
        # Every sum the prover expands for the record, root-branch sides included.
        seen = []
        real = verify_module.rts_series

        def recording(terms, min_bound):
            seen.append((terms, min_bound))
            return real(terms, min_bound)

        monkeypatch.setattr(verify_module, "rts_series", recording)
        rec = next(r for r in piq.load_corpus() if r.id == rid)
        assert prove(rec).verdict == "PROVEN"
        monkeypatch.undo()
        assert len(seen) >= 2
        for terms, min_bound in seen:
            assert _fields(rts_series(terms, min_bound)) == _fields(
                _reference_rts_series(terms, min_bound)
            )

    def test_seeded_random_sums(self):
        rng = random.Random(20261018)
        for _ in range(50):
            terms = []
            for _ in range(rng.randint(1, 6)):
                idx = rng.sample([1, 2, 3, 4, 6], rng.randint(0, 3))
                mono = _pm({n: F(rng.randint(-4, 4), 2) for n in idx})
                coef = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 12]))
                terms.append(Term(coef, mono))
                if rng.random() < 0.2:
                    terms.append(Term(-coef, mono))
            bound = F(rng.randint(1, 40), rng.choice([1, 2, 3]))
            assert _fields(rts_series(tuple(terms), bound)) == _fields(
                _reference_rts_series(tuple(terms), bound)
            ), (terms, bound)


def _half_exponent_classes(indices, degree):
    """Weight-`degree` monomials with exponents in (1/2)Z>=0 over `indices`, grouped
    by sum(k n) mod 4; monomials whose sum is not an integer are left out."""
    out = {}
    for halves in _compositions(2 * degree, len(indices)):
        s = sum(h * n for h, n in zip(halves, indices))
        if s % 2 == 0:
            mono = PiMonomial.make({n: F(h, 2) for n, h in zip(indices, halves)})
            out.setdefault(s // 2 % 4, []).append(mono)
    return out


@functools.lru_cache(maxsize=None)
def _window_kernel(indices, degree, residue):
    """A class's monomials and the kernel of their coefficients over mine()'s Sturm window."""
    monos = _half_exponent_classes(indices, degree)[residue]
    rows = sturm_bound(8 * math.lcm(*indices), degree) + 5
    base = min(m.valuation for m in monos)
    columns = [m.expand_to(base + rows + 1) for m in monos]
    return monos, kernel_basis(series_window_matrix(columns, rows))


@functools.lru_cache(maxsize=None)
def _kernel_classes():
    return [
        (indices, degree, residue)
        for indices in ((1, 2, 4, 8), (1, 2, 3, 6))
        for degree in (1, 2, 3)
        for residue in sorted(_half_exponent_classes(indices, degree))
        if _window_kernel(indices, degree, residue)[1]
    ]


class TestCharacterGroups:
    """Terms of different quadratic characters are compared group by group."""

    MIXED = "2*pi(8)^2 + pi(4)^2 = pi(2)*pi(4)^1/2*pi(8)^1/2"

    def test_mixed_characters_refuted(self):
        # The lhs terms have disc 1 and the rhs term disc 2, so the disc-1
        # group compares 2*pi(8)^2 + pi(4)^2 with 0.
        rep = prove(parse_identity(self.MIXED))
        assert rep.tsv_line() == "inline\tREFUTED\t2\t16\t1\t5\t3"
        assert rep.detail == "coefficient mismatch at q^2: 1 vs 0"
        assert check(parse_identity(self.MIXED), 20).verdict == "REFUTED"

    def test_half_exponent_product_stays_refuted(self):
        rep = prove(parse_identity("pi(2) = pi(1)^1/2*pi(3)^1/2"))
        assert rep.verdict == "REFUTED"
        # Both groups (disc -1 and -3) first differ at q^1; the smaller disc reports.
        assert rep.detail == "coefficient mismatch at q^1: 0 vs 1"

    def test_window_kernel_relation_with_mixed_characters_refuted(self):
        dsl = (
            "8*pi(1)^2*pi(2)^1/2*pi(4)^1/2 + 2*pi(1)*pi(4)*pi(8) + 17*pi(2)^5/2*pi(8)^1/2"
            " = 8*pi(1)*pi(2)^2 + 8*pi(1)*pi(2)*pi(4)^1/2*pi(8)^1/2 + pi(1)*pi(4)^2"
            " + 8*pi(1)*pi(8)^2 + 24*pi(2)^3/2*pi(4)^3/2"
        )
        assert prove(parse_identity(dsl)).verdict == "REFUTED"
        assert check(parse_identity(dsl), 190).verdict == "REFUTED"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_proven_survives_a_long_check(self, data):
        indices, degree, residue = data.draw(st.sampled_from(_kernel_classes()))
        monos, kernel = _window_kernel(indices, degree, residue)
        mult = data.draw(st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel)))
        vec = [sum(c * v[i] for c, v in zip(mult, kernel)) for i in range(len(monos))]
        assume(any(vec))
        rec = parse_identity(_relation_dsl(monos, vec))
        rep = prove(rec)
        if rep.verdict == "PROVEN":
            assert check(rec, 6 * rep.sturm_bound + 40).verdict != "REFUTED", rec.dsl


class TestRadicalBranches:
    COMMON = (
        "sqrt(pi(1)*pi(3))*(pi(2)^2 + 2*pi(2)*pi(6))"
        " = sqrt(pi(1)*pi(3))*(pi(1)*pi(3) + {}*pi(6)^2)"
    )

    def test_common_radical_cancelled(self):
        rep = prove(parse_identity(self.COMMON.format(3)))
        assert rep.tsv_line() == "inline\tPROVEN\t2\t12\t1\t5\t5"
        assert "common radical factor cancelled" in rep.certificate.citations

    def test_common_radical_mutant_refuted(self):
        rep = prove(parse_identity(self.COMMON.format(2)))
        assert rep.verdict == "REFUTED"
        assert rep.detail == "coefficient mismatch at q^3: 4 vs 3"

    def test_radical_merge(self):
        rep = prove(
            parse_identity(
                "sqrt(pi(2)*pi(6))*(pi(1)^2 - 3*pi(3)^2) + sqrt(pi(1)*pi(3)*pi(2)^2)"
                " = sqrt(pi(1)*pi(3))*(pi(2)^2 + 3*pi(6)^2) + pi(2)*sqrt(pi(1)*pi(3))"
            )
        )
        assert rep.tsv_line() == "inline\tPROVEN\t3\t24\t2\t13\t13"
        assert "radical-merge multiplication" in rep.certificate.citations


class TestPiWindow:
    """Each expansion reaches min_bound + 4 and stops within one kernel step of it."""

    @staticmethod
    def _assert_tight(mono, b):
        b = F(b)
        got = mono.expand_to(b).bound
        if not mono.halves:
            assert got == math.inf
            return
        assert got >= b + 4, (mono, b)
        step = min(mono.indices())
        if got - mono.valuation > 8 * step:  # more than the floor of 8 kernel steps
            assert got < b + 4 + step, (mono, b)

    @pytest.mark.parametrize("rid", ["L18-4", "La18-3", "L12-3"])
    def test_prover_windows(self, rid, monkeypatch):
        seen = []
        real = PiMonomial.expand_to

        def recording(mono, min_bound):
            seen.append((mono, min_bound))
            return real(mono, min_bound)

        monkeypatch.setattr(PiMonomial, "expand_to", recording)
        rec = next(r for r in piq.load_corpus() if r.id == rid)
        assert prove(rec).verdict == "PROVEN"
        monkeypatch.undo()
        assert seen
        for mono, b in seen:
            self._assert_tight(mono, b)

    def test_seeded_random_monomials(self):
        rng = random.Random(20261018)
        for _ in range(300):
            idx = rng.sample([1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 36], rng.randint(0, 4))
            mono = _pm({n: F(rng.choice([-3, -2, -1, 1, 2, 3, 4, 6]), 2) for n in idx})
            self._assert_tight(mono, F(rng.randint(-20, 400), rng.choice([1, 2, 3, 4, 8])))

    def test_integer_window_matches_fraction_formula(self, monkeypatch):
        # The Fraction formula: ceil((b - valuation + 4) / min(index)).  With
        # the memo replaced by its step argument, expand_to returns its steps.
        monkeypatch.setattr(etaq_module, "_expansion", lambda halves, terms: terms)
        rng = random.Random(20261020)
        dens, negative = set(), 0
        for _ in range(20000):
            idx = rng.sample([1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 36], rng.randint(0, 4))
            mono = _pm({n: F(rng.choice([-7, -4, -3, -1, 1, 2, 3, 5, 8]), 2) for n in idx})
            den = rng.choice([1, 2, 3, 4, 8, 16])
            b = F(rng.randint(-300, 600), den)
            dens.add(b.denominator)
            negative += mono.valuation < 0
            want = 1 if not mono.halves else max(
                8, math.ceil((b - mono.valuation + 4) / min(mono.indices()))
            )
            assert mono.expand_to(b) == want, (mono, b)
            if b.denominator == 1:
                assert mono.expand_to(int(b)) == want, (mono, b)
        assert {1, 2, 3, 8} <= dens and negative > 1000


def _reference_first_mismatch(s_l, s_r, start, scale, count):
    """The coefficient-by-coefficient loop that _first_mismatch replaces."""
    for i in range(count):
        e = start + F(i, scale)
        cl, cr = s_l.coefficient(e), s_r.coefficient(e)
        if cl != cr:
            return e, cl, cr
    return None


class TestFirstMismatch:
    @staticmethod
    def _outcome(fn, *args):
        try:
            return "value", fn(*args)
        except InsufficientPrecision as exc:
            return "raised", str(exc)

    def _assert_same(self, s_l, s_r, start, scale, count):
        args = (s_l, s_r, F(start), scale, count)
        want = self._outcome(_reference_first_mismatch, *args)
        assert self._outcome(_first_mismatch, *args) == want, args

    @staticmethod
    def _random_series(rng):
        d = rng.choice([1, 2, 3, 4, 6, 8, 24])
        terms = {
            F(rng.randint(-6 * d, 20 * d), d): F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
            for _ in range(rng.randint(0, 25))
        }
        bound = math.inf if rng.random() < 0.2 else F(rng.randint(-2 * d, 24 * d), d)
        return S.from_terms(terms, bound)

    def test_seeded_random_pairs(self):
        rng = random.Random(20261018)
        for _ in range(400):
            s_l = self._random_series(rng)
            roll = rng.random()
            if roll < 0.3:
                s_r = s_l
            elif roll < 0.6:
                # The same series with one coefficient changed.
                e = F(rng.randint(-4, 16), rng.choice([1, 2, 4]))
                s_r = s_l + S.from_terms({e: rng.choice([-1, 1])}, math.inf)
            else:
                s_r = self._random_series(rng)
            start = F(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
            self._assert_same(s_l, s_r, start, rng.choice([1, 2, 3, 4, 6, 12]), rng.randint(0, 40))

    def test_mismatch_at_q0(self):
        s = S.from_terms({0: 1, 1: 3, F(5, 2): -1}, 10)
        assert _first_mismatch(s, s + 2, 0, 1, 10) == (0, 1, 3)
        self._assert_same(s, s + 2, 0, 1, 10)

    def test_equal_series(self):
        s = S.from_terms({F(-1, 3): 2, F(7, 3): 5}, 9)
        assert _first_mismatch(s, s, F(-1, 3), 3, 20) is None

    def test_off_grid_difference_is_skipped(self):
        # The sides differ only at q^(1/2), which the integer grid never visits.
        s_l = S.from_terms({0: 1, F(1, 2): 1, 3: 2}, 10)
        s_r = S.from_terms({0: 1, 3: 2}, 10)
        assert _first_mismatch(s_l, s_r, 0, 1, 10) is None
        assert _first_mismatch(s_l, s_r, 0, 2, 10) == (F(1, 2), 1, 0)

    def test_short_side_raises(self):
        s_l = S.from_terms({0: 1, 2: 1}, 5)
        s_r = S.from_terms({0: 1, 2: 1}, 3)
        with pytest.raises(InsufficientPrecision):
            _first_mismatch(s_l, s_r, 0, 1, 4)
        assert _first_mismatch(s_l, s_r, 0, 1, 3) is None
        for count in (3, 4, 6):
            self._assert_same(s_l, s_r, 0, 1, count)
            self._assert_same(s_r, s_l, 0, 1, count)

    def test_mismatch_before_the_short_bound_wins(self):
        s_l = S.from_terms({0: 1, 1: 1}, 2)
        s_r = S.from_terms({0: 1}, 20)
        assert _first_mismatch(s_l, s_r, 0, 1, 10) == (1, 1, 0)


class TestMemoOrder:
    """Proofs read shared expansion and cusp-order memos; order must not matter."""

    # (lhs, rhs, indices): true identities, lifted by homogeneous Pi polynomials.
    BASES = (
        ("pi(1)^2/(pi(2)*pi(4)) - pi(2)^2/pi(4)^2", "4", (1, 2, 4)),
        ("pi(2)^2 + 2*pi(2)*pi(6)", "pi(1)*pi(3) + 3*pi(6)^2", (1, 2, 3, 6)),
        ("pi(1)^2*pi(8)", "pi(2)*(pi(4) + 2*pi(8))^2", (1, 2, 4, 8)),
    )

    def _records(self):
        """Each base times two seeded polynomials, and a one-coefficient mutant of each."""
        rng = random.Random(14)
        recs = []
        for i, (lhs, rhs, indices) in enumerate(self.BASES):
            for degree, cls in ((3, 0), (4, 1)):
                pool = [m for m in itertools.combinations_with_replacement(indices, degree)
                        if sum(m) % 4 == cls]
                monos = rng.sample(pool, min(len(pool), 4))
                coeffs = [rng.randint(1, 9) for _ in monos]

                def poly(cs):
                    return " + ".join(
                        f"{c}*" + "*".join(f"pi({n})" for n in m) for m, c in zip(monos, cs)
                    )

                bumped = [coeffs[0] + 1] + coeffs[1:]
                label = f"b{i}-d{degree}"
                recs.append(parse_identity(
                    f"({lhs})*({poly(coeffs)}) = ({rhs})*({poly(coeffs)})", id=label
                ))
                recs.append(parse_identity(
                    f"({lhs})*({poly(bumped)}) = ({rhs})*({poly(coeffs)})", id=label + "-mut"
                ))
        return recs

    def test_reverse_order_gives_the_same_reports(self):
        recs = self._records()
        assert len(recs) == 12
        verify_module._cusp_row.cache_clear()
        verify_module._cusp_list.cache_clear()
        _expansion.cache_clear()
        forward = [prove(r) for r in recs]
        backward = [prove(r) for r in reversed(recs)]
        assert [repr(r) for r in backward[::-1]] == [repr(r) for r in forward]
        assert [r.verdict for r in forward] == ["PROVEN", "REFUTED"] * 6


class TestSquaringRound:
    """The squaring round's (A*sqrt(R))^2 = A^2 * R against the plain product g*g."""

    INDICES = (1, 2, 3, 4, 6, 8, 12)

    def _plain(self, rng, size):
        out = []
        for _ in range(size):
            exps = {n: F(rng.randint(-2, 4), 2) for n in rng.sample(self.INDICES, rng.randint(0, 3))}
            out.append(Term(F(rng.randint(-5, 5) or 1, rng.randint(1, 6)), PiMonomial.make(exps)))
        return ts_make(out)

    def _radical(self, rng):
        """(radical, composite): one over 1-4 terms, or the one a product of two builds."""
        root = SqrtAtom(self._plain(rng, rng.randint(1, 4)))
        if rng.random() < 0.4:
            other = Term(F(1), PiMonomial.one(), (), (SqrtAtom(self._plain(rng, rng.randint(1, 3))),))
            (prod,) = _term_mul(Term(F(1), PiMonomial.one(), (), (root,)), other)
            if prod.sqrts:
                return prod.sqrts[0], True
        return root, False

    def _group(self, rng):
        root, composite = self._radical(rng)
        e2, e4 = E2Combo.make({1: -1, 2: 2}), E4Combo.make({1: 1, 3: -1})
        factors = [(), (), (e2,), (e4,), tuple(sorted((e2, e4), key=_key))]
        terms = []
        for _ in range(rng.randint(0, 8)):
            t = self._plain(rng, 1)
            if t:
                terms.append(Term(t[0].coef, t[0].pi, rng.choice(factors), (root,)))
        return ts_make(terms), composite

    def test_seeded_groups(self):
        rng = random.Random(20261019)
        kinds = set()
        for _ in range(200):
            g, composite = self._group(rng)
            assert _square_group(g) == ts_mul(g, g), g
            if g:
                kinds.add((composite, any(t.lamberts for t in g)))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_empty_group(self):
        assert _square_group(()) == () == ts_mul((), ())

    @pytest.mark.parametrize("rec", piq.load_corpus(), ids=lambda r: r.id)
    def test_built_sides_are_canonical(self, rec):
        for side in build_sides(rec):
            assert ts_make(side) == side
            assert all(type(t.coef) is F for t in side)
