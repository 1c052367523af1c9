from fractions import Fraction as F

import pytest

from piq.errors import NoFitWithinBounds, NotAnEtaQuotient, NotWeightZero
from piq.etaq import Cusp, cusps
from piq.haupt import (
    GENUS_ZERO_LEVELS,
    cusp_table,
    fit_rational,
    haupt_candidate_check,
)
from piq.ident import parse_expression as pe

from oracles import cusps_equivalent


def order_by_class(table, level, paper_cusp):
    """Look up a table column by cusp class rather than literal fraction."""
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
    raise AssertionError(f"no cusp class for {paper_cusp}")


class TestCandidateCheck:
    def test_level8_hauptmodul_passes(self):
        chk = haupt_candidate_check(pe("pi(2)^2/pi(4)^2"), 8)
        assert chk.passed
        assert dict(chk.orders) == {"oo": "-1", "0": "0", "1/2": "0", "1/4": "1"}

    def test_level18_radical_hauptmodul_passes(self):
        chk = haupt_candidate_check(pe("sqrt(pi(1)/pi(9))"), 18)
        assert chk.passed
        assert dict(chk.orders)["1/2"] == "1"

    def test_level8_half_quotient_fails(self):
        chk = haupt_candidate_check(pe("pi(2)/pi(4)"), 8)
        assert not chk.passed
        assert not chk.simple_pole_at_infinity

    def test_not_eta_quotient(self):
        with pytest.raises(NotAnEtaQuotient):
            haupt_candidate_check(pe("pi(1) + pi(2)"), 4)

    def test_genus_guard(self):
        with pytest.raises(ValueError):
            haupt_candidate_check(pe("pi(2)^2/pi(4)^2"), 11)
        assert 13 in GENUS_ZERO_LEVELS and 25 in GENUS_ZERO_LEVELS


class TestCuspTable:
    def test_table_level12_rows(self):
        table = cusp_table(
            12,
            [
                ("h", pe("pi(2)/pi(6)")),
                ("F1", pe("pi(1)*pi(3)/pi(6)^2")),
                ("F2", pe("pi(3)^2/pi(1)^2")),
            ],
        )
        paper = {
            "h": {(1, 12): -1, (0, 1): 0, (1, 2): 0, (1, 3): 0, (1, 4): 1, (1, 6): 0},
            "F1": {(1, 12): -2, (0, 1): 0, (1, 2): 1, (1, 3): 0, (1, 4): 0, (1, 6): 1},
            "F2": {(1, 12): 1, (0, 1): 0, (1, 2): -1, (1, 3): 0, (1, 4): -1, (1, 6): 1},
        }
        for name, expected in paper.items():
            row = dict(table.rows)[name]
            for cusp, order in expected.items():
                assert row[order_by_class(table, 12, cusp)] == order, (name, cusp)

    def test_constant_function_all_zeros(self):
        table = cusp_table(8, [("c", pe("7"))])
        assert all(o == 0 for o in dict(table.rows)["c"])

    def test_formatting_round(self):
        table = cusp_table(8, [("h", pe("pi(2)^2/pi(4)^2"))])
        text = table.formatted()
        assert "oo" in text and "-1" in text


class TestFit:
    def test_level8(self):
        fit = fit_rational(pe("pi(1)^2/(pi(2)*pi(4))"), pe("pi(2)^2/pi(4)^2"), 8)
        assert fit.numerator == (4, 1)
        assert fit.denominator == (1,)
        assert fit.certificate.verdict == "PROVEN"

    def test_level12_f2(self):
        fit = fit_rational(pe("pi(3)^2/pi(1)^2"), pe("pi(2)/pi(6)"), 12)
        assert fit.numerator == (-1, 1)
        assert fit.denominator == (0, 3, 1)

    def test_level18(self):
        fit = fit_rational(pe("pi(3)^2/pi(9)^2"), pe("sqrt(pi(1)/pi(9))"), 18)
        assert fit.numerator == (0, 3, -3, 1)
        assert fit.denominator == (1,)

    def test_identity_dsl_reparses_and_proves(self):
        from piq.ident import parse_identity
        from piq.verify import prove

        fit = fit_rational(pe("pi(1)*pi(3)/pi(6)^2"), pe("pi(2)/pi(6)"), 12)
        rec = parse_identity(fit.identity_dsl(), id="fit")
        assert prove(rec).verdict == "PROVEN"

    def test_weight_check(self):
        with pytest.raises(NotWeightZero):
            fit_rational(pe("pi(1)*pi(3)"), pe("pi(2)/pi(6)"), 12)

    def test_degree_minimality_via_ceiling(self):
        with pytest.raises(NoFitWithinBounds):
            fit_rational(pe("pi(1)^2/(pi(2)*pi(4))"), pe("pi(2)^2/pi(4)^2"), 8, max_degree=0)

    def test_rewriting_invariance(self):
        a = fit_rational(pe("pi(1)*pi(3)/pi(6)^2"), pe("pi(2)/pi(6)"), 12)
        b = fit_rational(pe("pi(1)*pi(3)*pi(6)^-2"), pe("pi(2)*pi(6)^-1"), 12)
        assert (a.numerator, a.denominator) == (b.numerator, b.denominator)

    def test_root_and_pole_bookkeeping(self):
        # deg Q equals the total pole order of the target at cusps where h
        # is finite, and ord(target, oo) = deg Q - deg P in h-degree terms.
        fit = fit_rational(pe("pi(3)^2/pi(1)^2"), pe("pi(2)/pi(6)"), 12)
        table = cusp_table(12, [("t", pe("pi(3)^2/pi(1)^2")), ("h", pe("pi(2)/pi(6)"))])
        rows = dict(table.rows)
        t_row, h_row = rows["t"], rows["h"]
        finite_pole_total = sum(
            -o for o, ho in zip(t_row, h_row) if o < 0 and ho >= 0
        )
        deg_q = len(fit.denominator) - 1
        deg_p = len(fit.numerator) - 1
        assert finite_pole_total == deg_q
        inf_col = list(table.cusp_labels).index("oo")
        assert t_row[inf_col] == deg_q - deg_p

    def test_expansions_not_repeated_within_a_fit(self, monkeypatch):
        # The level-12 fit tries every degree pair up to total 3; each
        # (expression, bound) is expanded once for the whole fit.
        import piq.haupt as haupt

        seen = []
        real = haupt.evaluate_to_bound

        def counting(expr, min_bound, *args, **kwargs):
            seen.append((expr, min_bound))
            return real(expr, min_bound, *args, **kwargs)

        monkeypatch.setattr(haupt, "evaluate_to_bound", counting)
        fit = fit_rational(pe("pi(3)^2/pi(1)^2"), pe("pi(2)/pi(6)"), 12)
        assert (fit.numerator, fit.denominator) == ((-1, 1), (0, 3, 1))
        assert len({b for _, b in seen}) > 1
        assert len(seen) == len(set(seen))

    def test_q_roots_match_level12_story(self):
        fit = fit_rational(pe("pi(3)^2/pi(1)^2"), pe("pi(2)/pi(6)"), 12)
        # Q(h) = 3h + h^2 = h(h + 3): roots 0 and -3
        q = fit.denominator
        roots = [a for a in range(-10, 11) if sum(c * a**i for i, c in enumerate(q)) == 0]
        assert roots == [-3, 0]
