import math
import random
import sys
from fractions import Fraction as F

import pytest

import piq
import piq.etaq as etaq_module
from piq.errors import (
    NonRootLeadingCoefficient,
    NotInvertible,
    NotPolynomializable,
    ParseError,
    SemanticError,
)
from piq.etaq import PiMonomial
from piq.ident import (
    Add,
    Const,
    Lambert,
    Mul,
    Neg,
    Pi,
    Pow,
    Sqrt,
    Subst,
    _pi_factor,
    build_sides,
    evaluate_to_bound,
    parse_corpus,
    parse_expression,
    parse_identity,
    SqrtAtom,
    TS_ONE,
    TS_ZERO,
    Term,
    _key,
    _term_mul,
    to_dsl,
    ts_add,
    ts_make,
    ts_mul,
    ts_neg,
    ts_pow_int,
)
from piq.quasimod import E2Combo, E4Combo, LambertSpec, expand_lambert
from piq.series import ScaledSeries

from oracles import psi_expansion


class TestParse:
    def test_l12_1_shape(self):
        rec = parse_identity("pi(2)^2 + 2*pi(2)*pi(6) = pi(1)*pi(3) + 3*pi(6)^2")
        assert isinstance(rec.lhs, Add) and len(rec.lhs.children) == 2
        assert rec.lhs.children[0] == Pow(Pi(2), F(2))

    def test_sqrt_node(self):
        e = parse_expression("sqrt(pi(1)*pi(3)) * (pi(2)^2 + 3*pi(6)^2)")
        assert isinstance(e, Mul)
        assert isinstance(e.children[0], Sqrt)

    def test_semantic_errors(self):
        with pytest.raises(SemanticError):
            parse_identity("pi(0) = 1")
        with pytest.raises(SemanticError):
            parse_identity("lam(2,2) = 1")
        with pytest.raises(SemanticError):
            parse_identity("lam(1,3) = 1")
        with pytest.raises(SemanticError):
            parse_identity("subst(pi(1), 0) = 1")

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("pi(0) = 1", 1, 4, "pi index must be >= 1, got 0"),
            ("1 = E4(-2)", 1, 8, "E4 scale must be >= 1, got -2"),
            ("1 =\n lam(1,3)", 2, 2, "lam(1,3) requires 0 <= b < a"),
            ("subst(pi(1), 0) = 1", 1, 14, "subst exponent must be >= 1, got 0"),
            ("pi(1)^3/0 = 1", 1, 9, "zero denominator in rational literal"),
        ],
    )
    def test_semantic_error_is_a_positioned_parse_error(self, text, line, column, message):
        with pytest.raises(ParseError) as info:
            parse_identity(text)
        assert isinstance(info.value, SemanticError)
        assert (info.value.line, info.value.column, info.value.message) == (line, column, message)

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("pi(1)\t= \tpi(0)", 1, 13, "pi index must be >= 1, got 0"),
            ("\tpi(1) =\t\tpi(2", 1, 15, "expected ')' but found 'end of input'"),
            ("pi(1) =\r\n  pi(1$)", 2, 7, "unexpected character '$'"),
            ("pi(1)\r\n\r\n= lam(1,3)", 3, 3, "lam(1,3) requires 0 <= b < a"),
            ("\n\n\npi(1) = \n\n  ?", 6, 3, "unexpected character '?'"),
            ("pi(1) =\n\n", 3, 1, "expected an atom but found 'end of input'"),
            ("\r\r pi(1) @", 1, 10, "unexpected character '@'"),
            ("pi(1)\t\r\n\t= pi(1)^3/0", 2, 12, "zero denominator in rational literal"),
            ("pi(1) = \x0b1", 1, 9, "unexpected character '\\x0b'"),
            ("pi(1) = 1\xa0", 1, 10, "unexpected character '\\xa0'"),
        ],
        ids=["tabs", "tabs-eof", "crlf", "crlf-blank", "blank-lines", "trailing-blank",
             "bare-cr", "tab-crlf-semantic", "vertical-tab", "no-break-space"],
    )
    def test_error_position_across_whitespace(self, text, line, column, message):
        # Only space, tab, CR and LF are whitespace; each counts one column
        # and LF alone starts a new line.
        with pytest.raises(ParseError) as info:
            parse_identity(text)
        assert (info.value.line, info.value.column, info.value.message) == (line, column, message)

    def test_only_ascii_digits_are_digits(self):
        with pytest.raises(ParseError) as info:
            parse_identity("pi(٣) = 1")
        assert not isinstance(info.value, SemanticError)
        assert (info.value.line, info.value.column) == (1, 4)
        assert info.value.message == "unexpected character '٣'"

    @pytest.mark.parametrize("text", ["pi(1) = {}", "pi(1) = 1/{}", "pi(1) = pi(1)^{}/2",
                                      "pi(1) = lam({},1)"])
    def test_huge_integer_literal_is_a_positioned_error(self, text):
        digits = "1" * 5000
        source = text.format(digits)
        with pytest.raises(SemanticError) as info:
            parse_identity(source)
        assert (info.value.line, info.value.column) == (1, source.index(digits) + 1)
        assert "5000 digits" in info.value.message
        assert str(sys.get_int_max_str_digits()) in info.value.message

    def test_parse_error_position_and_expected(self):
        with pytest.raises(ParseError) as info:
            parse_identity("pi(2 = 1")
        assert info.value.line == 1 and info.value.column == 6
        assert ")" in info.value.expected

    def test_half_integer_exponents(self):
        e = parse_expression("pi(1)^3/2*pi(9)^-1/2")
        assert e.children[0].e == F(3, 2)
        assert e.children[1].e == F(-1, 2)

    def test_exponent_slash_vs_division(self):
        # after ^ the slash binds to the exponent only when digits follow
        e = parse_expression("pi(3)^2/pi(1)^2")
        assert isinstance(e, Mul)
        assert e.children[0].e == F(2)

    def test_rational_atom(self):
        rec = parse_identity("1/24*pi(1) = pi(1)/24")
        const = rec.lhs.children[0]
        assert const == Const(F(1, 24))


class TestRoundTrip:
    def test_corpus_round_trip(self):
        for rec in piq.load_corpus():
            printed = rec.dsl
            again = parse_identity(printed)
            assert again.lhs == rec.lhs and again.rhs == rec.rhs, rec.id

    def test_negative_and_nested(self):
        for text in [
            "-pi(1) + 2 = 1 - pi(1)*(pi(2) - 3)",
            "subst(pi(1) + pi(2), 3) = dl3()",
            "sqrt(pi(1)) - sqrt(pi(9)) = E2(4)*sodd()",
        ]:
            rec = parse_identity(text)
            again = parse_identity(rec.dsl)
            assert again.lhs == rec.lhs and again.rhs == rec.rhs


class TestCorpusFile:
    def test_counts(self):
        records = piq.load_corpus()
        assert len(records) == 47
        pis = [r for r in records if not r.id.startswith("La")]
        lams = [r for r in records if r.id.startswith("La")]
        assert len(pis) == 30 and len(lams) == 17

    def test_unique_ids(self):
        ids = [r.id for r in piq.load_corpus()]
        assert len(ids) == len(set(ids))

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_corpus("id: x\ndsl: 1 = 1\n")

    def test_duplicate_id_rejected(self):
        text = "piqdsl 1\n\nid: A\ndsl: 1 = 1\n\nid: A\ndsl: 2 = 2\n"
        with pytest.raises(ParseError) as info:
            parse_corpus(text)
        assert (info.value.line, info.value.column) == (6, 1)  # the second id: line
        assert info.value.message == "duplicate record id 'A'"

    @pytest.mark.parametrize(
        "text,spot",
        [
            ("piqdsl 1\n\nid: A\nsource: x\n\nid: B\ndsl: 1 = 1\n", (3, 1)),
            ("piqdsl 1\nid: A\n", (2, 1)),
        ],
    )
    def test_missing_field_reported_at_the_record(self, text, spot):
        with pytest.raises(ParseError) as info:
            parse_corpus(text)
        assert (info.value.line, info.value.column) == spot
        assert info.value.message == "record missing field(s) ['dsl']"

    @staticmethod
    def _assert_unknown_field_at_line_5(field):
        text = (
            "piqdsl 1\n\nid: L12-1\n"
            "dsl: pi(2)^2 + 2*pi(2)*pi(6) = pi(1)*pi(3) + 3*pi(6)^2\n"
            f"{field}\n"
        )
        with pytest.raises(ParseError) as info:
            parse_corpus(text)
        name = field.partition(":")[0]
        assert (info.value.line, info.value.column) == (5, 1)
        assert info.value.message == (
            f"unknown field {name!r}; a record has only id, source, dsl"
        )

    @pytest.mark.parametrize("value", ["-4", "0", "four"])
    def test_bad_subst_hint_rejected_at_its_field(self, value):
        # hint.subst is no longer a field: m is always derived from the residue.
        self._assert_unknown_field_at_line_5(f"hint.subst: {value}")

    @pytest.mark.parametrize(
        "field", ["hint.subst: 4", "hint.clear: pi(1)", "hint.mode: check", "note: hello"]
    )
    def test_unknown_field_rejected_at_its_line(self, field):
        self._assert_unknown_field_at_line_5(field)

    @pytest.mark.parametrize("field", ["id: B", "source: u", "dsl: pi(1) = 2"])
    def test_repeated_field_rejected(self, field):
        text = f"piqdsl 1\n\nid: A\nsource: t\ndsl: 1 = 1\n{field}\n"
        with pytest.raises(ParseError) as info:
            parse_corpus(text)
        assert (info.value.line, info.value.column) == (6, 1)
        assert info.value.message == f"repeated field {field.partition(':')[0]!r}"

    @pytest.mark.parametrize(
        "dsl_line,line,column,message",
        [
            ("dsl: pi(1 = 2", 5, 11, "expected ')' but found '='"),
            ("dsl:   pi(1", 5, 12, "expected ')' but found 'end of input'"),
            ("dsl: pi(2) = pi(0)", 5, 17, "pi index must be >= 1, got 0"),
        ],
        ids=["one-line", "end-of-input", "semantic"],
    )
    def test_dsl_error_at_its_file_position(self, dsl_line, line, column, message):
        text = f"piqdsl 1\n\nid: X\nsource: s\n{dsl_line}\n\nid: Y\ndsl: 1 = 1\n"
        with pytest.raises(ParseError) as info:
            parse_corpus(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"{line}:{column}: in record 'X': {message}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("piqdsl 1\n\nid: X\nsource: s\ndsl:\tpi(1)  = \tpi(1$)\n",
             "5:20: in record 'X': unexpected character '$'"),
            ("piqdsl 1\r\n\r\nid: X\r\nsource: s\r\ndsl: pi(1) = pi(0)\r\n",
             "5:17: in record 'X': pi index must be >= 1, got 0"),
        ],
        ids=["tabs", "crlf"],
    )
    def test_dsl_error_column_across_whitespace(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_corpus(text)
        assert str(info.value) == message


class TestEvaluate:
    def test_pi_1(self):
        s = evaluate_to_bound(parse_expression("pi(1)"), 10)
        assert [(e, c) for e, c in list(s.items())[:4]] == [
            (F(1, 4), F(1)),
            (F(5, 4), F(2)),
            (F(9, 4), F(1)),
            (F(13, 4), F(2)),
        ]

    def test_const(self):
        s = evaluate_to_bound(parse_expression("4"), 5)
        assert dict(s.items()) == {F(0): F(4)}

    def test_l16_1_difference_vanishes_to_40(self):
        rec = parse_identity("pi(1)^2*pi(8) = pi(2)*(pi(4) + 2*pi(8))^2")
        dl = evaluate_to_bound(rec.lhs, 41)
        dr = evaluate_to_bound(rec.rhs, 41)
        assert (dl - dr).is_zero(upto=40)

    def test_lambert_node(self):
        s = evaluate_to_bound(parse_expression("lam(2,1)"), 6)
        assert s.agrees_with(expand_lambert(piq.quasimod.LambertSpec("LAM", 2, 1), 6))


def _term_series(t, bound):
    s = t.pi.expand_to(bound) * t.coef
    for spec in t.lamberts:
        s = s * expand_lambert(spec, max(1, int(bound) + 1))
    assert not t.sqrts
    return s


def _ts_series(terms, bound):
    out = ScaledSeries.zero()
    for t in terms:
        out = out + _term_series(t, bound)
    return out


def _cleared_difference(rec):
    lhs_t, rhs_t = build_sides(rec)
    return ts_add(lhs_t, ts_neg(rhs_t))


class TestNormalize:
    def test_l8_1_cleared_terms(self):
        rec = parse_identity("pi(1)^2/(pi(2)*pi(4)) - pi(2)^2/pi(4)^2 = 4", id="L8-1")
        diff = _cleared_difference(rec)
        got = {t.pi.exponents: t.coef for t in diff}
        want = {
            PiMonomial.make({1: 2, 4: 1}).exponents: F(1),
            PiMonomial.make({2: 3}).exponents: F(-1),
            PiMonomial.make({2: 1, 4: 2}).exponents: F(-4),
        }
        assert got == want
        # every cleared term has weight 3 and exponent sum 2 mod 4
        for t in diff:
            assert t.pi.weight == 3
            assert t.pi.exponent_weighted_sum % 4 == 2

    def test_l12_1_terms(self):
        rec = parse_identity("pi(2)^2 + 2*pi(2)*pi(6) = pi(1)*pi(3) + 3*pi(6)^2")
        diff = _cleared_difference(rec)
        assert len(diff) == 4
        for t in diff:
            assert t.pi.weight == 2
            assert t.pi.exponent_weighted_sum % 4 == 0

    def test_already_polynomial_is_identity(self):
        lhs_t, rhs_t = build_sides(parse_identity("pi(1)*pi(3) = pi(2)^2"))
        assert lhs_t == (Term(F(1), PiMonomial.make({1: 1, 3: 1})),)
        assert rhs_t == (Term(F(1), PiMonomial.make({2: 2})),)

    def test_sqrt_flag_carried(self):
        rec = parse_identity("sqrt(pi(1)*pi(3)) = pi(2)")
        assert any(bool(t.sqrts) for t in _cleared_difference(rec))

    def test_radicals_normalised_when_made(self):
        """A single-term radicand gives its square part up; the root of a
        product is one root per factor that is not a single term and one
        over the single-term factors."""
        r1, r2 = "pi(1)^2 + pi(2)^2", "pi(1)*pi(3) + pi(2)^2"
        same = [
            ("sqrt(pi(1)*pi(3)*pi(2)^2)", "pi(2)*sqrt(pi(1)*pi(3))"),
            ("sqrt(4*pi(1)^3*pi(2)^-3)", "2*pi(1)/pi(2)^2*sqrt(pi(1)*pi(2))"),
            ("sqrt(pi(1)^2*pi(2)^2)", "pi(1)*pi(2)"),
            (f"sqrt(({r1})*({r2}))", f"sqrt({r1})*sqrt({r2})"),
            (f"sqrt(pi(2)*({r1})*pi(6))", f"sqrt(pi(2)*pi(6))*sqrt({r1})"),
            (f"sqrt(({r1})*({r1}))", r1),
            (f"(({r1})*({r2}))^1/2", f"sqrt({r1})*sqrt({r2})"),
            (f"(({r1})*pi(2)*pi(6))^-3/2", f"sqrt(pi(2)*pi(6))*sqrt({r1})/(({r1})*pi(2)*pi(6))^2"),
        ]
        for left, right in same:
            lhs, rhs = build_sides(parse_identity(f"{left} = {right}"))
            assert lhs == rhs, left
        (term,) = build_sides(parse_identity("sqrt(pi(2)*pi(6)) = 0"))[0]
        assert [atom.inner for atom in term.sqrts] == [(Term(F(1), PiMonomial.make({2: 1, 6: 1})),)]

    def test_factors_leading_negatively_share_one_radical(self):
        """sqrt(X*Y) is sqrt(X)*sqrt(Y) only for factors that lead
        positively; the other factors stay under one radical, which must not
        lead negatively either."""
        r1, r2 = "pi(1)^2 + pi(2)^2", "pi(1)*pi(3) + pi(2)^2"
        (term,) = build_sides(parse_identity(f"sqrt((-({r1}))*(-({r2}))) = 0"))[0]
        product = ts_mul(*(build_sides(parse_identity(f"{r} = 0"))[0] for r in (r1, r2)))
        assert [atom.inner for atom in term.sqrts] == [product]
        (term,) = build_sides(parse_identity(f"sqrt((-({r1}))*(-({r2}))*({r1})) = 0"))[0]
        assert len(term.sqrts) == 2
        for text in (f"sqrt(-({r1}))", f"sqrt((-({r1}))*({r2}))", f"sqrt(-({r1}))^2", "sqrt(-pi(1)*pi(2))"):
            with pytest.raises(NonRootLeadingCoefficient, match="^radicand leads with negative coefficient -"):
                build_sides(parse_identity(f"{text} = 0"))

    def test_nested_radical_rejected(self):
        with pytest.raises(NotPolynomializable):
            build_sides(parse_identity("sqrt(1 + sqrt(1 + pi(1))) = 1"))

    def test_normalized_series_matches_cleared_difference(self):
        # build_sides multiplies lhs = n_l/d_l and rhs = n_r/d_r into
        # lhs_t = n_l d_r m and rhs_t = n_r d_l m, so lhs_t * rhs equals
        # rhs_t * lhs formally, for every radical-free corpus record, true
        # or not.
        def has_sqrt(expr):
            from piq.ident import Lambert, Subst
            if isinstance(expr, Sqrt):
                return True
            if isinstance(expr, (Add, Mul)):
                return any(has_sqrt(c) for c in expr.children)
            if isinstance(expr, (Neg, Pow, Subst)):
                return has_sqrt(expr.child)
            return False

        for rec in piq.load_corpus():
            if has_sqrt(rec.lhs) or has_sqrt(rec.rhs):
                continue
            lhs_t, rhs_t = build_sides(rec)
            bound = 12
            lhs = evaluate_to_bound(rec.lhs, bound)
            rhs = evaluate_to_bound(rec.rhs, bound)
            cross = _ts_series(lhs_t, bound) * rhs - _ts_series(rhs_t, bound) * lhs
            assert cross.bound >= 10, rec.id
            assert cross.is_zero(10), rec.id

    def test_reduced_terms_order_e2_factors_before_e4_factors(self):
        # With one Pi part, a term with no E2 factor sorts before one with
        # two, whatever E4 factors either carries.
        pi = PiMonomial.make({2: 2})
        e2a = E2Combo.make({1: -1, 2: 2})
        e2b = E2Combo.make({2: -1, 4: 2})
        e4 = E4Combo.make({1: 1, 2: -1})
        only_e4 = Term(F(1), pi, (e4,))
        two_e2 = Term(F(3), pi, (e2a, e2b))
        assert ts_make([two_e2, only_e4]) == (only_e4, two_e2)
        assert only_e4.weight == 6 and two_e2.weight == 6
        assert two_e2.describe() == "3 * Pi[2]^2 * (-1*E2(1z) + 2*E2(2z)) * (-1*E2(2z) + 2*E2(4z))"
        assert E2Combo.make({1: F(-1, 24)}).describe() == "(-1/24*E2(1z))"


def _reference_evaluate(expr, terms):
    """Generic evaluation: each pi(n) on its own, as q^(n/4) psi(q^n)^2, each
    Lambert atom through expand_lambert, then ScaledSeries sums, products,
    powers and substitutions."""
    if isinstance(expr, Const):
        return ScaledSeries.constant(expr.value)
    if isinstance(expr, Pi):
        psi = psi_expansion(terms)
        return (psi * psi).subst_power(expr.n) * ScaledSeries.monomial(F(expr.n, 4))
    if isinstance(expr, Lambert):
        return expand_lambert(expr.spec, terms)
    if isinstance(expr, Neg):
        return -_reference_evaluate(expr.child, terms)
    if isinstance(expr, Add):
        return ScaledSeries.linear_sum((1, _reference_evaluate(c, terms)) for c in expr.children)
    if isinstance(expr, Mul):
        out = ScaledSeries.one()
        for c in expr.children:
            out = out * _reference_evaluate(c, terms)
        return out
    if isinstance(expr, Pow):
        return _reference_evaluate(expr.child, terms).pow(expr.e, terms=terms)
    if isinstance(expr, Sqrt):
        return _reference_evaluate(expr.child, terms).pow(F(1, 2), terms=terms)
    if isinstance(expr, Subst):
        return _reference_evaluate(expr.child, -(-terms // expr.j)).subst_power(expr.j)
    raise TypeError(expr)


def _random_monomial_expr(rng):
    """A product of 1-4 Pi powers with half-integer exponents, maybe substituted."""
    factors = [Pow(Pi(rng.randint(1, 6)), F(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), 2))
               for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        factors.insert(0, Const(F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4]))))
    expr = Mul(tuple(factors)) if len(factors) > 1 else factors[0]
    if rng.random() < 0.5:
        expr = Subst(expr, rng.randint(2, 3))
    return expr


class TestPiMonomialFold:
    """evaluate_to_bound expands a Pi-monomial subtree with one eta-quotient
    recurrence; it must agree with the generic per-factor product."""

    PINNED = [
        "(pi(2)/pi(6))^5",
        "sqrt(pi(1)/pi(9))^3",
        "subst(pi(1)^2/pi(2),3)",
        "-3*pi(4)^-2",
        "sqrt(4*pi(1))",
        "(-8*pi(1)^3)^1/3",
        "pi(1)^3/2*pi(9)^-1/2",
        "pi(1)^0",
        "subst(sqrt(pi(2)*pi(1))*pi(3),2)",
    ]

    @staticmethod
    def assert_to_bound(expr, b):
        """evaluate_to_bound of a folded monomial reaches b, stops within one
        kernel step of b + 4 (or at the floor of 8 steps), and agrees with the
        generic evaluation below the smaller bound, valuation included."""
        _, mono = _pi_factor(expr)
        got = evaluate_to_bound(expr, b)
        ref = _reference_evaluate(expr, max(1, math.ceil(b) + 4))
        assert ref.bound >= ref.valuation() + 1
        assert (got - ref).is_zero(), (to_dsl(expr), b)
        assert got.valuation() == ref.valuation(), (to_dsl(expr), b)
        if not mono.halves:
            assert got.bound == math.inf
            return
        step = min(mono.indices())
        assert got.bound >= b + 4, (to_dsl(expr), b)
        assert got.bound < b + 4 + step or got.bound == mono.valuation + 8 * step, (to_dsl(expr), b)

    BOUNDS = (F(-3, 2), 0, F(7, 3), 17, 40)

    @pytest.mark.parametrize("text", PINNED)
    def test_pinned(self, text):
        for b in (1, 7, 20):
            self.assert_to_bound(parse_expression(text), F(b))

    def test_seeded_random_products(self):
        rng = random.Random(20211)
        for _ in range(60):
            self.assert_to_bound(_random_monomial_expr(rng), F(rng.randint(1, 16)))

    @pytest.mark.parametrize("text", PINNED)
    def test_pinned_to_bound(self, text):
        for b in self.BOUNDS:
            self.assert_to_bound(parse_expression(text), F(b))

    def test_seeded_random_products_to_bound(self):
        rng = random.Random(20212)
        for _ in range(60):
            self.assert_to_bound(_random_monomial_expr(rng), F(rng.choice(self.BOUNDS)))

    # Coefficients at and below q^13500.  Every folded child of a sum or a
    # product is asked for the bound, not for kernel steps.
    FAR_APART = {
        "pi(6000)": {1500: 1, 7500: 2, 13500: 1},
        "subst(pi(1),6000)": {1500: 1, 7500: 2, 13500: 1},
        "pi(6000) + pi(6000)": {1500: 2, 7500: 4, 13500: 2},
        "pi(6000)*(1 + pi(6000))": {1500: 1, 3000: 1, 7500: 2, 9000: 4, 13500: 1},
    }

    @pytest.mark.parametrize("text", FAR_APART)
    def test_to_bound_asks_for_kernel_steps(self, text, monkeypatch):
        # A bound of q^13500 is two steps of q^6000 past the valuation 1500,
        # so the floor of 8 steps holds; an exponent read as a step count
        # would run 13,504 steps.
        steps = []
        real = etaq_module._expansion

        def recording(halves, terms):
            steps.append(terms)
            return real(halves, terms)

        monkeypatch.setattr(etaq_module, "_expansion", recording)
        s = evaluate_to_bound(parse_expression(text), 13500)
        monkeypatch.undo()
        assert steps and max(steps) <= 8
        assert s.bound >= 13500
        coefficients = self.FAR_APART[text]
        assert {e: s.coefficient(e) for e in coefficients} == coefficients

    @pytest.mark.parametrize(
        "text,error",
        [
            ("sqrt(-pi(1))", NonRootLeadingCoefficient),
            ("sqrt(2*pi(1))", NonRootLeadingCoefficient),
            ("(pi(1)-pi(1))^-1", NotInvertible),
            ("(0*pi(1))^-1", NotInvertible),
        ],
    )
    def test_fallbacks_keep_typed_errors(self, text, error):
        expr = parse_expression(text)
        assert _pi_factor(expr) is None
        with pytest.raises(error):
            evaluate_to_bound(expr, 10)

    def test_zero_coefficient(self):
        s = evaluate_to_bound(parse_expression("0*pi(1)"), 10)
        assert s.is_zero() and s == _reference_evaluate(parse_expression("0*pi(1)"), 10)

    def test_sums_and_lamberts_are_not_folded(self):
        for text in ("pi(1)*(pi(2)+pi(3))", "pi(1)*lam(2,1)", "pi(1)^2/3"):
            assert _pi_factor(parse_expression(text)) is None
            s = evaluate_to_bound(parse_expression(text), 12)
            assert (s - _reference_evaluate(parse_expression(text), 12)).is_zero()


class TestEvaluateToBound:
    """Unfolded trees: every node is asked for an exponent bound, and the
    window grows only when negative valuations leave the result short."""

    MIXED = [
        # sums with negative valuations
        "pi(1)^-2 + pi(2)",
        "pi(4)^-2*(pi(1) + pi(2))",
        "pi(2)^-3 - pi(1)^-1*lam(2,1)",
        # roots and inverses of sums
        "(pi(1) + pi(2))^-1",
        "(pi(1) + pi(2))^-2",
        "sqrt(pi(1)^-2 + pi(2))",
        "(1 + lam(2,1))^-1/2",
        "(lam(7,2) + pi(9))^-1/2",
        # subst of sums
        "subst(pi(1) + pi(2)^-1, 2)",
        "subst(pi(1) + lam(2,1), 3)",
        # products with Lambert atoms
        "pi(1)^-3*lam(2,1)",
        "lam(2,1)*lam4(3,1)*pi(2)",
    ]

    @pytest.mark.parametrize("text", MIXED)
    def test_reaches_the_bound_and_agrees(self, text):
        expr = parse_expression(text)
        assert _pi_factor(expr) is None
        for b in (F(-3, 2), 0, F(7, 3), 17, 40):
            got = evaluate_to_bound(expr, b)
            ref = _reference_evaluate(expr, max(1, math.ceil(b)) + 12)
            assert got.bound >= b, (text, b)
            assert ref.bound >= b, (text, b)
            assert (got - ref).is_zero(), (text, b)


# ---------------------------------------------------------------------------
# term sums against the merge-then-sort canonicaliser
# ---------------------------------------------------------------------------

# Index sets of the lifted identities in perfbench/workloads.py (levels 8,
# 12 and 16).
_LIFT_INDEX_SETS = ((1, 2, 4), (1, 2, 3, 6), (1, 2, 4, 8))


def _reference_identity(t):
    """A term's identity over the Fraction exponent view, radicals included."""
    keys = tuple(a.key() for a in t.lamberts)
    n = len(keys)
    while n and keys[n - 1][0] == 4:
        n -= 1
    radicals = tuple(
        tuple(_reference_identity(u) + (u.coef,) for u in atom.inner) for atom in t.sqrts
    )
    return (t.pi.exponents, keys[:n], keys[n:], radicals)


def _reference_ts_make(terms):
    """Merge like terms into a new Term at every merge, drop zeros, then sort."""
    acc = {}
    for t in terms:
        k = _reference_identity(t)
        if k in acc:
            acc[k] = Term(acc[k].coef + t.coef, t.pi, t.lamberts, t.sqrts)
        else:
            acc[k] = t
    out = [t for t in acc.values() if t.coef != 0]
    out.sort(key=_reference_identity)
    return tuple(out)


def _atom_choices(indices, reduced):
    """(atoms, radicals) slots: none, one or two atoms, a radical, both."""
    lo, hi = PiMonomial.make({indices[0]: 1}), PiMonomial.make({indices[-1]: 1})
    root_a = SqrtAtom(ts_make([Term(F(1), lo), Term(F(3), hi)]))
    root_b = SqrtAtom(ts_make([Term(F(1), lo * hi)]))
    if reduced:
        e2 = E2Combo.make({1: -1, 2: 2})
        one, two = (e2,), (e2, E4Combo.make({1: 1, 2: -1}))
    else:
        one, two = (LambertSpec("LAM", 2, 1),), (LambertSpec("DL3", 1), LambertSpec("LAM", 2, 1))
    return [((), ()), (one, ()), (two, ()), ((), (root_a,)), ((), (root_b,)), (one, (root_a,))]


def _random_term_sum(rng, indices, atoms):
    out = []
    for _ in range(rng.randint(0, 8)):
        exps = {n: F(rng.randint(-2, 2), 2) for n in rng.sample(indices, rng.randint(0, 2))}
        coef = F(rng.randint(-3, 3), rng.randint(1, 3))
        out.append(Term(coef, PiMonomial.make(exps), *rng.choice(atoms)))
    return out


class TestTermSumCanonicalForm:
    @pytest.mark.parametrize("indices", _LIFT_INDEX_SETS)
    @pytest.mark.parametrize("reduced", [False, True])
    def test_ts_make_matches_reference(self, indices, reduced):
        rng = random.Random(f"{indices}{reduced}")
        atoms = _atom_choices(indices, reduced)
        for _ in range(150):
            terms = _random_term_sum(rng, indices, atoms)
            want = _reference_ts_make(terms)
            assert ts_make(terms) == want
            shuffled = list(terms)
            rng.shuffle(shuffled)
            assert ts_make(shuffled) == want
            if terms:
                i = rng.randrange(len(terms))
                t = terms[i]
                part = F(rng.randint(-4, 4), rng.randint(1, 4))
                halves = [Term(c, t.pi, t.lamberts, t.sqrts) for c in (part, t.coef - part)]
                assert ts_make(terms[:i] + halves + terms[i + 1 :]) == want

    @pytest.mark.parametrize("indices", _LIFT_INDEX_SETS)
    @pytest.mark.parametrize("reduced", [False, True])
    def test_ts_mul_matches_reference(self, indices, reduced):
        rng = random.Random(f"mul{indices}{reduced}")
        atoms = _atom_choices(indices, reduced)
        for _ in range(60):
            a = ts_make(_random_term_sum(rng, indices, atoms))
            b = ts_make(_random_term_sum(rng, indices, atoms))
            products = [p for t1 in a for t2 in b for p in _term_mul(t1, t2)]
            assert ts_mul(a, b) == _reference_ts_make(products) == ts_mul(b, a)


    @staticmethod
    def _reference_mul(a, b):
        return _reference_ts_make([p for t1 in a for t2 in b for p in _term_mul(t1, t2)])

    @staticmethod
    def _assert_fraction_coefs(ts):
        assert all(type(t.coef) is F for t in ts), ts

    @staticmethod
    def _plain_sum(rng, indices):
        """Atom-free terms with coefficient denominators 1 to 12 and exponents of both signs."""
        out = []
        for _ in range(rng.randint(1, 9)):
            exps = {n: F(rng.randint(-3, 3), 2) for n in rng.sample(indices, rng.randint(0, 3))}
            out.append(Term(F(rng.randint(-6, 6), rng.randint(1, 12)), PiMonomial.make(exps)))
        return ts_make(out)

    @pytest.mark.parametrize("indices", _LIFT_INDEX_SETS)
    def test_plain_products_on_integer_numerators(self, indices):
        rng = random.Random(f"plain{indices}")
        for _ in range(80):
            a, b = self._plain_sum(rng, indices), self._plain_sum(rng, indices)
            got = ts_mul(a, b)
            assert got == self._reference_mul(a, b) == ts_mul(b, a)
            self._assert_fraction_coefs(got)

    def test_cancelling_products(self):
        p1, p2 = PiMonomial.make({1: 1}), PiMonomial.make({2: 1})
        # (p1/4 + p2/6)(p1/4 - p2/6): the cross terms cancel to a zero coefficient.
        a = ts_make([Term(F(1, 4), p1), Term(F(1, 6), p2)])
        b = ts_make([Term(F(1, 4), p1), Term(F(-1, 6), p2)])
        want = ts_make([Term(F(1, 16), p1 * p1), Term(F(-1, 36), p2 * p2)])
        assert ts_mul(a, b) == self._reference_mul(a, b) == want
        # p1 * p1^-1: the merged exponents cancel to the empty monomial.
        inv = PiMonomial.make({1: -1})
        a = ts_make([Term(F(3, 7), p1), Term(F(5, 12), inv)])
        b = ts_make([Term(F(2, 11), inv), Term(F(-1, 9), p2)])
        got = ts_mul(a, b)
        assert got == self._reference_mul(a, b)
        assert got[0].pi == PiMonomial.one() and got[0].coef == F(6, 77)
        self._assert_fraction_coefs(got)

    @pytest.mark.parametrize("indices", _LIFT_INDEX_SETS)
    def test_unit_and_zero_operands(self, indices):
        rng = random.Random(f"unit{indices}")
        atoms = _atom_choices(indices, True)
        fresh_one = (Term(F(1), PiMonomial.one()),)
        one = PiMonomial.one()
        near_units = [
            (Term(F(2), one),),
            (Term(F(1, 2), one),),
            (Term(F(-1), one),),
            (Term(F(1), PiMonomial.make({indices[0]: 1})),),
            (Term(F(1), one, atoms[1][0]),),
            (Term(F(1), one, (), atoms[3][1]),),
            ts_make([Term(F(1), one), Term(F(1), PiMonomial.make({indices[-1]: 1}))]),
        ]
        for _ in range(40):
            a = ts_make(_random_term_sum(rng, indices, atoms))
            for unit in (TS_ONE, fresh_one):
                assert ts_mul(unit, a) == a and ts_mul(a, unit) == a
            assert ts_mul(TS_ZERO, a) == TS_ZERO == ts_mul(a, TS_ZERO)
            for near in near_units:
                assert ts_mul(near, a) == self._reference_mul(near, a) == ts_mul(a, near)

    def test_collapsed_radicals_merge_with_plain_products(self):
        p1, p3, p6 = (PiMonomial.make({n: 1}) for n in (1, 3, 6))
        one = PiMonomial.one()
        for c, want in ((1, ((p1 * p3, -5), (p6 * p6, 3))), (6, ((p6 * p6, 1),))):
            # sqrt(R)^2 = c*pi(1)*pi(3) + ... meets the plain product -6*pi(1)*pi(3).
            root = SqrtAtom(ts_make([Term(F(c), p1 * p3), Term(F(3 if c == 1 else 1), p6 * p6)]))
            a = ts_make([Term(F(1), one, (), (root,)), Term(F(2), p1)])
            b = ts_make([Term(F(1), one, (), (root,)), Term(F(-3), p3)])
            got = ts_mul(a, b)
            assert got == self._reference_mul(a, b) == ts_mul(b, a)
            plain = tuple((t.pi, t.coef) for t in got if not t.sqrts)
            assert plain == tuple((m, F(k)) for m, k in want)
            self._assert_fraction_coefs(got)

    def test_radical_products_associate_and_commute(self):
        """Sums over three distinct radicals multiply to one normal form in any order."""
        rng = random.Random(20261019)
        p1, p2, p3, p6 = (PiMonomial.make({n: 1}) for n in (1, 2, 3, 6))
        radicals = [
            SqrtAtom(ts_make([Term(F(1), p1 * p1), Term(F(1), p2 * p2)])),
            SqrtAtom(ts_make([Term(F(1), p1 * p3), Term(F(1), p2 * p2)])),
            SqrtAtom((Term(F(1), p2 * p6),)),
        ]

        def draw():
            terms = []
            for _ in range(rng.randint(1, 4)):
                sqrts = tuple(sorted(rng.sample(radicals, rng.randint(0, 3)), key=_key))
                coef = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                terms.append(Term(coef, rng.choice((p1, p2, p3, p6)), (), sqrts))
            return ts_make(terms)

        for _ in range(60):
            a, b, c = draw(), draw(), draw()
            assert ts_mul(ts_mul(a, b), c) == ts_mul(a, ts_mul(b, c)) == ts_mul(ts_mul(c, a), b)
            assert ts_mul(a, b) == ts_mul(b, a)

    @pytest.mark.parametrize("indices", _LIFT_INDEX_SETS)
    @pytest.mark.parametrize("reduced", [False, True])
    def test_ts_pow_int_matches_reference_products(self, indices, reduced):
        """Powers up to 6 against reference products, in ts_pow_int's grouping
        and as repeated products: radical products do not depend on grouping."""
        rng = random.Random(f"pow{indices}{reduced}")
        atoms = _atom_choices(indices, reduced)
        for _ in range(6):
            a = ts_make(_random_term_sum(rng, indices, atoms)[:4])
            b = ts_make(_random_term_sum(rng, indices, atoms)[:4])
            repeated = TS_ONE
            for e in range(7):
                result, base, k = TS_ONE, a, e
                while k:
                    if k & 1:
                        result = self._reference_mul(result, base)
                    k >>= 1
                    if k:
                        base = self._reference_mul(base, base)
                got = ts_pow_int(a, e)
                assert got == result, (a, e)
                assert ts_pow_int(b, e) == repeated, (b, e)
                self._assert_fraction_coefs(got)
                repeated = self._reference_mul(repeated, b)
