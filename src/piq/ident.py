"""Identity DSL: grammar, parser, AST, evaluation, and polynomial normal form.

Grammar (version header ``piqdsl 1``)::

    identity := expr "=" expr ;
    expr     := ["-"] term (("+"|"-") term)* ;
    term     := factor (("*"|"/") factor)* ;
    factor   := atom ("^" rational)? ;
    atom     := "pi" "(" int ")" | "sqrt" "(" expr ")"
              | "lam" "(" int "," int ")" | "lam4" "(" int "," int ")"
              | "dl3" "(" ")" | "sodd" "(" ")" | "E2" "(" int ")" | "E4" "(" int ")"
              | "subst" "(" expr "," int ")" | rational | "(" expr ")" ;
    rational := ["-"] int ("/" int)? ;

Standard precedence, left associativity, whitespace insensitive.  After a
``^`` the slash is part of the rational exponent (``pi(1)^3/2`` is the
3/2 power); elsewhere ``/`` is division.

``sqrt(pi(n))`` and ``pi(n)^1/2`` are canonicalized identically.  A sqrt of
anything larger than a single Pi atom is kept as an opaque radical and is
eliminated by the proof engine's single squaring round.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import NotPolynomializable, ParseError, SemanticError
from .etaq import PiMonomial, pi_to_eta
from .quasimod import LambertSpec, expand_lambert
from .series import INF, ScaledSeries


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Pi:
    n: int


@dataclass(frozen=True)
class Sqrt:
    child: "Expr"


@dataclass(frozen=True)
class Lambert:
    spec: LambertSpec


@dataclass(frozen=True)
class Subst:
    child: "Expr"
    j: int


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class Add:
    children: tuple


@dataclass(frozen=True)
class Mul:
    children: tuple


@dataclass(frozen=True)
class Pow:
    child: "Expr"
    e: Fraction


Expr = Union[Const, Pi, Sqrt, Lambert, Subst, Neg, Add, Mul, Pow]


@dataclass(frozen=True)
class Hints:
    subst: Optional[int] = None
    clear: Optional[str] = None
    mode: Optional[str] = None


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    source: str
    lhs: Expr
    rhs: Expr
    hints: Hints = field(default_factory=Hints)

    @property
    def dsl(self) -> str:
        return f"{to_dsl(self.lhs)} = {to_dsl(self.rhs)}"


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_dsl(e: Expr) -> str:
    """Canonical DSL text; parsing it back yields an equal AST."""
    if isinstance(e, Const):
        return _frac_str(e.value)
    if isinstance(e, Pi):
        return f"pi({e.n})"
    if isinstance(e, Lambert):
        s = e.spec
        if s.kind == "LAM":
            return f"lam({s.a},{s.b})"
        if s.kind == "LAM4":
            return f"lam4({s.a},{s.b})"
        if s.kind == "DL3":
            return "dl3()"
        if s.kind == "SODD":
            return "sodd()"
        return f"{s.kind}({s.a})"
    if isinstance(e, Sqrt):
        return f"sqrt({to_dsl(e.child)})"
    if isinstance(e, Subst):
        return f"subst({to_dsl(e.child)},{e.j})"
    if isinstance(e, Neg):
        inner = to_dsl(e.child)
        if isinstance(e.child, Add):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Add):
        parts = []
        for i, c in enumerate(e.children):
            if isinstance(c, Neg):
                parts.append(("- " if i else "-") + _mul_operand(c.child))
            else:
                parts.append(("+ " if i else "") + _mul_operand_add(c))
        return " ".join(parts)
    if isinstance(e, Mul):
        return "*".join(_mul_operand(c) for c in e.children)
    if isinstance(e, Pow):
        base = to_dsl(e.child)
        if not isinstance(e.child, (Pi, Lambert, Sqrt, Subst)):
            base = f"({base})"
        return f"{base}^{_frac_str(e.e)}"
    raise TypeError(f"not an expression node: {e!r}")


def _mul_operand(c: Expr) -> str:
    s = to_dsl(c)
    if isinstance(c, (Add, Neg)) or (isinstance(c, Const) and c.value < 0):
        return f"({s})"
    return s


def _mul_operand_add(c: Expr) -> str:
    s = to_dsl(c)
    return s


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"\d+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SYMBOLS = set("-+*/^(),=")


class _Tokenizer:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            ch = text[pos]
            if ch in " \t\r\n":
                pos += 1
                if ch == "\n":
                    line, col = line + 1, 1
                else:
                    col += 1
                continue
            if m := _NUM_RE.match(text, pos):
                kind, lexeme = "NUM", m.group()
            elif m := _NAME_RE.match(text, pos):
                kind, lexeme = "NAME", m.group()
            elif ch in _SYMBOLS:
                kind, lexeme = ch, ch
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            self.tokens.append((kind, lexeme, line, col))
            step = len(lexeme)
            col += step
            pos += step
        self.tokens.append(("EOF", "", line, col))
        self.i = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if self.i < len(self.tokens) - 1:
            self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)

    def fail(self, message: str, expected=()):
        kind, lex, line, col = self.toks.peek()
        raise ParseError(message, line, col, expected)

    def expect(self, kind: str) -> str:
        tok = self.toks.peek()
        if tok[0] != kind:
            self.fail(f"expected {kind!r} but found {tok[1] or 'end of input'!r}", [kind])
        return self.toks.next()[1]

    def parse_identity(self) -> tuple[Expr, Expr]:
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        self.expect("EOF")
        return lhs, rhs

    def parse_expression_only(self) -> Expr:
        e = self.parse_expr()
        self.expect("EOF")
        return e

    def parse_expr(self) -> Expr:
        children = []
        if self.toks.peek()[0] == "-":
            self.toks.next()
            children.append(Neg(self.parse_term()))
        else:
            children.append(self.parse_term())
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            t = self.parse_term()
            children.append(Neg(t) if op == "-" else t)
        return children[0] if len(children) == 1 else Add(tuple(children))

    def parse_term(self) -> Expr:
        children = [self.parse_factor()]
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            f = self.parse_factor()
            children.append(Pow(f, Fraction(-1)) if op == "/" else f)
        return children[0] if len(children) == 1 else Mul(tuple(children))

    def parse_factor(self) -> Expr:
        atom = self.parse_atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            e = self.parse_rational()
            return _make_pow(atom, e)
        return atom

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.toks.peek()[0] == "-":
            self.toks.next()
            sign = -1
        num = int(self.expect("NUM"))
        den = 1
        # A slash directly followed by digits is part of the rational literal
        # (this is what makes "^3/2" a 3/2 power); division between larger
        # operands is handled by the term parser.
        if self.toks.peek()[0] == "/" and self.toks.peek(1)[0] == "NUM":
            self.toks.next()
            den = int(self.expect("NUM"))
        if den == 0:
            raise SemanticError("zero denominator in rational literal")
        return Fraction(sign * num, den)

    def parse_int(self) -> int:
        sign = 1
        if self.toks.peek()[0] == "-":
            self.toks.next()
            sign = -1
        return sign * int(self.expect("NUM"))

    def parse_atom(self) -> Expr:
        kind, lex, line, col = self.toks.peek()
        if kind == "NUM" or kind == "-":
            return Const(self.parse_rational())
        if kind == "(":
            self.toks.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind != "NAME":
            self.fail(
                f"expected an atom but found {lex or 'end of input'!r}",
                ["NUM", "NAME", "("],
            )
        self.toks.next()
        name = lex
        self.expect("(")
        try:
            node = self._finish_call(name)
        except ValueError as exc:
            raise SemanticError(f"{line}:{col}: {exc}") from exc
        self.expect(")")
        return node

    def _finish_call(self, name: str) -> Expr:
        if name == "pi":
            n = self.parse_int()
            if n < 1:
                raise SemanticError(f"pi index must be >= 1, got {n}")
            return Pi(n)
        if name == "sqrt":
            return Sqrt(self.parse_expr())
        if name in ("lam", "lam4"):
            a = self.parse_int()
            self.expect(",")
            b = self.parse_int()
            if not 0 <= b < a:
                raise SemanticError(f"{name}({a},{b}) requires 0 <= b < a")
            return Lambert(LambertSpec("LAM" if name == "lam" else "LAM4", a, b))
        if name == "dl3":
            return Lambert(LambertSpec("DL3", 1))
        if name == "sodd":
            return Lambert(LambertSpec("SODD", 1))
        if name in ("E2", "E4"):
            m = self.parse_int()
            if m < 1:
                raise SemanticError(f"{name} scale must be >= 1, got {m}")
            return Lambert(LambertSpec(name, m))
        if name == "subst":
            e = self.parse_expr()
            self.expect(",")
            j = self.parse_int()
            if j < 1:
                raise SemanticError(f"subst exponent must be >= 1, got {j}")
            return Subst(e, j)
        self.fail(f"unknown function {name!r}", ["pi", "sqrt", "lam", "lam4", "dl3", "sodd", "E2", "E4", "subst"])


def _make_pow(base: Expr, e: Fraction) -> Expr:
    return base if e == 1 else Pow(base, e)


def parse_expression(text: str) -> Expr:
    return _Parser(text).parse_expression_only()


def parse_identity(text: str, id: str = "inline", source: str = "", hints: Hints = Hints()) -> IdentityRecord:
    lhs, rhs = _Parser(text).parse_identity()
    return IdentityRecord(id=id, source=source, lhs=lhs, rhs=rhs, hints=hints)


# The single-identity entry point named in the interface contract.
parse = parse_identity


# ---------------------------------------------------------------------------
# corpus file format
# ---------------------------------------------------------------------------

CORPUS_HEADER = "piqdsl 1"


def parse_corpus(text: str) -> list[IdentityRecord]:
    """Read the line-oriented corpus format (blank-line separated records)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CORPUS_HEADER:
        raise ParseError(f"missing corpus header {CORPUS_HEADER!r}", 1, 1, [CORPUS_HEADER])
    records = []
    fields: dict[str, str] = {}
    start_line = 2

    def flush(at_line: int):
        nonlocal fields
        if not fields:
            return
        missing = [k for k in ("id", "dsl") if k not in fields]
        if missing:
            raise ParseError(f"record missing field(s) {missing}", at_line, 1)
        hints = Hints(
            subst=int(fields["hint.subst"]) if "hint.subst" in fields else None,
            clear=fields.get("hint.clear"),
            mode=fields.get("hint.mode"),
        )
        try:
            rec = parse_identity(
                fields["dsl"], id=fields["id"], source=fields.get("source", ""), hints=hints
            )
        except ParseError as exc:
            raise ParseError(
                f"in record {fields['id']!r}: {exc}", at_line, exc.column, exc.expected
            ) from exc
        records.append(rec)
        fields = {}

    for i, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip()
        if not line.strip():
            flush(i)
            continue
        if line.lstrip().startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'field: value'", i, 1, ["id:", "source:", "dsl:"])
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    flush(len(lines) + 1)
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise ParseError(f"duplicate record id {rec.id!r}", 1, 1)
        seen.add(rec.id)
    return records


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(expr: Expr, terms: int) -> ScaledSeries:
    """Exact expansion of a DSL expression with an O(q^terms)-sized window."""
    if isinstance(expr, Const):
        return ScaledSeries.constant(expr.value)
    if isinstance(expr, Pi):
        return pi_to_eta(PiMonomial.make({expr.n: 1}), 2 * expr.n).expand(terms)
    if isinstance(expr, Lambert):
        return expand_lambert(expr.spec, terms)
    if isinstance(expr, Neg):
        return -evaluate(expr.child, terms)
    if isinstance(expr, Add):
        out = ScaledSeries.zero()
        for c in expr.children:
            out = out + evaluate(c, terms)
        return out
    if isinstance(expr, Mul):
        out = ScaledSeries.one()
        for c in expr.children:
            out = out * evaluate(c, terms)
        return out
    if isinstance(expr, Pow):
        return evaluate(expr.child, terms).pow(expr.e, terms=terms)
    if isinstance(expr, Sqrt):
        return evaluate(expr.child, terms).pow(Fraction(1, 2), terms=terms)
    if isinstance(expr, Subst):
        # q -> q^j stretches the child's window j-fold.
        return evaluate(expr.child, -(-terms // expr.j)).subst_power(expr.j)
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate_to_bound(expr: Expr, min_bound, max_terms: int | None = None) -> ScaledSeries:
    """Evaluate with enough window that the result bound reaches min_bound."""
    from .errors import InsufficientPrecision

    min_bound = _frac(min_bound)
    t = max(8, math.ceil(min_bound) + 4)
    while True:
        s = evaluate(expr, t)
        if s.bound == INF or s.bound >= min_bound:
            return s
        deficit = math.ceil(min_bound - s.bound) + 2
        t += max(4, deficit)
        if max_terms is not None and t > max_terms:
            raise InsufficientPrecision(
                f"window cap {max_terms} reached while expanding to O(q^{min_bound})"
            )


# ---------------------------------------------------------------------------
# polynomial normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqrtAtom:
    """Opaque radical over a polynomial term sum (positive-leading branch)."""

    inner: tuple  # TermSum

    def subst(self, j: int) -> "SqrtAtom":
        return SqrtAtom(ts_subst(self.inner, j))

    def key(self):
        return tuple(_term_identity(t) + (t.coef,) for t in self.inner)


@dataclass(frozen=True)
class Term:
    """coef * PiMonomial * (Lambert atoms) * (at most one sqrt radical)."""

    coef: Fraction
    pi: PiMonomial
    lamberts: tuple[LambertSpec, ...] = ()
    sqrts: tuple[SqrtAtom, ...] = ()

    @property
    def sqrt_flag(self) -> bool:
        return bool(self.sqrts)


def _lam_key(s: LambertSpec):
    return (s.kind, s.a, s.b)


def _term_identity(t: Term):
    return (
        t.pi.exponents,
        tuple(_lam_key(s) for s in t.lamberts),
        tuple(a.key() for a in t.sqrts),
    )


def ts_make(terms: Iterable[Term]) -> tuple:
    """Canonical term sum: merged like terms, zeros dropped, sorted."""
    acc: dict = {}
    order: dict = {}
    for t in terms:
        k = _term_identity(t)
        if k in acc:
            acc[k] = Term(acc[k].coef + t.coef, t.pi, t.lamberts, t.sqrts)
        else:
            acc[k] = t
    out = [t for t in acc.values() if t.coef != 0]
    out.sort(key=_term_identity)
    return tuple(out)


TS_ONE = (Term(Fraction(1), PiMonomial.one()),)
TS_ZERO = ()


def ts_add(a: tuple, b: tuple) -> tuple:
    return ts_make(list(a) + list(b))


def ts_neg(a: tuple) -> tuple:
    return tuple(Term(-t.coef, t.pi, t.lamberts, t.sqrts) for t in a)


def ts_scale(a: tuple, c: Fraction) -> tuple:
    c = _frac(c)
    if c == 0:
        return TS_ZERO
    return ts_make(Term(t.coef * c, t.pi, t.lamberts, t.sqrts) for t in a)


def _monomial_sqrt(t: Term) -> Optional[Term]:
    """sqrt of a radical-free, Lambert-free term with integral Pi exponents."""
    from .series import _rational_nth_root

    if t.lamberts or t.sqrts:
        return None
    if any(k.denominator != 1 for _, k in t.pi.exponents):
        return None
    root = _rational_nth_root(t.coef, 2)
    if root is None:
        return None
    return Term(root, t.pi ** Fraction(1, 2))


def _term_mul(t1: Term, t2: Term) -> list[Term]:
    coef = t1.coef * t2.coef
    pi = t1.pi * t2.pi
    lamberts = tuple(sorted(t1.lamberts + t2.lamberts, key=_lam_key))
    atoms = sorted(t1.sqrts + t2.sqrts, key=lambda a: a.key())
    factors: list[tuple] = []  # extra TermSum factors from collapsed radicals
    pending: Optional[SqrtAtom] = None
    for atom in atoms:
        if pending is None:
            pending = atom
            continue
        if pending == atom:
            factors.append(pending.inner)
            pending = None
            continue
        pending = SqrtAtom(ts_mul(pending.inner, atom.inner))
        # A composite radical over a single square term collapses.
        if len(pending.inner) == 1:
            m = _monomial_sqrt(pending.inner[0])
            if m is not None:
                coef *= m.coef
                pi = pi * m.pi
                pending = None
        elif not pending.inner:
            return []  # sqrt of symbolic zero: the whole product vanishes
    base = Term(coef, pi, lamberts, (pending,) if pending is not None else ())
    out = [base]
    for f in factors:
        out = [t for b in out for t in _term_mul_ts(b, f)]
    return out


def _term_mul_ts(t: Term, ts: tuple) -> list[Term]:
    res = []
    for u in ts:
        res.extend(_term_mul(t, u))
    return res


def ts_mul(a: tuple, b: tuple) -> tuple:
    out: list[Term] = []
    for t1 in a:
        for t2 in b:
            out.extend(_term_mul(t1, t2))
    return ts_make(out)


def ts_pow_int(a: tuple, e: int) -> tuple:
    if e < 0:
        raise ValueError("negative power on a term sum")
    result = TS_ONE
    base = a
    while e:
        if e & 1:
            result = ts_mul(result, base)
        e >>= 1
        if e:
            base = ts_mul(base, base)
    return result


def ts_subst(a: tuple, j: int) -> tuple:
    return ts_make(
        Term(
            t.coef,
            t.pi.subst(j),
            tuple(sorted((s.scaled(j) for s in t.lamberts), key=_lam_key)),
            tuple(atom.subst(j) for atom in t.sqrts),
        )
        for t in a
    )


@dataclass(frozen=True)
class _Frac:
    """Formal fraction of term sums used while flattening the AST."""

    num: tuple
    den: tuple

    def __add__(self, other):
        return _Frac(
            ts_add(ts_mul(self.num, other.den), ts_mul(other.num, self.den)),
            ts_mul(self.den, other.den),
        )

    def __neg__(self):
        return _Frac(ts_neg(self.num), self.den)

    def __mul__(self, other):
        return _Frac(ts_mul(self.num, other.num), ts_mul(self.den, other.den))

    def inv(self):
        if not self.num:
            raise NotPolynomializable("division by a symbolically zero expression")
        return _Frac(self.den, self.num)


def _frac_one():
    return _Frac(TS_ONE, TS_ONE)


def _single_pi_term(f: _Frac) -> Optional[Term]:
    """The fraction as one radical-free, Lambert-free Pi term, when it is one."""
    if len(f.num) != 1 or len(f.den) != 1:
        return None
    n, d = f.num[0], f.den[0]
    if n.lamberts or n.sqrts or d.lamberts or d.sqrts:
        return None
    inv = Term(1 / d.coef, d.pi ** Fraction(-1))
    prod = _term_mul(n, inv)
    assert len(prod) == 1
    return prod[0]


def _build(expr: Expr) -> _Frac:
    if isinstance(expr, Const):
        return _Frac(ts_scale(TS_ONE, expr.value), TS_ONE)
    if isinstance(expr, Pi):
        return _Frac((Term(Fraction(1), PiMonomial.make({expr.n: 1})),), TS_ONE)
    if isinstance(expr, Lambert):
        return _Frac((Term(Fraction(1), PiMonomial.one(), (expr.spec,)),), TS_ONE)
    if isinstance(expr, Neg):
        return -_build(expr.child)
    if isinstance(expr, Add):
        out = _Frac(TS_ZERO, TS_ONE)
        for c in expr.children:
            out = out + _build(c)
        return out
    if isinstance(expr, Mul):
        out = _frac_one()
        for c in expr.children:
            out = out * _build(c)
        return out
    if isinstance(expr, Subst):
        f = _build(expr.child)
        return _Frac(ts_subst(f.num, expr.j), ts_subst(f.den, expr.j))
    if isinstance(expr, Sqrt):
        if isinstance(expr.child, Pi):
            return _Frac((Term(Fraction(1), PiMonomial.make({expr.child.n: Fraction(1, 2)})),), TS_ONE)
        if isinstance(expr.child, Const):
            from .series import _rational_nth_root

            r = _rational_nth_root(expr.child.value, 2)
            if r is not None:
                return _Frac(ts_scale(TS_ONE, r), TS_ONE)
        return _sqrt_frac(_build(expr.child))
    if isinstance(expr, Pow):
        return _pow_frac(_build(expr.child), expr.e)
    raise TypeError(f"not an expression node: {expr!r}")


def _sqrt_frac(f: _Frac) -> _Frac:
    """Radical over a flattened fraction: sqrt(n/d) = sqrt(n*d)/d."""
    inner = ts_mul(f.num, f.den)
    for t in inner:
        if t.sqrts:
            raise NotPolynomializable("nested radicals exceed one squaring round")
    if not inner:
        return _Frac(TS_ZERO, TS_ONE)
    atom = SqrtAtom(inner)
    return _Frac((Term(Fraction(1), PiMonomial.one(), (), (atom,)),), f.den)


def _pow_frac(f: _Frac, e: Fraction) -> _Frac:
    e = _frac(e)
    if e.denominator == 1:
        n = int(e)
        if n >= 0:
            return _Frac(ts_pow_int(f.num, n), ts_pow_int(f.den, n))
        if not f.num:
            raise NotPolynomializable("division by a symbolically zero expression")
        return _Frac(ts_pow_int(f.den, -n), ts_pow_int(f.num, -n))
    if e.denominator == 2:
        # Fractional powers of a pure Pi monomial distribute onto the
        # exponent vector; anything else keeps a radical.
        mono = _single_pi_term(f)
        if mono is not None:
            from .series import _rational_nth_root

            root = _rational_nth_root(mono.coef, 2)
            scaled = {n: k * e for n, k in mono.pi.exponents}
            if root is not None and all((2 * k).denominator == 1 for k in scaled.values()):
                return _Frac((Term(root ** e.numerator, PiMonomial.make(scaled)),), TS_ONE)
        ipart = (e.numerator - 1) // 2  # e = ipart + 1/2 with odd numerator
        return _pow_frac(f, Fraction(ipart)) * _sqrt_frac(f)
    raise NotPolynomializable(f"unsupported fractional exponent {e}")


@dataclass(frozen=True)
class PolyForm:
    """One-sided polynomial form of an identity.

    ``terms`` is the cleared difference; multiplying (lhs - rhs) by the
    ``denominator`` term sum and the ``clearing`` monomial reproduces it.
    """

    terms: tuple
    clearing: PiMonomial
    denominator: tuple = TS_ONE


def net_clearing_monomial(terms: tuple) -> PiMonomial:
    """Monomial multiplier making every exponent nonnegative with no common factor.

    Negative per-variable minima are lifted to zero; positive per-variable
    minima shared by all terms are cancelled away, so the cleared sum is the
    least monomial multiple of the input with nonnegative exponents.
    """
    mins: dict[int, Fraction] = {}
    first = True
    for t in terms:
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
    return PiMonomial.make({n: -k for n, k in mins.items() if k != 0})


def clear_terms(terms: tuple) -> tuple[tuple, PiMonomial]:
    m = net_clearing_monomial(terms)
    if not m.exponents:
        return terms, m
    return ts_mul(terms, (Term(Fraction(1), m),)), m


def normalize_polynomial(rec: IdentityRecord) -> PolyForm:
    """Move everything to one side, clear denominators and negative Pi powers."""
    fl, fr = _build(rec.lhs), _build(rec.rhs)
    f = fl + (-fr)
    terms, clearing = clear_terms(f.num)
    return PolyForm(terms=terms, clearing=clearing, denominator=f.den)


def build_sides(rec: IdentityRecord) -> tuple[tuple, tuple, PiMonomial]:
    """Cleared left and right term sums over a common denominator.

    Returns (lhs_terms, rhs_terms, clearing); the clearing monomial is
    computed from the union of both sides, so lhs_terms - rhs_terms matches
    normalize_polynomial(rec).terms whenever no cross-side cancellation
    removes an extreme exponent.
    """
    fl, fr = _build(rec.lhs), _build(rec.rhs)
    lnum = ts_mul(fl.num, fr.den)
    rnum = ts_mul(fr.num, fl.den)
    m = net_clearing_monomial(tuple(lnum) + tuple(rnum))
    mt = (Term(Fraction(1), m),)
    return ts_mul(lnum, mt), ts_mul(rnum, mt), m
