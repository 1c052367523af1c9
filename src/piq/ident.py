"""Identity DSL: grammar, parser, AST, evaluation, and the term algebra.

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

``sqrt(pi(n))`` and ``pi(n)^1/2`` are canonicalized identically.  A
half-integer *power* of any one Pi monomial with integer exponents and a
rational square root of its coefficient is distributed onto the exponents,
but ``sqrt()`` of anything larger than a single Pi atom, a composite
monomial included, is kept as an opaque radical and is eliminated by the
proof engine's single squaring round.  So
``(pi(1)/pi(9))^1/2*pi(9) = pi(1)^1/2*pi(9)^1/2`` cancels symbolically,
while the same identity written with ``sqrt(pi(1)/pi(9))`` is proven
through the squaring round.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import NotPolynomializable, ParseError, SemanticError
from .etaq import PiMonomial
from .quasimod import LambertSpec, expand_lambert
from .series import ScaledSeries, _frac, _rational_nth_root, to_bound


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
class IdentityRecord:
    id: str
    source: str
    lhs: Expr
    rhs: Expr

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
        return str(e.spec)
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
                parts.append(("+ " if i else "") + to_dsl(c))
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
            _, _, line, col = self.toks.peek()
            den = int(self.expect("NUM"))
            if den == 0:
                raise SemanticError("zero denominator in rational literal", line, col)
        return Fraction(sign * num, den)

    def parse_int(self) -> int:
        sign = 1
        if self.toks.peek()[0] == "-":
            self.toks.next()
            sign = -1
        return sign * int(self.expect("NUM"))

    def parse_int_at_least(self, low: int, what: str) -> int:
        _, _, line, col = self.toks.peek()
        n = self.parse_int()
        if n < low:
            raise SemanticError(f"{what} must be >= {low}, got {n}", line, col)
        return n

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
        self.expect("(")
        node = self._finish_call(lex, line, col)
        self.expect(")")
        return node

    def _finish_call(self, name: str, line: int, col: int) -> Expr:
        if name == "pi":
            return Pi(self.parse_int_at_least(1, "pi index"))
        if name == "sqrt":
            return Sqrt(self.parse_expr())
        if name in ("lam", "lam4"):
            a = self.parse_int()
            self.expect(",")
            b = self.parse_int()
            if not 0 <= b < a:
                raise SemanticError(f"{name}({a},{b}) requires 0 <= b < a", line, col)
            return Lambert(LambertSpec("LAM" if name == "lam" else "LAM4", a, b))
        if name == "dl3":
            return Lambert(LambertSpec("DL3", 1))
        if name == "sodd":
            return Lambert(LambertSpec("SODD", 1))
        if name in ("E2", "E4"):
            return Lambert(LambertSpec(name, self.parse_int_at_least(1, f"{name} scale")))
        if name == "subst":
            e = self.parse_expr()
            self.expect(",")
            return Subst(e, self.parse_int_at_least(1, "subst exponent"))
        self.fail(f"unknown function {name!r}", ["pi", "sqrt", "lam", "lam4", "dl3", "sodd", "E2", "E4", "subst"])


def _make_pow(base: Expr, e: Fraction) -> Expr:
    return base if e == 1 else Pow(base, e)


def parse_expression(text: str) -> Expr:
    return _Parser(text).parse_expression_only()


def parse_identity(text: str, id: str = "inline", source: str = "") -> IdentityRecord:
    lhs, rhs = _Parser(text).parse_identity()
    return IdentityRecord(id=id, source=source, lhs=lhs, rhs=rhs)


# The single-identity entry point named in the interface contract.
parse = parse_identity


# ---------------------------------------------------------------------------
# corpus file format
# ---------------------------------------------------------------------------

CORPUS_HEADER = "piqdsl 1"
CORPUS_FIELDS = ("id", "source", "dsl")


def parse_corpus(text: str) -> list[IdentityRecord]:
    """Read the line-oriented corpus format (blank-line separated records).

    A record has the fields of ``CORPUS_FIELDS``, each at most once; any other
    field name is a parse error.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != CORPUS_HEADER:
        raise ParseError(f"missing corpus header {CORPUS_HEADER!r}", 1, 1, [CORPUS_HEADER])
    records = []
    fields: dict[str, str] = {}
    dsl_spot = (0, 0)  # (line, column) of the dsl value

    def flush(at_line: int):
        nonlocal fields
        if not fields:
            return
        missing = [k for k in ("id", "dsl") if k not in fields]
        if missing:
            raise ParseError(f"record missing field(s) {missing}", at_line, 1)
        try:
            rec = parse_identity(fields["dsl"], id=fields["id"], source=fields.get("source", ""))
        except ParseError as exc:
            # The DSL value is one line: place the error at its column there.
            raise ParseError(
                f"in record {fields['id']!r}: {exc.message}",
                dsl_spot[0], dsl_spot[1] + exc.column - 1, exc.expected,
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
            raise ParseError("expected 'field: value'", i, 1, [f"{k}:" for k in CORPUS_FIELDS])
        key, _, value = line.partition(":")
        key, column = key.strip(), len(line) - len(value.lstrip()) + 1
        if key not in CORPUS_FIELDS:
            raise ParseError(
                f"unknown field {key!r}; a record has only {', '.join(CORPUS_FIELDS)}",
                i, 1, CORPUS_FIELDS,
            )
        if key in fields:
            raise ParseError(f"repeated field {key!r}", i, 1)
        if key == "dsl":
            dsl_spot = (i, column)
        fields[key] = value.strip()
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


def _pi_factor(expr: Expr) -> Optional[tuple[Fraction, PiMonomial]]:
    """The expression as ``(coef, m)`` with value coef * m for one Pi monomial m.

    A structural walk over constants, Pi atoms, negations, products, powers,
    square roots and substitutions.  It gives up (None) on a sum or a Lambert
    atom, on a power leaving a Pi exponent that is not a half-integer, and on
    a coefficient without the rational root ``ScaledSeries.pow`` would take
    (a zero base, a negative base under an even root, a non-perfect power),
    so those inputs keep the generic evaluation and its errors.
    """
    if isinstance(expr, Const):
        return expr.value, PiMonomial.one()
    if isinstance(expr, Pi):
        return Fraction(1), PiMonomial.make({expr.n: 1})
    if isinstance(expr, (Neg, Subst, Pow, Sqrt)):
        inner = _pi_factor(expr.child)
        if inner is None:
            return None
        coef, mono = inner
        if isinstance(expr, Neg):
            return -coef, mono
        if isinstance(expr, Subst):
            return coef, mono.subst(expr.j)
        e = expr.e if isinstance(expr, Pow) else Fraction(1, 2)
        # (2k) * e stays an integer iff e's denominator divides 2k.
        if coef == 0 or any(h % e.denominator for _, h in mono.halves):
            return None
        root = _rational_nth_root(coef, e.denominator)
        if root is None:
            return None
        return root**e.numerator, mono**e
    if isinstance(expr, Mul):
        coef, mono = Fraction(1), PiMonomial.one()
        for c in expr.children:
            inner = _pi_factor(c)
            if inner is None:
                return None
            coef, mono = coef * inner[0], mono * inner[1]
        return coef, mono
    return None


def _evaluate(expr: Expr, b: Fraction) -> ScaledSeries:
    """Exact expansion of a DSL expression, each node asked for exponent bound b.

    A subtree that is one Pi monomial is one ``PiMonomial.expand_to(b)``;
    sums, products, negations, powers and roots pass b to their children, and
    subst(., j) asks its child for b / j.  A child with a negative valuation
    can leave the result short of b: ``evaluate_to_bound`` asks again.
    """
    folded = _pi_factor(expr)
    if folded is not None:
        coef, mono = folded
        s = mono.expand_to(b)
        return s if coef == 1 else s * coef
    if isinstance(expr, Lambert):
        # At least through q^8, as a folded monomial runs at least 8 kernel
        # steps: a root or inverse of a sum needs its leading term.
        return expand_lambert(expr.spec, max(8, math.ceil(b)))
    if isinstance(expr, Neg):
        return -_evaluate(expr.child, b)
    if isinstance(expr, Add):
        return ScaledSeries.linear_sum((1, _evaluate(c, b)) for c in expr.children)
    if isinstance(expr, Mul):
        out = ScaledSeries.one()
        for c in expr.children:
            out = out * _evaluate(c, b)
        return out
    if isinstance(expr, (Pow, Sqrt)):
        e = expr.e if isinstance(expr, Pow) else Fraction(1, 2)
        return _evaluate(expr.child, b).pow(e, terms=max(1, math.ceil(b)))
    if isinstance(expr, Subst):
        return _evaluate(expr.child, b / expr.j).subst_power(expr.j)
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate_to_bound(expr: Expr, min_bound) -> ScaledSeries:
    """Exact expansion of a DSL expression known at least through O(q^min_bound).

    Every node is asked for an exponent bound, starting at min_bound; the
    bound grows by ``series.to_bound``'s rule only when negative valuations
    inside products, powers or roots leave the result short of it.
    """
    return to_bound(functools.partial(_evaluate, expr), min_bound)


# ---------------------------------------------------------------------------
# term algebra
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
    """coef * PiMonomial * (atoms) * (at most one sqrt radical).

    Flattening fills the atom slot with Lambert atoms (``LambertSpec``); the
    prover rewrites them into certified ``E2Combo``/``E4Combo`` factors, and
    ``weight`` and ``describe`` apply to such reduced terms.
    """

    coef: Fraction
    pi: PiMonomial
    lamberts: tuple = ()
    sqrts: tuple[SqrtAtom, ...] = ()

    @property
    def weight(self) -> Fraction:
        w = self.pi.weight + sum(a.weight for a in self.lamberts)
        for atom in self.sqrts:
            w += atom.inner[0].pi.weight / 2
        return w

    def describe(self) -> str:
        bits = [str(self.coef)]
        bits.extend(f"Pi[{n}]^{k}" for n, k in self.pi.exponents)
        bits.extend(a.describe() for a in self.lamberts)
        bits.extend("sqrt(...)" for _ in self.sqrts)
        return " * ".join(bits)


def _key(atom):
    return atom.key()


def _term_identity(t: Term):
    if not (t.lamberts or t.sqrts):
        return (t.pi.halves, (), (), ())
    keys = tuple(a.key() for a in t.lamberts)
    # Reduced terms compare their E2 factors before their E4 factors.  Atoms
    # are sorted and an E4 key starts with its weight 4, so the E4 factors
    # are a suffix; Lambert keys all stay in the first part.
    n = len(keys)
    while n and keys[n - 1][0] == 4:
        n -= 1
    return (t.pi.halves, keys[:n], keys[n:], tuple(a.key() for a in t.sqrts))


def ts_make(terms: Iterable[Term]) -> tuple:
    """Canonical term sum: merged like terms, zeros dropped, sorted."""
    first: dict = {}
    merged: dict = {}
    for t in terms:
        k = _term_identity(t)
        if k in first:
            merged[k] = merged.get(k, first[k].coef) + t.coef
        else:
            first[k] = t
    out = []
    for k in sorted(first):
        t = first[k]
        if k in merged:
            if merged[k]:
                out.append(Term(merged[k], t.pi, t.lamberts, t.sqrts))
        elif t.coef:
            out.append(t)
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
    if t.lamberts or t.sqrts:
        return None
    if any(h % 2 for _, h in t.pi.halves):
        return None
    root = _rational_nth_root(t.coef, 2)
    if root is None:
        return None
    return Term(root, t.pi ** Fraction(1, 2))


def _term_mul(t1: Term, t2: Term) -> list[Term]:
    coef = t1.coef * t2.coef
    pi = t1.pi * t2.pi
    lamberts = tuple(sorted(t1.lamberts + t2.lamberts, key=_key))
    atoms = sorted(t1.sqrts + t2.sqrts, key=_key)
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


def _is_unit(a: tuple) -> bool:
    """Whether the canonical term sum ``a`` is ``TS_ONE``, checked field by field."""
    if len(a) != 1:
        return False
    t = a[0]
    return not (t.pi.halves or t.lamberts or t.sqrts) and t.coef == 1


def _split_plain(a: tuple):
    """(lcm of the plain terms' denominators, [(2k pairs, numerator)], other terms).

    Plain terms carry no Lambert atom and no radical; their coefficients are
    put on integer numerators over the one denominator.
    """
    plain, other = [], []
    for t in a:
        (other if t.lamberts or t.sqrts else plain).append(t)
    den = math.lcm(*(t.coef.denominator for t in plain))
    nums = [(t.pi.halves, t.coef.numerator * (den // t.coef.denominator)) for t in plain]
    return den, nums, other


def ts_mul(a: tuple, b: tuple) -> tuple:
    """Product of two canonical term sums.

    Plain term pairs multiply on integer numerators into one accumulator per
    merged Pi monomial; pairs with an atom or a radical go through
    ``_term_mul``, and only then is the result merged by ``ts_make``.
    """
    if not a or not b:
        return TS_ZERO
    if _is_unit(a):
        return b
    if _is_unit(b):
        return a
    da, pa, oa = _split_plain(a)
    db, pb, ob = _split_plain(b)
    acc: dict = {}
    for h1, n1 in pa:
        for h2, n2 in pb:
            if h1 and h2:
                merged = dict(h1)
                for n, h in h2:
                    merged[n] = merged.get(n, 0) + h
                key = tuple(sorted(item for item in merged.items() if item[1]))
            else:
                key = h1 or h2
            acc[key] = acc.get(key, 0) + n1 * n2
    den = da * db
    out = [Term(Fraction(num, den), PiMonomial(key)) for key, num in sorted(acc.items()) if num]
    if not (oa or ob):
        return tuple(out)
    for t1 in a:
        for t2 in (ob if not (t1.lamberts or t1.sqrts) else b):
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
            tuple(sorted((s.scaled(j) for s in t.lamberts), key=_key)),
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
        f = _build(expr.child)
        return _pow_frac(f, Fraction(1, 2)) if isinstance(expr.child, (Pi, Const)) else _sqrt_frac(f)
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
            root = _rational_nth_root(mono.coef, 2)
            if root is not None and not any(h % 2 for _, h in mono.pi.halves):
                return _Frac((Term(root ** e.numerator, mono.pi ** e),), TS_ONE)
        ipart = (e.numerator - 1) // 2  # e = ipart + 1/2 with odd numerator
        return _pow_frac(f, Fraction(ipart)) * _sqrt_frac(f)
    raise NotPolynomializable(f"unsupported fractional exponent {e}")


def net_clearing_monomial(terms: Iterable[Term]) -> PiMonomial:
    """Monomial multiplier making every exponent nonnegative with no common factor.

    Negative per-variable minima are lifted to zero and positive ones shared
    by all terms are cancelled away, so the cleared sum is the least monomial
    multiple of the input with nonnegative exponents.
    """
    mins: dict[int, int] = {}  # n -> least 2k
    first = True
    for t in terms:
        exps = dict(t.pi.halves)
        if first:
            mins = exps
            first = False
        else:
            for n in list(mins):
                mins[n] = min(mins[n], exps.get(n, 0))
            for n, h in exps.items():
                if n not in mins:
                    mins[n] = min(h, 0)
    return PiMonomial(tuple(sorted((n, -h) for n, h in mins.items() if h)))


def build_sides(rec: IdentityRecord) -> tuple[tuple, tuple]:
    """Cleared left and right term sums over a common denominator.

    Each side's numerator is multiplied by the other side's denominator, and
    both by the one clearing monomial of their union, so every Pi exponent
    is nonnegative and no Pi factor is common to all terms.
    """
    fl, fr = _build(rec.lhs), _build(rec.rhs)
    lnum = ts_mul(fl.num, fr.den)
    rnum = ts_mul(fr.num, fl.den)
    m = net_clearing_monomial(tuple(lnum) + tuple(rnum))
    mt = (Term(Fraction(1), m),)
    return ts_mul(lnum, mt), ts_mul(rnum, mt)
