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

``sqrt(pi(n))`` and ``pi(n)^1/2`` are canonicalized identically.  A rational
*power* of one Pi monomial goes onto its exponents when they stay
half-integers and its coefficient has the rational root (one rule,
``_term_power``, for flattening and evaluation, so ``(pi(1)^2)^1/4`` is
``pi(1)^1/2``).  Any other half-integer power, and ``sqrt()`` of anything
larger than a single Pi atom, keeps formal square roots, which the proof
engine's squaring rounds eliminate.  A term carries distinct radicals, with
sqrt(R)*sqrt(R) = R their one product rule.  ``_root`` makes each one the
positively leading root of a radicand that must not lead negatively; the
root of a product, ``sqrt(X*Y*...)`` or a half-integer power, is one root
per positively leading factor of several terms times one over the rest.  So
``(pi(1)/pi(9))^1/2*pi(9) = pi(1)^1/2*pi(9)^1/2`` cancels symbolically,
while the same identity written with ``sqrt(pi(1)/pi(9))`` is proven
through the squaring round.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import NonRootLeadingCoefficient, NotPolynomializable, ParseError, SemanticError
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

# One match per token: a run of whitespace (space, tab, CR, LF; each one
# column, LF alone starts a line), then an ASCII number, a name, any other
# character, or the end of the text.  Positions come from the whitespace runs
# and the token lengths alone.
_TOKEN_RE = re.compile(r"([ \t\r\n]*)(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|(.)|\Z)", re.S)
_SYMBOLS = set("-+*/^(),=")


class _Tokenizer:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        for m in _TOKEN_RE.finditer(text):
            space, num, name, other = m.groups()
            if space:
                breaks = space.count("\n")
                if breaks:
                    line, col = line + breaks, len(space) - space.rfind("\n")
                else:
                    col += len(space)
            if num:
                kind, lexeme = "NUM", num
            elif name:
                kind, lexeme = "NAME", name
            elif other:
                if other not in _SYMBOLS:
                    raise ParseError(f"unexpected character {other!r}", line, col)
                kind, lexeme = other, other
            else:
                break
            self.tokens.append((kind, lexeme, line, col))
            col += len(lexeme)
        # Two EOF tokens: peek(1) at the last real token or at EOF, and one
        # next() past EOF, stay in the list.
        self.tokens += [("EOF", "", line, col)] * 2
        self.i = 0

    def peek(self, ahead: int = 0):
        return self.tokens[self.i + ahead]

    def next(self):
        tok = self.tokens[self.i]
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
        num = self.parse_digits()
        den = 1
        # A slash directly followed by digits is part of the rational literal
        # (this is what makes "^3/2" a 3/2 power); division between larger
        # operands is handled by the term parser.
        if self.toks.peek()[0] == "/" and self.toks.peek(1)[0] == "NUM":
            self.toks.next()
            _, _, line, col = self.toks.peek()
            den = self.parse_digits()
            if den == 0:
                raise SemanticError("zero denominator in rational literal", line, col)
        return Fraction(sign * num, den)

    def parse_int(self) -> int:
        sign = 1
        if self.toks.peek()[0] == "-":
            self.toks.next()
            sign = -1
        return sign * self.parse_digits()

    def parse_digits(self) -> int:
        _, lexeme, line, col = self.toks.peek()
        self.expect("NUM")
        try:
            return int(lexeme)
        except ValueError:  # longer than Python's int-conversion digit limit
            raise SemanticError(
                f"integer literal of {len(lexeme)} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits", line, col,
            ) from None

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
    records, seen = [], set()
    fields: dict[str, str] = {}
    spots: dict[str, tuple[int, int]] = {}  # field -> (line, column) of its value

    def flush():
        if not fields:
            return
        missing = [k for k in ("id", "dsl") if k not in fields]
        if missing:
            raise ParseError(f"record missing field(s) {missing}", min(spots.values())[0], 1)
        try:
            rec = parse_identity(fields["dsl"], id=fields["id"], source=fields.get("source", ""))
        except ParseError as exc:
            # The DSL value is one line: place the error at its column there.
            raise ParseError(
                f"in record {fields['id']!r}: {exc.message}",
                spots["dsl"][0], spots["dsl"][1] + exc.column - 1, exc.expected,
            ) from exc
        if rec.id in seen:
            raise ParseError(f"duplicate record id {rec.id!r}", spots["id"][0], 1)
        seen.add(rec.id)
        records.append(rec)
        fields.clear()
        spots.clear()

    for i, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip()
        if not line.strip():
            flush()
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
        fields[key], spots[key] = value.strip(), (i, column)
    flush()
    return records


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _term_power(coef: Fraction, mono: PiMonomial, e: Fraction) -> Optional[tuple[Fraction, PiMonomial]]:
    """(coef * mono)^e as ``(coef', mono')`` when the power moves onto the
    exponents, else None: every Pi exponent times e stays a half-integer (e's
    denominator divides each 2k), and coef has the rational root that
    ``ScaledSeries.pow`` takes (not zero, not negative under an even root)."""
    if coef == 0 or any(h % e.denominator for _, h in mono.halves):
        return None
    root = _rational_nth_root(coef, e.denominator)
    return None if root is None else (root**e.numerator, mono**e)


def _pi_factor(expr: Expr) -> Optional[tuple[Fraction, PiMonomial]]:
    """The expression as ``(coef, m)`` with value coef * m for one Pi monomial m.

    A structural walk over constants, Pi atoms, negations, products, powers,
    square roots and substitutions.  It gives up (None) on a sum or a Lambert
    atom and on a power that ``_term_power`` does not move onto the
    exponents, so those inputs keep the generic evaluation and its errors.
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
        return _term_power(coef, mono, expr.e if isinstance(expr, Pow) else Fraction(1, 2))
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
    """coef * PiMonomial * (atoms) * (distinct sqrt radicals, sorted).

    Flattening fills the atom slot with Lambert atoms (``LambertSpec``); the
    prover rewrites them into constants and certified ``E2Combo``/``E4Combo``
    factors, and ``weight`` and ``describe`` apply to such reduced terms.
    """

    coef: Fraction
    pi: PiMonomial
    lamberts: tuple = ()
    sqrts: tuple[SqrtAtom, ...] = ()

    @property
    def weight(self) -> Fraction:
        """Weight of a radical-free term."""
        return self.pi.weight + sum(a.weight for a in self.lamberts)

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


def _term_mul(t1: Term, t2: Term) -> list[Term]:
    """Product of two terms; a radical on both is its radicand, sqrt(R)*sqrt(R) = R."""
    lamberts = tuple(sorted(t1.lamberts + t2.lamberts, key=_key))
    shared = [atom for atom in t1.sqrts if atom in t2.sqrts]
    sqrts = tuple(sorted((a for a in t1.sqrts + t2.sqrts if a not in shared), key=_key))
    out = [Term(t1.coef * t2.coef, t1.pi * t2.pi, lamberts, sqrts)]
    for atom in shared:
        out = [t for b in out for u in atom.inner for t in _term_mul(b, u)]
    return out


def _is_unit(a: tuple) -> bool:
    """Whether the canonical term sum ``a`` is ``TS_ONE``, checked field by field."""
    return len(a) == 1 and not (a[0].pi.halves or a[0].lamberts or a[0].sqrts) and a[0].coef == 1


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
    result, base = TS_ONE, a
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


def _product(fracs) -> _Frac:
    return functools.reduce(_Frac.__mul__, fracs, _Frac(TS_ONE, TS_ONE))


def _single_pi_term(f: _Frac) -> Optional[tuple[Fraction, PiMonomial]]:
    """The fraction as ``(coef, mono)`` for one radical-free, Lambert-free Pi term."""
    if len(f.num) != 1 or len(f.den) != 1:
        return None
    n, d = f.num[0], f.den[0]
    if n.lamberts or n.sqrts or d.lamberts or d.sqrts:
        return None
    return n.coef / d.coef, n.pi * d.pi ** -1


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
        return _product(_build(c) for c in expr.children)
    if isinstance(expr, Subst):
        f = _build(expr.child)
        return _Frac(ts_subst(f.num, expr.j), ts_subst(f.den, expr.j))
    if isinstance(expr, Pow):
        return _pow_frac([_build(c) for c in _factors(expr.child)], expr.e)
    if isinstance(expr, Sqrt):
        factors = [_build(c) for c in _factors(expr.child)]
        return _pow_frac(factors, Fraction(1, 2)) if isinstance(expr.child, (Pi, Const)) else _sqrt_frac(factors)
    raise TypeError(f"not an expression node: {expr!r}")


def _factors(expr: Expr) -> list:
    """The factors of a product, nested products flattened; else [expr]."""
    if isinstance(expr, Mul):
        return [f for c in expr.children for f in _factors(c)]
    return [expr]


def _sqrt_frac(factors: list) -> _Frac:
    """Radicals over a product of flattened fractions: one per factor of more
    than one term that leads positively, and one over the other factors."""
    alone = [
        (len(f.num) > 1 or len(f.den) > 1) and _leading_coefficient(f.num) * _leading_coefficient(f.den) > 0
        for f in factors
    ]
    rest = _product(f for f, a in zip(factors, alone) if not a)
    return _product([_root(f) for f, a in zip(factors, alone) if a] + [_root(rest)])


def _root(f: _Frac) -> _Frac:
    """sqrt(n/d) = sqrt(n*d)/|d|, n*d not leading negatively; a single-term
    radicand c^2*M^2*r is c*M*sqrt(r), M the largest Pi monomial of integer
    exponents whose square divides it, c the rational root of its coefficient
    when there is one."""
    inner = ts_mul(f.num, f.den)
    if any(t.sqrts for t in inner):
        raise NotPolynomializable("nested radicals exceed one squaring round")
    if not inner:
        return _Frac(TS_ZERO, TS_ONE)
    lead = _leading_coefficient(inner)
    if lead < 0:
        raise NonRootLeadingCoefficient(f"radicand leads with negative coefficient {lead}")
    den = ts_neg(f.den) if _leading_coefficient(f.den) < 0 else f.den
    coef, outer = Fraction(1), PiMonomial.one()
    if len(inner) == 1:
        t = inner[0]
        coef = _rational_nth_root(t.coef, 2) or coef
        outer = PiMonomial.make({n: h // 4 for n, h in t.pi.halves})
        rest = (Term(t.coef / coef**2, t.pi * outer**-2, t.lamberts),)
        inner = () if _is_unit(rest) else rest
    return _Frac((Term(coef, outer, (), (SqrtAtom(inner),) if inner else ()),), den)


def _leading_coefficient(ts: tuple) -> Fraction:
    """Leading q-coefficient of a radical-free term sum, 0 for a radical or when
    none shows within 512 past the least valuation; a Pi monomial leads with 1."""
    start, window = min((t.pi.valuation for t in ts), default=Fraction(0)), 8
    lead = sum(t.coef for t in ts if t.pi.valuation == start)
    if lead and not any(t.lamberts or t.sqrts for t in ts):
        return lead
    while window <= 512 and ts and not any(t.sqrts for t in ts):
        b, n = start + window, max(8, math.ceil(start + window))
        s = ScaledSeries.linear_sum(
            (t.coef, functools.reduce(lambda x, a: x * expand_lambert(a, n), t.lamberts, t.pi.expand_to(b))) for t in ts
        )
        if not s.is_zero():
            return s.leading_coefficient()
        window *= 2
    return Fraction(0)


def _pow_frac(factors: list, e: Fraction) -> _Frac:
    """The product of the factors to the power e."""
    f, e = _product(factors), _frac(e)
    if e.denominator == 1:
        n = int(e)
        if n <= 0 and not f.num:
            what = "0^0 is undefined for" if n == 0 else "division by"
            raise NotPolynomializable(f"{what} a symbolically zero expression")
        if n >= 0:
            return _Frac(ts_pow_int(f.num, n), ts_pow_int(f.den, n))
        return _Frac(ts_pow_int(f.den, -n), ts_pow_int(f.num, -n))
    # A fractional power of one Pi term moves onto its exponents by the
    # evaluator's rule; a half-integer power of anything else keeps a radical.
    term = _single_pi_term(f)
    moved = None if term is None else _term_power(*term, e)
    if moved is not None:
        return _Frac((Term(*moved),), TS_ONE)
    if e.denominator == 2:
        ipart = (e.numerator - 1) // 2  # e = ipart + 1/2 with odd numerator
        return _sqrt_frac(factors) if ipart == 0 else _pow_frac([f], Fraction(ipart)) * _sqrt_frac(factors)
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
