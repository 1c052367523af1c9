"""Command-line front end.

Subcommands: verify (corpus proof sweep, one record after another in this
process), expand (q-expansion of a DSL expression), discover (relation
mining), haupt (rational-function fit), cusps (canonical cusp list), sturm
(coefficient bound).

Exit codes: 0 success, 1 mathematical failure (refuted or uncertified),
2 usage or parse error: an unknown flag, a number flag out of range, or DSL
or corpus text that does not parse, including an out-of-domain argument such
as pi(0) and a corpus field other than id, source and dsl.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .errors import ParseError, PiqError
from .etaq import cusps
from .ident import (
    Add,
    IdentityRecord,
    Mul,
    Neg,
    Pow,
    Sqrt,
    Subst,
    _frac_str,
    evaluate_to_bound,
    parse_corpus,
    parse_expression,
    parse_identity,
)
from .verify import ProofReport, ProveConfig, check, prove, sturm_bound

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

TSV_HEADER = "id\tverdict\tweight\tlevel\tm\tsturm\tchecked"
TSV_VERSION = "# piq report v1"


def _int_at_least(low: int):
    """argparse type: an integer >= low, rejected with a usage error otherwise."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _load_records(args) -> list[IdentityRecord]:
    if args.dsl:
        return [parse_identity(args.dsl, id="inline")]
    with open(args.corpus, "r", encoding="utf-8") as fh:
        return parse_corpus(fh.read())


def _report_text(rep: ProofReport, verbose: bool) -> str:
    bits = [f"{rep.id}: {rep.verdict}"]
    if rep.verdict in ("PROVEN", "REFUTED"):
        # A REFUTED from a plain check has no weight, level, m or Sturm bound.
        if rep.sturm_bound is not None:
            bits.append(
                f"(weight {rep.weight}, level {rep.level}, m={rep.subst_exponent}, "
                f"sturm {rep.sturm_bound}, compared {rep.coefficients_compared})"
            )
        else:
            bits.append(f"(compared {rep.coefficients_compared})")
    elif rep.verdict == "CHECKED":
        bits.append(f"({rep.coefficients_compared} coefficients)")
    if rep.detail:
        bits.append(f"-- {rep.detail}")
    out = " ".join(bits)
    if verbose and rep.certificate is not None:
        cert = rep.certificate
        lines = [out]
        if cert.clearing is not None:
            lines.append(f"    clearing multiplier: {dict(cert.clearing.exponents)}")
        for cite in cert.citations:
            lines.append(f"    rule: {cite}")
        for tf in cert.terms:
            lines.append(f"    term {tf.term} | weight {tf.weight} | orders {dict(tf.cusp_orders)}")
        return "\n".join(lines)
    return out


def cmd_verify(args) -> int:
    try:
        records = _load_records(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.id:
        wanted = set(args.id)
        records = [r for r in records if r.id in wanted]
        missing = wanted - {r.id for r in records}
        if missing:
            print(f"unknown record id(s): {sorted(missing)}", file=sys.stderr)
            return EXIT_USAGE
    records.sort(key=lambda r: r.id)
    config = ProveConfig(max_coefficients=args.max_coefficients)
    reports = [
        check(rec, args.terms) if args.mode == "check" else prove(rec, config)
        for rec in records
    ]
    if args.report == "tsv":
        print(TSV_VERSION)
        print(TSV_HEADER)
        for rep in reports:
            print(rep.tsv_line())
    else:
        for rep in reports:
            print(_report_text(rep, args.verbose))
    good = {"PROVEN"} if args.mode == "proof" else {"PROVEN", "CHECKED"}
    return EXIT_OK if all(rep.verdict in good for rep in reports) else EXIT_MATH


def _stretch(expr) -> int:
    """Largest product of nested subst() exponents: how far q -> q^j spreads terms."""
    if isinstance(expr, Subst):
        return expr.j * _stretch(expr.child)
    if isinstance(expr, (Add, Mul)):
        return max((_stretch(c) for c in expr.children), default=1)
    if isinstance(expr, (Neg, Pow, Sqrt)):
        return _stretch(expr.child)
    return 1


def cmd_expand(args) -> int:
    try:
        expr = parse_expression(args.dsl)
    except (ParseError, PiqError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Step along the arithmetic progression the series actually lives on:
    # widen the window until two nonzero terms show it, the series is exact,
    # or the window spans eight stretched terms (a zero or constant series).
    need, reach = Fraction(1), 8 * _stretch(expr)
    try:
        while True:
            series = evaluate_to_bound(expr, need)
            val = series.valuation()
            start = val if val is not None else Fraction(0)
            nums = list(series.nums)
            if len(nums) >= 2 or series.bound == math.inf or series.bound >= start + reach:
                break
            need = 2 * series.bound
        stride = math.gcd(*(n - nums[0] for n in nums[1:]))
        step = Fraction(stride, series.scale) if stride else Fraction(1)
        # A nonzero term inside the printed range but off the progression
        # refines the step to the gcd; the step only shrinks, so this ends.
        while True:
            series = evaluate_to_bound(expr, start + step * args.terms)
            last = start + step * (args.terms - 1)
            off = [e - start for e, _ in series.items() if e <= last and (e - start) % step]
            if not off:
                break
            den = math.lcm(step.denominator, *(x.denominator for x in off))
            step = Fraction(math.gcd(*(int(x * den) for x in (step, *off))), den)
    except PiqError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    for i in range(args.terms):
        e = start + step * i
        print(f"{_frac_str(e)} {_frac_str(series.coefficient(e))}")
    return EXIT_OK


def cmd_discover(args) -> int:
    from .discover import DiscoveryQuery, mine

    try:
        indices = tuple(int(x) for x in args.indices.split(","))
        query = DiscoveryQuery.make(indices, args.max_degree)
    except ValueError as exc:
        print(f"bad indices: {exc}", file=sys.stderr)
        return EXIT_USAGE
    relations = mine(query)
    if args.report == "tsv":
        print(TSV_VERSION)
        print("degree\tclass\tdsl")
        for rel in relations:
            print(f"{rel.degree}\t{rel.residue_class}\t{rel.dsl}")
    else:
        for rel in relations:
            print(rel.dsl)
    return EXIT_OK


def cmd_haupt(args) -> int:
    from .haupt import fit_rational

    try:
        target = parse_expression(args.target)
        h = parse_expression(args.haupt)
    except (ParseError, PiqError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        fit = fit_rational(target, h, args.level, max_degree=args.max_degree)
    except ValueError as exc:  # a level where Gamma_0(N) has no hauptmodul
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PiqError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    print(f"numerator: {list(fit.numerator)}")
    print(f"denominator: {list(fit.denominator)}")
    print(f"identity: {fit.identity_dsl()}")
    print(f"certificate: {fit.certificate.verdict} weight {fit.certificate.weight} "
          f"level {fit.certificate.level} sturm {fit.certificate.sturm_bound}")
    return EXIT_OK


def cmd_cusps(args) -> int:
    for c in cusps(args.level):
        print(c.label(args.level))
    return EXIT_OK


def cmd_sturm(args) -> int:
    print(sturm_bound(args.level, args.weight))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="piq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="prove or check identities from a corpus file")
    v.add_argument("corpus", nargs="?", help="corpus file path")
    v.add_argument("--dsl", help="inline identity instead of a corpus file")
    v.add_argument("--id", action="append", help="restrict to the given record id(s)")
    v.add_argument("--mode", choices=["proof", "check"], default="proof")
    v.add_argument("--terms", type=_int_at_least(1), default=100, help="check-mode coefficient window")
    v.add_argument("--report", choices=["text", "tsv"], default="text")
    v.add_argument("--max-coefficients", type=_int_at_least(1), default=2000)
    v.add_argument("--verbose", "-v", action="store_true")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("expand", help="print exponent/coefficient pairs of an expression")
    e.add_argument("dsl")
    e.add_argument("--terms", type=_int_at_least(1), default=10)
    e.set_defaults(func=cmd_expand)

    d = sub.add_parser("discover", help="mine certified monomial relations")
    d.add_argument("indices", help="comma-separated Pi indices, e.g. 1,2,3,6")
    d.add_argument("--max-degree", type=_int_at_least(1), default=6)
    d.add_argument("--report", choices=["text", "tsv"], default="text")
    d.set_defaults(func=cmd_discover)

    h = sub.add_parser("haupt", help="fit a weight-0 expression as a rational function of a hauptmodul")
    h.add_argument("--level", type=_int_at_least(1), required=True)
    h.add_argument("--target", required=True)
    h.add_argument("--haupt", required=True)
    h.add_argument("--max-degree", type=_int_at_least(0), default=8)
    h.set_defaults(func=cmd_haupt)

    c = sub.add_parser("cusps", help="list canonical cusp representatives of Gamma_0(N)")
    c.add_argument("--level", type=_int_at_least(1), required=True)
    c.set_defaults(func=cmd_cusps)

    s = sub.add_parser("sturm", help="Sturm coefficient bound for (level, weight)")
    s.add_argument("--level", type=_int_at_least(1), required=True)
    s.add_argument("--weight", type=_int_at_least(0), required=True)
    s.set_defaults(func=cmd_sturm)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "verify" and not args.corpus and not args.dsl:
        ap.error("verify needs a corpus path or --dsl")
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
