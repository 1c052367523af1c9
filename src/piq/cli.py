"""Command-line front end.

Subcommands: verify (corpus proof sweep), expand (q-expansion of a DSL
expression), discover (relation mining), haupt (rational-function fit),
cusps (canonical cusp list), sturm (coefficient bound).

Exit codes: 0 success, 1 mathematical failure (refuted or uncertified),
2 usage or parse error.  The environment variable PIQ_MAX_TERMS caps every
expansion window.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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


def _max_terms_cap() -> int | None:
    raw = os.environ.get("PIQ_MAX_TERMS")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(EXIT_USAGE)


def _load_records(args) -> list[IdentityRecord]:
    if args.dsl:
        return [parse_identity(args.dsl, id="inline")]
    with open(args.corpus, "r", encoding="utf-8") as fh:
        return parse_corpus(fh.read())


def _run_one(payload):
    rec, mode, terms, max_clear_weight, max_coefficients = payload
    mode = rec.hints.mode or mode
    if mode == "check":
        return check(rec, terms)
    return prove(
        rec,
        ProveConfig(max_clear_weight=max_clear_weight, max_coefficients=max_coefficients),
    )


def _report_text(rep: ProofReport, verbose: bool) -> str:
    bits = [f"{rep.id}: {rep.verdict}"]
    if rep.verdict in ("PROVEN", "REFUTED"):
        bits.append(
            f"(weight {rep.weight}, level {rep.level}, m={rep.subst_exponent}, "
            f"sturm {rep.sturm_bound}, compared {rep.coefficients_compared})"
        )
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
    cap = _max_terms_cap()
    terms = args.terms
    if cap is not None:
        terms = min(terms, cap)
    payloads = [
        (rec, args.mode, terms, args.max_clear_weight, args.max_coefficients)
        for rec in records
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_run_one, payloads))
    else:
        reports = [_run_one(p) for p in payloads]
    if args.report == "tsv":
        print(TSV_VERSION)
        print(TSV_HEADER)
        for rep in reports:
            print(rep.tsv_line())
    else:
        for rep in reports:
            print(_report_text(rep, args.verbose))
    good = {"PROVEN"} if args.mode == "proof" else {"PROVEN", "CHECKED"}
    ok = all(
        rep.verdict in good or (rep.verdict == "CHECKED" and records[i].hints.mode == "check")
        for i, rep in enumerate(reports)
    )
    return EXIT_OK if ok else EXIT_MATH


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
    cap = _max_terms_cap()
    terms = args.terms
    if cap is not None:
        terms = min(terms, cap)
    # Step along the arithmetic progression the series actually lives on:
    # widen the window until two nonzero terms show it, the series is exact,
    # or the window spans eight stretched terms (a zero or constant series).
    need, reach = Fraction(1), 8 * _stretch(expr)
    while True:
        series = evaluate_to_bound(expr, need)
        val = series.valuation()
        start = val if val is not None else Fraction(0)
        nums = [e * series.scale for e, _ in series.items()]
        if len(nums) >= 2 or series.bound == math.inf or series.bound >= start + reach:
            break
        need = 2 * series.bound
    stride = 0
    for n in nums[1:]:
        stride = math.gcd(stride, int(n - nums[0]))
    step = Fraction(stride, series.scale) if stride else Fraction(1)
    series = evaluate_to_bound(expr, start + step * terms)
    for i in range(terms):
        e = start + step * i
        c = series.coefficient(e)
        e_str = str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        c_str = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        print(f"{e_str} {c_str}")
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
    v.add_argument("--terms", type=int, default=100, help="check-mode coefficient window")
    v.add_argument("--report", choices=["text", "tsv"], default="text")
    v.add_argument("--max-clear-weight", type=int, default=16)
    v.add_argument("--max-coefficients", type=int, default=2000)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--verbose", "-v", action="store_true")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("expand", help="print exponent/coefficient pairs of an expression")
    e.add_argument("dsl")
    e.add_argument("--terms", type=int, default=10)
    e.set_defaults(func=cmd_expand)

    d = sub.add_parser("discover", help="mine certified monomial relations")
    d.add_argument("indices", help="comma-separated Pi indices, e.g. 1,2,3,6")
    d.add_argument("--max-degree", type=int, default=6)
    d.add_argument("--report", choices=["text", "tsv"], default="text")
    d.set_defaults(func=cmd_discover)

    h = sub.add_parser("haupt", help="fit a weight-0 expression as a rational function of a hauptmodul")
    h.add_argument("--level", type=int, required=True)
    h.add_argument("--target", required=True)
    h.add_argument("--haupt", required=True)
    h.add_argument("--max-degree", type=int, default=8)
    h.set_defaults(func=cmd_haupt)

    c = sub.add_parser("cusps", help="list canonical cusp representatives of Gamma_0(N)")
    c.add_argument("--level", type=int, required=True)
    c.set_defaults(func=cmd_cusps)

    s = sub.add_parser("sturm", help="Sturm coefficient bound for (level, weight)")
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--weight", type=int, required=True)
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
