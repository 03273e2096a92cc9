"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 construction hypotheses
unsatisfiable, 3 malformed input.  Summary output is one key=value record
per line so scripts can grep results.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import bounds, ccma, gf
from .function_field import (EllipticCurve, curve_search, best_stat_curves,
                             catalog_rows, BudgetExceededError)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _emit(**kv):
    print(" ".join("%s=%s" % (k, v) for k, v in kv.items()))


def _canonical_field(q):
    p, s = gf.factor_prime_power(q)
    return gf.canonical_extension(gf.prime_field(p), s)


def _check_qn(q, n, for_construction):
    gf.factor_prime_power(q)
    if q > (1 << 16):
        raise ValueError("q must be <= 2^16")
    if for_construction and q ** n > (1 << 20):
        raise ValueError("q^n must be <= 2^20 for construction subcommands")


def _select_curves(args, field):
    """Candidate (genus, curve) attempts for cmd_construct, in order."""
    if args.curve is not None:
        coeffs = [int(c) for c in args.curve.split(",")]
        if len(coeffs) != 5:
            raise ValueError("--curve expects a1,a2,a3,a4,a6")
        return [(1, EllipticCurve(field, *coeffs))]
    if args.catalog_index is not None:
        entries = curve_search(field, 0)
        if not 0 <= args.catalog_index < len(entries):
            raise ValueError("catalog index out of range")
        return [(1, entries[args.catalog_index].curve)]
    out = []
    genera = [args.genus] if args.genus is not None else [0, 1]
    for g in genera:
        if g == 0:
            out.append((0, None))
        else:
            try:
                for entry in best_stat_curves(field):
                    if all(c is not entry.curve for _, c in out):
                        out.append((1, entry.curve))
            except BudgetExceededError:
                pass
    return out


def cmd_construct(args):
    _check_qn(args.q, args.n, for_construction=True)
    ccma.verify_mode(args.q ** args.n, args.mode, args.pairs)
    field = _canonical_field(args.q)
    attempts = _select_curves(args, field)
    cases = [(1, ccma.construct_case1)]
    if args.allow_degree2:
        cases.append((3, ccma.construct_case3))
    reasons = []
    formula = None
    for case, builder in cases:
        for g, curve in attempts:
            try:
                formula = builder(args.q, args.n, curve)
                break
            except ccma.ConstructionError as e:
                reasons.append("case%d genus%d: %s" % (case, g, e))
        if formula is not None:
            break
    if formula is None:
        _emit(status="infeasible", q=args.q, n=args.n,
              detail="; ".join(reasons) or "no candidate curve")
        return EXIT_INFEASIBLE
    report = ccma.verify(formula, args.mode, pairs=args.pairs, seed=args.seed)
    if not report.passed:
        _emit(status="verify-failed", failure=report.first_failure)
        return EXIT_VERIFY
    if args.out:
        ccma.save_formula(formula, args.out)
    _emit(status="ok", q=args.q, n=args.n, rank=formula.rank,
          method=formula.provenance.get("method"), verified=report.mode,
          pairs=report.pairs_checked, seed=report.seed if report.seed is not None else 0,
          out=args.out or "-")
    return EXIT_OK


def cmd_verify(args):
    try:
        formula = ccma.load_formula(args.file)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        _emit(status="bad-input", detail=e)
        return EXIT_INPUT
    report = ccma.verify(formula, args.mode, pairs=args.pairs, seed=args.seed)
    _emit(status="ok" if report.passed else "fail", rank=formula.rank,
          mode=report.mode, pairs=report.pairs_checked,
          seed=report.seed if report.seed is not None else 0,
          failure=report.first_failure)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_bound(args):
    _check_qn(args.q, args.n, for_construction=False)
    cert = bounds.best_bound(args.q, args.n, depth=args.depth)
    _emit(status="ok", q=args.q, n=args.n, value=cert.value, method=cert.method,
          flag=cert.flag or "-")
    text = json.dumps(cert.to_dict(), indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _fmt_value(v):
    if v is None:
        return "suppressed"
    if isinstance(v, Fraction):
        return "%s~%.6g" % (v, float(v))
    return "%.15g" % v


def cmd_asym(args):
    _check_qn(args.q, 1, for_construction=False)
    if args.tmax < 0:
        raise ValueError("--tmax must be >= 0")
    for rec in bounds.asymptotic_bounds(args.q):
        _emit(quantity=rec.quantity, q=rec.q, source=rec.source,
              value=_fmt_value(rec.value))
    for t in range(1, args.tmax + 1):
        for rec in bounds.cacr_bounds(args.q, t):
            _emit(quantity=rec.quantity, q=rec.q, source=rec.source, t=t,
                  value=_fmt_value(rec.value))
    return EXIT_OK


def cmd_compare_table(args):
    text = bounds.render_comparison_table()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_curves(args):
    _check_qn(args.q, 1, for_construction=False)
    field = _canonical_field(args.q)
    if args.genus == 0:
        q = field.size
        n1, n2 = q + 1, (q * q - q) // 2
        if n1 >= args.min_n1:
            print("%d,%d,,0,%d,%d" % (field.char, q, n1, n2))
        return EXIT_OK
    try:
        entries = curve_search(field, args.min_n1)
    except BudgetExceededError as e:
        _emit(status="bad-input", detail=e)
        return EXIT_INPUT
    for row in catalog_rows(entries):
        print(row)
    return EXIT_OK


def cmd_brute_rank(args):
    _check_qn(args.q, args.n, for_construction=False)
    try:
        r = ccma.brute_force_symmetric_rank(args.q, args.n, args.max)
    except BudgetExceededError as e:
        _emit(status="bad-input", detail=e)
        return EXIT_INPUT
    if r is None:
        _emit(status="ok", q=args.q, n=args.n, rank_gt=args.max)
    else:
        _emit(status="ok", q=args.q, n=args.n, rank=r)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="curvemul",
                     description="symmetric multiplication formulas and rank bounds "
                                 "for finite-field extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qn(p, with_n=True):
        p.add_argument("--q", type=int, required=True, help="base field size (prime power)")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="extension degree")

    def add_verify_opts(p):
        p.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
        p.add_argument("--pairs", type=int, default=ccma.DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("construct", help="build and verify a multiplication formula")
    add_qn(p)
    p.add_argument("--genus", type=int, choices=(0, 1))
    p.add_argument("--curve", help="a1,a2,a3,a4,a6 element indices (genus 1)")
    p.add_argument("--catalog-index", type=int)
    p.add_argument("--allow-degree2", action="store_true",
                   help="permit degree-2 evaluation places (three terms each)")
    add_verify_opts(p)
    p.add_argument("--out", help="write the formula file here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-verify a formula file")
    p.add_argument("--file", required=True)
    add_verify_opts(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="best symmetric-rank bound with certificate")
    add_qn(p)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("asym", help="asymptotic bound records for one q")
    add_qn(p, with_n=False)
    p.add_argument("--tmax", type=int, default=0,
                   help="also emit the decay-family records for t = 1..tmax")
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("compare-table", help="reproduce the comparison table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare_table)

    p = sub.add_parser("curves", help="curve catalog with (N1, N2)")
    add_qn(p, with_n=False)
    p.add_argument("--genus", type=int, choices=(0, 1), default=1)
    p.add_argument("--min-n1", type=int, default=0)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("brute-rank", help="exact symmetric rank by exhaustive search")
    add_qn(p)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_brute_rank)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, gf.LevelMismatchError) as e:
        _emit(status="bad-input", detail=e)
        return EXIT_INPUT
    except gf.PostconditionError as e:
        _emit(status="verify-failed", detail=e)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
