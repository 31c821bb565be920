"""Command-line front end.

Every subcommand prints one JSON document to stdout (deterministic key
order) and reports problems on stderr.  Exit codes: 0 success, 1 an identity
the command checks failed to hold, 2 parse or validation errors, 3 a
hypothesis of the special-value formula failed (multiple roots without a
semisimplicity certificate), 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import (
    FqzetaError,
    HypothesisFailed,
    MultipleRootError,
    PrecisionExhausted,
)
from .gammamodules import invariants_coinvariants, z_of_f
from .gauges import hodge, slope_gauge_check
from .geometry import DEFAULT_BUDGET, _counts, closed_points, corpus, package
from .lfun import (
    MAX_TRUNCATION,
    check_truncation,
    euler_product_series,
    rational_series,
)
from .padics import DEFAULT_PRECISION
from .serialize import (
    SCHEMA,
    dump_json,
    encode_package,
    parse_json,
)
from .specialvalues import (
    MAX_TWIST,
    check_twist,
    verify_elladic,
    verify_padic,
)


def _read(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FqzetaError(f"cannot read {what} file {path}: {exc}") from exc


def _emit(payload, report=None):
    """Write payload, with the fields of a `VerificationReport` when given.

    Every number is turned into text here; one too long for Python's
    int-to-str limit (4300 digits by default) exits 2 like any input
    above a cap, not 1, which means a failed identity.
    """
    try:
        if report is not None:
            payload = {**payload, **report.to_dict()}
        text = dump_json(payload)
    except ValueError as exc:
        raise FqzetaError(f"output too large to print: {exc}") from exc
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_slopes(args):
    crystal = parse_json(_read(args.input, "crystal"),
                         expected={"isocrystal", "virtual_crystal"},
                         prec=args.prec)
    profile = crystal.slopes()
    _emit({
        "schema": SCHEMA, "type": "slope_profile",
        "p": crystal.ctx.p, "a": crystal.ctx.a, "rank": crystal.rank,
        "profile": [[s, m] for s, m in profile],
    })
    return 0


def _cmd_gauge(args):
    crystal = parse_json(_read(args.input, "crystal"),
                         expected={"virtual_crystal", "isocrystal"},
                         prec=args.prec)
    window = hodge(crystal)
    comparison = slope_gauge_check(crystal, window)
    _emit({
        "schema": SCHEMA, "type": "gauge_report",
        "p": crystal.ctx.p, "a": crystal.ctx.a, "rank": crystal.rank,
        "window": {"i_min": window.i_min, "i_max": window.i_max},
        "hodge_numbers": window.hodge_numbers,
        "det_valuation": window.det_val,
        "newton_hodge": comparison,
    })
    return 0


def _cmd_zeta(args):
    check_truncation(args.truncation)
    spec = parse_json(_read(args.variety, "variety"), expected={"variety"})
    pkg = package(spec, prec=args.prec, budget=args.budget)
    zeta = pkg.zeta()
    counts = _counts(spec, args.truncation, pkg.n1)    # no second count
    euler = euler_product_series(closed_points(counts),
                                 truncation=args.truncation)
    series = rational_series(zeta, truncation=args.truncation)
    match = euler == series
    _emit({
        "schema": SCHEMA, "type": "zeta_report",
        "q": pkg.q, "num": zeta.num, "den": zeta.den,
        "factors": {j: d.poly for j, d in sorted(pkg.degrees.items())},
        "point_counts": list(counts),
        "series": series,
        "euler_match": match,
    })
    return 0 if match else 1


def _cmd_zf(args):
    module = parse_json(_read(args.gamma, "gamma module"),
                        expected={"gamma_module"}, prec=args.prec)
    z_snf = z_of_f(module, route="snf")
    z_poly = z_of_f(module, route="poly")
    inv, coinv = invariants_coinvariants(module)
    _emit({
        "schema": SCHEMA, "type": "zf_report",
        "ring": module.ring, "prime": module.prime,
        "z_snf": z_snf, "z_poly": z_poly,
        "routes_agree": z_snf == z_poly,
        "invariants": {"free_rank": inv.free_rank,
                       "torsion": list(inv.torsion)},
        "coinvariants": {"free_rank": coinv.free_rank,
                         "torsion": list(coinv.torsion)},
    })
    return 0 if z_snf == z_poly else 1


def _load_package(args):
    if (args.package is None) == (args.variety is None):
        raise FqzetaError("verify needs exactly one of --package/--variety")
    if args.package is not None:
        return parse_json(_read(args.package, "package"),
                          expected={"package"}, prec=args.prec)
    spec = parse_json(_read(args.variety, "variety"), expected={"variety"})
    return package(spec, prec=args.prec, budget=args.budget)


def _cmd_verify(args):
    check_twist(args.r)
    pkg = _load_package(args)
    if args.ell is not None:
        report = verify_elladic(pkg, args.r, args.ell)
    else:
        report = verify_padic(pkg, args.r)
    _emit({"schema": SCHEMA, "type": "verification_report"}, report)
    return 0 if report.passed else 1


def _cmd_corpus(args):
    fixtures = corpus()
    if args.action == "list":
        _emit({"schema": SCHEMA, "type": "corpus",
               "fixtures": sorted(fixtures)})
        return 0
    results, all_passed = [], True
    for name in sorted(fixtures):
        spec = fixtures[name]
        pkg = package(spec, prec=args.prec, budget=args.budget)
        r_values = sorted({0, 1, spec.dim})
        for r in r_values:
            runs = [("p-adic", verify_padic(pkg, r))]
            if args.ell is not None:
                runs.append((f"{args.ell}-adic",
                             verify_elladic(pkg, r, args.ell)))
            for label, rep in runs:
                all_passed &= rep.passed
                results.append({
                    "name": name, "r": r, "route": label,
                    "prime": rep.prime,
                    "rho": rep.rho_analytic,
                    "leading": rep.leading,
                    "abs_inverse": rep.abs_inverse,
                    "chi": rep.chi,
                    "chi_tilde": rep.chi_tilde,
                    "chi_hodge": rep.chi_hodge,
                    "passed": rep.passed,
                })
    _emit({"schema": SCHEMA, "type": "corpus_report",
           "results": results, "all_passed": all_passed})
    return 0 if all_passed else 1


def _cmd_package(args):
    spec = parse_json(_read(args.variety, "variety"), expected={"variety"})
    pkg = package(spec, prec=args.prec, budget=args.budget)
    _emit(encode_package(pkg))
    return 0


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser():
    """The parser, built on the first call and kept: parsing leaves it as it
    was, so every call of `main` in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="fqzeta",
        description="Special values of zeta functions over finite fields: "
                    "slopes, gauges, point counts, and two-sided "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False, truncation=False):
        p.add_argument("--prec", type=int, default=DEFAULT_PRECISION,
                       help="working p-adic precision (digits)")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="field operations for point counting: "
                                "3p per distinct elliptic curve")
        if truncation:
            p.add_argument("--truncation", type=int, default=10,
                           help="series comparison order T, "
                                f"0 <= T <= {MAX_TRUNCATION}")

    p = sub.add_parser("slopes", help="Newton slope profile of a crystal")
    p.add_argument("--input", required=True, help="crystal JSON file")
    common(p)
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("gauge", help="gauge window and Hodge numbers")
    p.add_argument("--input", required=True, help="virtual-crystal JSON file")
    common(p)
    p.set_defaults(func=_cmd_gauge)

    p = sub.add_parser("zeta", help="zeta function with Euler-product check")
    p.add_argument("--variety", required=True, help="variety JSON file")
    common(p, budget=True, truncation=True)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("zf", help="z(f) of a Gamma-module, both routes")
    p.add_argument("--gamma", required=True, help="Gamma-module JSON file")
    common(p)
    p.set_defaults(func=_cmd_zf)

    p = sub.add_parser("verify", help="two-sided special-value verification")
    p.add_argument("--package", help="cohomology-package JSON file")
    p.add_argument("--variety", help="variety JSON file (package built here)")
    p.add_argument("--r", type=int, required=True,
                   help=f"twist integer r, |r| <= {MAX_TWIST}")
    p.add_argument("--ell", type=int, help="auxiliary prime for l-adic route")
    common(p, budget=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("package", help="emit the cohomology package JSON")
    p.add_argument("--variety", required=True, help="variety JSON file")
    common(p, budget=True)
    p.set_defaults(func=_cmd_package)

    p = sub.add_parser("corpus", help="built-in fixtures")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("--ell", type=int, help="also run the l-adic route")
    common(p, budget=True)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (HypothesisFailed, MultipleRootError) as exc:
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 3
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 4
    except FqzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
