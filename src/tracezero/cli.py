"""Command line front end.

Subcommands:

  count    the two vanishing-coefficient counts for one n
  table    the same over a range of n
  verify   run the brute-force verification suite
  lpoly    L-polynomial coefficients of one curve
  curve    point counts of one curve
  family   a Legendre-symbol sequence family
  bound    distinct-family count against its upper bound

Output is text by default; --format json (and csv for table) gives
machine-readable output with big integers as decimal strings.  Exit codes:
0 success, 1 verification failure, 2 usage or budget error, 3 internal
invariant breach.  Identical configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gf
from .counting import CountEngine
from .curves import CurveSpec, check_count_cap, count_points
from .errors import (
    BudgetExceededError,
    HasseWeilError,
    InvariantError,
    NegativeCountError,
    NonIntegralError,
    NonMonicError,
    NonPrimeError,
    ZeroEvaluationError,
)
from .numtheory import is_prime
from .oracle import cross_check, verify_all
from .sequences import build_family, distinct_family_count, omega_members

ENV_BUDGET = "TRACEZERO_MAX_ELEMENTS"

_USAGE_ERRORS = (NonPrimeError, NonMonicError, BudgetExceededError, ValueError)
_INTERNAL_ERRORS = (
    NonIntegralError,
    HasseWeilError,
    NegativeCountError,
    InvariantError,
    ZeroEvaluationError,
)


def _max_elements(args) -> int:
    if getattr(args, "max_elements", None) is not None:
        return args.max_elements
    env = os.environ.get(ENV_BUDGET)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{ENV_BUDGET} must be an integer, got {env!r}")
        if cap < 1:
            raise ValueError(f"{ENV_BUDGET} must be positive")
        return cap
    return gf.DEFAULT_MAX_ELEMENTS


def _field(args) -> gf.FieldSpec:
    if not is_prime(args.p):
        raise NonPrimeError(f"--p {args.p} is not prime")
    field = gf.make_field(args.p, args.r)
    if getattr(args, "modulus", None):
        coeffs = _parse_coeff_list(args.modulus)
        if coeffs != field.modulus:
            # the constructor checks degree, coefficients, monic and irreducible
            field = gf.ExtensionField(gf.make_field(args.p, 1), args.r, coeffs)
    return field


def _parse_coeff_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _parse_element(field: gf.FieldSpec, text: str):
    """An element literal: either a positional code or c0,c1,... digits."""
    if "," in text:
        digs = _parse_coeff_list(text)
        if len(digs) != field.r or any(not 0 <= d < field.p for d in digs):
            raise ValueError(f"element digits {text!r} do not fit F_{field.order}")
        return field.from_flat_digits(digs)
    code = int(text)
    return field.from_code(code)


def _family_source(p: int, text: str) -> tuple[int, ...]:
    """An explicit family polynomial: p an odd prime, f(x) != 0 for x in F_p*.

    The rows evaluate f only at units, so a root at 0 does no harm; the
    top coefficient must not vanish mod p, or the degree would be wrong.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    f = _parse_coeff_list(text)
    if f[-1] % p == 0:
        raise ValueError(f"the top coefficient of --poly {text} vanishes mod {p}")
    for x in range(1, p):
        if sum(c * x**k for k, c in enumerate(f)) % p == 0:
            raise ValueError(f"--poly {text} has the root {x} in F_{p}")
    return f


def _engine(args, field: gf.FieldSpec) -> CountEngine:
    """Build the engine; say on stderr when the cap cut its self-check short."""
    engine = CountEngine(field, max_elements=_max_elements(args))
    if engine.selfcheck_note:
        print(f"note: {engine.selfcheck_note}", file=sys.stderr)
    return engine


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_count(args) -> int:
    field = _field(args)
    engine = _engine(args, field)
    fc = engine.f_count(args.n)
    ic = engine.i_count(args.n)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "q": field.order,
                    "n": args.n,
                    "f_count": str(fc),
                    "i_count": str(ic),
                    "method": "formula",
                },
                indent=2,
            )
        )
    else:
        _emit(
            f"q={field.order} n={args.n}\n"
            f"elements with vanishing trace pair: {fc}\n"
            f"irreducibles with vanishing end coefficients: {ic}"
        )
    return 0


def cmd_table(args) -> int:
    field = _field(args)
    engine = _engine(args, field)
    report = engine.table(args.n_min, args.n_max)
    checked = cross_check(report, _max_elements(args)) if args.cross_check else set()
    if args.format == "json":
        data = report.to_dict()
        for row in data["rows"]:
            row["sources"] = ["formula", "oracle"] if row["n"] in checked else ["formula"]
        _emit(json.dumps(data, indent=2))
    elif args.format == "csv":
        lines = ["n,f_count,i_count"]
        lines += [f"{r.n},{r.f_count},{r.i_count}" for r in report.rows]
        _emit("\n".join(lines))
    else:
        lines = [f"q={field.order}", f"{'n':>5} {'f_count':>24} {'i_count':>24}"]
        lines += [f"{r.n:>5} {r.f_count:>24} {r.i_count:>24}" for r in report.rows]
        _emit("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    report = verify_all(_field(args).order, args.max_n, _max_elements(args))
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2))
    else:
        lines = []
        for c in report.checks:
            line = f"{c.status.upper():<5} {c.name} q={c.q} n={c.n}"
            if c.detail:
                line += f"  [{c.detail}]"
            lines.append(line)
        lines.append("all checks passed" if report.passed else "verification FAILED")
        _emit("\n".join(lines))
    return 0 if report.passed else 1


def _curve_from(args, field: gf.FieldSpec) -> CurveSpec:
    alpha = _parse_element(field, args.alpha)
    beta = None
    if field.p != 2:
        if not args.beta:
            raise ValueError("odd characteristic needs --beta")
        beta = _parse_element(field, args.beta)
    elif args.beta:
        raise ValueError("--beta only applies in odd characteristic")
    return CurveSpec(field, alpha, beta)


def cmd_lpoly(args) -> int:
    field = _field(args)
    curve = _curve_from(args, field)
    lp = _engine(args, field).lpoly_of(curve.c_code)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "curve": curve.describe(),
                    "coeffs": [str(c) for c in lp.coeffs],
                },
                indent=2,
            )
        )
    else:
        _emit(" ".join(str(c) for c in lp.coeffs))
    return 0


def cmd_curve(args) -> int:
    field = _field(args)
    curve = _curve_from(args, field)
    cap = _max_elements(args)
    check_count_cap(field.order, args.m_max, cap)  # refuse before the first count
    counts = [count_points(curve, m, cap) for m in range(1, args.m_max + 1)]
    if args.format == "json":
        _emit(
            json.dumps(
                {"curve": curve.describe(), "counts": [str(c) for c in counts]},
                indent=2,
            )
        )
    else:
        _emit(
            "\n".join(f"m={m} count={c}" for m, c in enumerate(counts, start=1))
        )
    return 0


def cmd_family(args) -> int:
    if args.poly:
        f = _family_source(args.p, args.poly)
        if len(f) - 1 != args.n:
            raise ValueError(f"--poly {args.poly} has degree {len(f) - 1}, not --n {args.n}")
    else:
        members = omega_members(args.p, args.n, _max_elements(args))
        if not 0 <= args.index < len(members):
            raise ValueError(
                f"family index {args.index} out of range ({len(members)} members)"
            )
        f = members[args.index]
    fam = build_family(f, args.p)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "p": args.p,
                    "poly": list(fam.source),
                    "rows": [list(r) for r in fam.rows],
                },
                indent=2,
            )
        )
    else:
        lines = [f"p={args.p} poly={','.join(str(c) for c in fam.source)}"]
        lines += [" ".join(f"{e:+d}" for e in row) for row in fam.rows]
        _emit("\n".join(lines))
    return 0


def cmd_bound(args) -> int:
    report = distinct_family_count(args.p, args.n, _max_elements(args))
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "p": report.p,
                    "n": report.n,
                    "omega_size": report.omega_size,
                    "distinct_families": report.distinct_families,
                    "bound": str(report.bound),
                    "margin": str(report.margin),
                },
                indent=2,
            )
        )
    else:
        _emit(
            f"p={report.p} n={report.n}\n"
            f"constrained irreducibles: {report.omega_size}\n"
            f"distinct families: {report.distinct_families}\n"
            f"upper bound: {report.bound} (margin {report.margin})"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_field_args(sp, with_modulus=True):
    sp.add_argument("--p", type=int, required=True, help="field characteristic")
    sp.add_argument("--r", type=int, default=1, help="base extension degree")
    if with_modulus:
        sp.add_argument(
            "--modulus",
            help="explicit base modulus, comma-separated, constant term first",
        )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_common(sp, formats=("text", "json")):
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument(
        "--max-elements",
        type=_positive_int,
        default=None,
        help=f"enumeration cap (default {gf.DEFAULT_MAX_ELEMENTS}, env {ENV_BUDGET})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracezero",
        description=(
            "Exact counts of field elements and irreducible polynomials with "
            "vanishing trace and reciprocal trace."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="counts for a single degree")
    _add_field_args(sp)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("table", help="counts over a degree range")
    _add_field_args(sp)
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument(
        "--cross-check",
        action="store_true",
        help="re-derive in-budget rows by enumeration",
    )
    _add_common(sp, formats=("text", "json", "csv"))
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run the numeric identity suite")
    _add_field_args(sp, with_modulus=False)
    sp.add_argument("--max-n", type=_positive_int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("lpoly", help="L-polynomial of one curve")
    _add_field_args(sp)
    sp.add_argument("--alpha", required=True, help="unit of F_q (code or digits)")
    sp.add_argument("--beta", help="unit of F_q, odd characteristic only")
    _add_common(sp)
    sp.set_defaults(func=cmd_lpoly)

    sp = sub.add_parser("curve", help="point counts of one curve")
    _add_field_args(sp)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta")
    sp.add_argument("--m-max", type=_positive_int, default=3)
    _add_common(sp)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("family", help="Legendre-symbol sequence family")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--index", type=int, default=0, help="which member to build")
    sp.add_argument("--poly", help="explicit polynomial, constant term first")
    _add_common(sp)
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("bound", help="distinct families against the bound")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact counts at large n have more decimal digits than Python's default
    # int/str conversion limit (3.11+, some 3.10 patch releases) allows
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is not None:
        limit = get_limit()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except _INTERNAL_ERRORS as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if get_limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
