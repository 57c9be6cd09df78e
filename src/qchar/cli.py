"""Command-line front end.

Subcommands compute series heads and asymptotic tables, and run the
verification suites.  Output is CSV for tables, else one JSON report that
_emit heads with ``"schema": 1`` and the subcommand (``"command"``), plus
a boolean ``"ok"`` from _verdict in the verify-* and error reports; all
floating-point values are serialized as decimal strings at working
precision.  Exit codes: 0 success, 1 verification failure, 2 usage error.
argparse rejects what it cannot parse (a --z or --tau that is not a finite
complex number, say) and the values no library function checks before some
work; the library's validators reject every other value outside their
function's domain as certified.InputError, which main maps to exit 2 (a
tau off the upper half-plane, an --M or --eps that PartialThetaParams
refuses, a --z outside the admissible strip or putting a kernel pole on the
contour, say).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

import mpmath as mp

from . import asymptotics, characters, decomposition, modular_transform
from .bernoulli_euler import check_euler_bernoulli_identity, verify_S_identity
from .certified import InputError, NearPoleError
from .characters import CharacterParams
from .partial_theta import PartialThetaParams, script_FG_halving_orders

DEFAULT_SEED = 20240915


def _dps(prec: int) -> int:
    return max(int(prec * 0.3010) - 2, 8)


def _numstr(x, prec: int) -> str:
    return mp.nstr(x, _dps(prec), strip_zeros=False)


def _emit(args, **fields) -> None:
    """The report of subcommand args.command, as JSON with schema 1."""
    json.dump({"schema": 1, "command": args.command, **fields}, sys.stdout,
              indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _verdict(args, ok, **fields) -> int:
    """_emit with a boolean ``ok``; returns the exit code, 0 if ok else 1."""
    _emit(args, ok=bool(ok), **fields)
    return 0 if ok else 1


def _frac(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def cmd_series(args) -> int:
    """`coeffs` and `char`, which differ in args.build and args.exp_text."""
    series = args.build(CharacterParams(args.ell, args.s, args.trunc))
    _emit(args, ell=args.ell, s=args.s, trunc=args.trunc,
          leading_exp=_frac(Fraction(series.min_exp, series.D)),
          coeffs=[[args.exp_text(e), str(c)] for e, c in series.terms()])
    return 0


def _points(args) -> list:
    """The points of --t, rounded at the working precision."""
    with mp.workprec(args.prec):
        return [mp.mpf(x) for x in args.t]


def _emit_rows(args, columns, rows, **extra) -> int:
    """The rows as CSV under a header of ``columns``, or as JSON objects
    keyed by them next to ``extra``; numbers at working precision."""
    text = [[_numstr(x, args.prec) for x in row] for row in rows]
    if args.format == "json":
        _emit(args, ell=args.ell, s=args.s, **extra,
              rows=[dict(zip(columns, row)) for row in text])
    else:
        print(",".join(columns))
        for row in text:
            print(",".join(row))
    return 0


def cmd_asym(args) -> int:
    prec = args.prec
    if args.ell == 3:
        expn = asymptotics.sl3_bracket_expansion(args.s, args.N)
    else:
        expn = asymptotics.leading_asym_F(args.ell, args.s)
    rows = []
    for t in _points(args):
        if args.ell == 3:
            exact = asymptotics.sl3_bracket_value(args.s, t, prec)
        else:
            exact = characters.F_ls_via_H_value(args.ell, args.s, t, prec)
        model = expn.evaluate(t, prec)
        with mp.workprec(prec):  # abs_err is printed with _dps(prec) digits
            rows.append((t, exact, model, abs(exact - model)))
    return _emit_rows(args, ("t", "exact", "expansion", "abs_err"), rows,
                      N=args.N)


def cmd_qdim(args) -> int:
    prec = args.prec
    ts = _points(args)
    ratios = [asymptotics.qdim_ratio(args.ell, args.s, t, prec) for t in ts]
    slope = (asymptotics.qdim_slope_report(args.ell, args.s, prec=prec)
             if args.format == "json" else {})  # CSV prints the rows only
    with mp.workprec(prec):  # deviation is printed with _dps(prec) digits
        rows = [(t, r, abs(r - 1)) for t, r in zip(ts, ratios)]
    return _emit_rows(args, ("t", "ratio", "deviation"), rows,
                      slope={k: (_numstr(v, prec) if not isinstance(v, bool)
                                 else v) for k, v in slope.items()})


def cmd_verify_appendix(args) -> int:
    report = asymptotics.verify_appendix(args.ell_max)
    return _verdict(args, True, ell_max=report["ell_max"])


def cmd_verify_routes(args) -> int:
    failures = []
    for ell in args.ells:
        for s in args.ss:
            params = CharacterParams(ell, s, args.trunc)
            routes = {"F_ls_via_H": characters.F_ls_via_H(params),
                      "F_ls_exact": characters.F_ls_exact(params)}
            # first_difference looks below the shorter order only
            failures += [{"ell": ell, "s": s, "route": name,
                          "order": str(f.trunc_exponent())}
                         for name, f in routes.items()
                         if f.trunc_exponent() != args.trunc]
            diff = routes["F_ls_via_H"].first_difference(routes["F_ls_exact"])
            if diff is not None:
                failures.append({"ell": ell, "s": s,
                                 "first_exponent": str(diff)})
    return _verdict(args, not failures, ells=args.ells, ss=args.ss,
                    trunc=args.trunc, failures=failures)


def _int_at_least(low: int):
    """argparse type: an int >= low; anything else is a usage error (2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _comma_list(item):
    """argparse type: comma-separated values, each parsed by ``item``."""
    def parse(text: str) -> list:
        return [item(x) for x in text.split(",")]
    return parse


def _positive_decimal(text: str) -> str:
    """argparse type: a finite decimal > 0, kept as text so that it is
    rounded at the working precision and echoed as given."""
    value = mp.mpf(text)  # its ValueError is a usage error too
    if not (value > 0 and mp.isfinite(value)):
        raise argparse.ArgumentTypeError(f"need a finite value > 0: {text}")
    return text


def _rational(text: str) -> str:
    """argparse type: a rational such as 3/2 or 0.5, kept as text."""
    try:
        Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text}")
    return text


def _sl2_matrix(text: str) -> modular_transform.SL2Matrix:
    """argparse type: "a,b,c,d" with ad - bc = 1 and c > 0."""
    try:
        return modular_transform.SL2Matrix(*(int(x) for x in text.split(",")))
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"need four integers a,b,c,d with ad - bc = 1: {exc}")


def _parse_mpc(text: str):
    """argparse type: a finite complex number such as 0.1+0.2j."""
    try:
        value = mp.mpc(complex(text.replace(" ", "")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")
    if not mp.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite value: {text!r}")
    return value


def _complex(z, prec: int) -> list:
    """The complex z as [re, im], each at working precision."""
    return [_numstr(mp.re(z), prec), _numstr(mp.im(z), prec)]


def cmd_verify_decomposition(args) -> int:
    prec = args.prec
    tol = mp.mpf(args.tol)
    rng = random.Random(args.seed)
    if args.z is not None:
        if len(args.z) != args.ell - 1:
            raise InputError(f"--z needs ell - 1 = {args.ell - 1} values")
        points = [decomposition.MultivarPoint(tuple(args.z), args.tau, prec)]
    else:
        points = [decomposition.random_admissible_point(args.ell, args.tau,
                                                        rng, prec)
                  for _ in range(args.points)]
    results = []
    ok = True
    for i, pt in enumerate(points):
        quad, cert = decomposition.multivar_quadrature(args.ell, args.s, pt,
                                                       prec=prec)
        dec = decomposition.F_ls_decomposed(args.ell, args.s, pt, prec)
        rel = abs(quad - dec) / max(abs(quad), mp.mpf("1e-300"))
        ok = ok and rel <= tol
        results.append({
            "point": [_complex(z, prec) for z in pt.zs],
            "quadrature": _complex(quad, prec),
            "decomposed": _complex(dec, prec),
            "rel_err": _numstr(rel, prec),
            "diagnostics": {"nodes": cert.nodes,
                            "bound": _numstr(cert.bound, prec)}})
    return _verdict(args, ok, ell=args.ell, s=args.s, tol=args.tol,
                    seed=args.seed, results=results)


def cmd_verify_modular(args) -> int:
    prec = args.prec
    tol = mp.mpf(args.tol)
    gamma = args.matrix
    params = PartialThetaParams(Fraction(args.r), args.eps, Fraction(args.M))
    report = modular_transform.verify_general_transform(
        params, args.z, args.tau, gamma, prec)
    return _verdict(args, report["abs_err"] <= tol,
                    matrix=[gamma.a, gamma.b, gamma.c, gamma.d], r=args.r,
                    eps=args.eps, M=args.M,
                    abs_err=_numstr(report["abs_err"], prec),
                    diagnostics={"nodes": report["nodes"],
                                 "bound": _numstr(report["bound"], prec)})


def cmd_verify_em(args) -> int:
    prec = args.prec
    ok = True
    rows = []
    for n in range(1, 21):
        for m in (2, 4):
            ok = ok and check_euler_bernoulli_identity(n, m, Fraction(1, 3))
    ok = ok and verify_S_identity(31)
    for row in script_FG_halving_orders(prec):
        want = row["expected"]
        good = abs(row["order"] - want) <= mp.mpf(args.tol_order)
        ok = ok and good
        rows.append({"family": row["family"], "j": row["j"], "N": row["N"],
                     "order": _numstr(row["order"], 64),
                     "expected": _numstr(want, 64), "ok": bool(good)})
    return _verdict(args, ok, rows=rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchar",
        description="Exact q-series characters, partial theta functions, "
                    "and their asymptotic/modular verification suites.")
    parser.add_argument("--prec", type=_int_at_least(53), default=256,
                        help="working precision in bits (default 256)")
    sub = parser.add_subparsers(dest="command", required=True)
    decimals = _comma_list(_positive_decimal)

    for name, help_text, build, exp_text in (
            ("coeffs", "exact F series head", characters.F_ls_exact, str),
            ("char", "character series head", characters.character_ch,
             _frac)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--trunc", type=int, default=20)
        p.set_defaults(func=cmd_series, build=build, exp_text=exp_text)

    p = sub.add_parser("asym", help="asymptotic comparison table")
    p.add_argument("--ell", type=_int_at_least(3), default=3)
    p.add_argument("--s", type=_int_at_least(0), default=0)
    p.add_argument("--t", type=decimals, default="0.1,0.05",
                   help="points t > 0, evaluated at q = e^{-t}")
    p.add_argument("--N", type=_int_at_least(0), default=3,
                   help="expansion order, used for ell = 3 only")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("qdim", help="quantum-dimension ratio table")
    p.add_argument("--ell", type=_int_at_least(2), default=3)
    p.add_argument("--s", type=_int_at_least(0), default=1)
    p.add_argument("--t", type=decimals, default="0.2,0.1,0.05",
                   help="points t > 0, evaluated at tau = it, that is "
                        "q = e^{-2 pi t}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("verify-appendix", help="exact constant identities")
    p.add_argument("--ell-max", type=_int_at_least(1), default=20)
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("verify-routes", help="exact route equivalence")
    p.add_argument("--ells", type=_comma_list(_int_at_least(2)),
                   default="3,4,5,6")
    p.add_argument("--ss", type=_comma_list(_int_at_least(0)),
                   default="0,1,2,3")
    p.add_argument("--trunc", type=int, default=40)
    p.set_defaults(func=cmd_verify_routes)

    p = sub.add_parser("verify-decomposition",
                       help="quadrature vs residue-sum decomposition")
    p.add_argument("--ell", type=_int_at_least(2), required=True)
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--tau", type=_parse_mpc, default="1j")
    p.add_argument("--z", type=_parse_mpc, nargs="*", default=None,
                   help="explicit z_1..z_{ell-1} (else seeded random points)")
    p.add_argument("--points", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=_positive_decimal, default="1e-10")
    p.set_defaults(func=cmd_verify_decomposition)

    p = sub.add_parser("verify-modular",
                       help="partial-theta modular transformation law")
    p.add_argument("--matrix", type=_sl2_matrix, default="0,-1,1,0",
                   help="a,b,c,d with ad - bc = 1 and c > 0")
    p.add_argument("--M", type=_rational, default="3/2")
    p.add_argument("--r", type=_rational, default="3/2")
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("--z", type=_parse_mpc, default="0.12+0.18j")
    p.add_argument("--tau", type=_parse_mpc, default="1j")
    p.add_argument("--tol", type=_positive_decimal, default="1e-12")
    p.set_defaults(func=cmd_verify_modular)

    p = sub.add_parser("verify-em",
                       help="Bernoulli/Euler identities and expansion orders")
    p.add_argument("--tol-order", type=_positive_decimal, default="0.3")
    p.set_defaults(func=cmd_verify_em)
    return parser


def _error_text(args, exc) -> str:
    """The error text of a failed run.  That of an OverflowError or a
    NearPoleError names every complex option given, since any of them,
    large or close to a boundary, may be the one whose evaluation
    overflowed the doubles or mpmath's integers, or whose integrand's strip
    of analyticity is too thin to plan a quadrature on."""
    if not isinstance(exc, (OverflowError, NearPoleError)):
        return str(exc)
    given = []
    for name, value in vars(args).items():
        zs = [v for v in (value if isinstance(value, list) else [value])
              if isinstance(v, mp.mpc)]
        if zs:
            given.append(f"--{name.replace('_', '-')} "
                         + " ".join(mp.nstr(z, 6) for z in zs))
    text = (f"an input is out of range ({exc})"
            if isinstance(exc, OverflowError) else str(exc))
    return f"{text}; complex inputs: {', '.join(given)}" if given else text


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        parser.error(str(exc))
    except (ValueError, ArithmeticError, RuntimeError, AssertionError) as exc:
        return _verdict(args, False, error=_error_text(args, exc))


if __name__ == "__main__":
    sys.exit(main())
