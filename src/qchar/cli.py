"""Command-line front end.

Subcommands compute series heads and asymptotic tables, and run the
verification suites.  Output is machine-readable (JSON with ``"schema": 1``,
or CSV for tables); all floating-point values are serialized as decimal
strings at working precision.  Exit codes: 0 success, 1 verification
failure, 2 usage error (also for a --z that is not a complex number, lies
outside the admissible strip or puts a kernel pole on the contour).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

import mpmath as mp

from . import asymptotics, characters, decomposition, modular_transform
from .bernoulli_euler import check_euler_bernoulli_identity, verify_S_identity
from .characters import CharacterParams
from .partial_theta import PartialThetaParams, script_FG_halving_orders

DEFAULT_SEED = 20240915


def _dps(prec: int) -> int:
    return max(int(prec * 0.3010) - 2, 8)


def _numstr(x, prec: int) -> str:
    return mp.nstr(x, _dps(prec), strip_zeros=False)


class UsageError(Exception):
    """Bad input that only a subcommand can detect; exits 2 like argparse's
    own errors."""


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _frac(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def cmd_coeffs(args) -> int:
    series = characters.F_ls_exact(
        CharacterParams(args.ell, args.s, args.trunc))
    _emit({"schema": 1, "command": "coeffs", "ell": args.ell, "s": args.s,
           "trunc": args.trunc,
           "leading_exp": _frac(Fraction(series.min_exp, series.D)),
           "coeffs": [[str(e), str(c)] for e, c in series.terms()]})
    return 0


def cmd_char(args) -> int:
    series = characters.character_ch(
        CharacterParams(args.ell, args.s, args.trunc))
    _emit({"schema": 1, "command": "char", "ell": args.ell, "s": args.s,
           "trunc": args.trunc,
           "leading_exp": _frac(Fraction(series.min_exp, series.D)),
           "coeffs": [[_frac(e), str(c)] for e, c in series.terms()]})
    return 0


def cmd_asym(args) -> int:
    prec = args.prec
    with mp.workprec(prec):
        ts = [mp.mpf(x) for x in args.t.split(",")]
    if args.ell == 3:
        expn = asymptotics.sl3_bracket_expansion(args.s, args.N)
    else:
        expn = asymptotics.leading_asym_F(args.ell, args.s)
    rows = []
    for t in ts:
        if args.ell == 3:
            exact = asymptotics.sl3_bracket_value(args.s, t, prec)
        else:
            exact, _ = characters.F_ls_numeric(args.ell, args.s, t, prec)
        model = expn.evaluate(t, prec)
        with mp.workprec(prec):  # abs_err is printed with _dps(prec) digits
            rows.append((t, exact, model, abs(exact - model)))
    if args.format == "json":
        _emit({"schema": 1, "command": "asym", "ell": args.ell, "s": args.s,
               "N": args.N,
               "rows": [{"t": _numstr(r[0], prec),
                         "exact": _numstr(r[1], prec),
                         "expansion": _numstr(r[2], prec),
                         "abs_err": _numstr(r[3], prec)} for r in rows]})
    else:
        print("t,exact,expansion,abs_err")
        for r in rows:
            print(",".join(_numstr(x, prec) for x in r))
    return 0


def cmd_qdim(args) -> int:
    prec = args.prec
    with mp.workprec(prec):
        ts = [mp.mpf(x) for x in args.t.split(",")]
    rows = [(t, asymptotics.qdim_ratio(args.ell, args.s, t, prec))
            for t in ts]
    slope = asymptotics.qdim_slope_report(args.ell, args.s, prec=prec)
    if args.format == "json":
        _emit({"schema": 1, "command": "qdim", "ell": args.ell, "s": args.s,
               "rows": [{"t": _numstr(t, prec), "ratio": _numstr(r, prec),
                         "deviation": _numstr(abs(r - 1), prec)}
                        for t, r in rows],
               "slope": {k: (_numstr(v, prec) if not isinstance(v, bool)
                             else v) for k, v in slope.items()}})
    else:
        print("t,ratio,deviation")
        for t, r in rows:
            print(",".join(_numstr(x, prec) for x in (t, r, abs(r - 1))))
    return 0


def cmd_verify_appendix(args) -> int:
    try:
        report = asymptotics.verify_appendix(args.ell_max)
    except AssertionError as exc:
        _emit({"schema": 1, "command": "verify-appendix", "ok": False,
               "error": str(exc)})
        return 1
    _emit({"schema": 1, "command": "verify-appendix", "ok": True,
           "ell_max": report["ell_max"]})
    return 0


def cmd_verify_routes(args) -> int:
    ells = [int(x) for x in args.ells.split(",")]
    ss = [int(x) for x in args.ss.split(",")]
    failures = []
    for ell in ells:
        for s in ss:
            params = CharacterParams(ell, s, args.trunc)
            diff = characters.F_ls_via_H(params).first_difference(
                characters.F_ls_exact(params))
            if diff is not None:
                failures.append({"ell": ell, "s": s,
                                 "first_exponent": str(diff)})
    _emit({"schema": 1, "command": "verify-routes", "ok": not failures,
           "ells": ells, "ss": ss, "trunc": args.trunc,
           "failures": failures})
    return 1 if failures else 0


def _int_at_least(low: int):
    """argparse type: an int >= low; anything else is a usage error (2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _sl2_matrix(text: str) -> modular_transform.SL2Matrix:
    """argparse type: "a,b,c,d" with ad - bc = 1 and c > 0."""
    try:
        gamma = modular_transform.SL2Matrix(*(int(x) for x in text.split(",")))
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"need four integers a,b,c,d with ad - bc = 1: {exc}")
    if gamma.c <= 0:
        raise argparse.ArgumentTypeError("need c > 0")
    return gamma


def _parse_mpc(text: str):
    """argparse type: a complex number such as 0.1+0.2j."""
    try:
        return mp.mpc(complex(text.replace(" ", "")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _upper_half(text: str):
    """argparse type: a complex tau with Im tau > 0."""
    tau = _parse_mpc(text)
    if not mp.im(tau) > 0:
        raise argparse.ArgumentTypeError("need Im tau > 0")
    return tau


def cmd_verify_decomposition(args) -> int:
    prec = args.prec
    tol = mp.mpf(args.tol)
    rng = random.Random(args.seed)
    if args.z:
        if len(args.z) != args.ell - 1:
            raise UsageError(f"--z needs ell - 1 = {args.ell - 1} values")
        v = mp.im(args.tau)
        if not all(0 < mp.im(z) < v / args.ell for z in args.z):
            raise UsageError("--z needs 0 < Im z < Im(tau)/ell")
        points = [decomposition.MultivarPoint(tuple(args.z), args.tau, prec)]
    else:
        points = [decomposition.random_admissible_point(args.ell, args.tau,
                                                        rng, prec)
                  for _ in range(args.points)]
    results = []
    ok = True
    for i, pt in enumerate(points):
        cert = decomposition.multivar_quadrature_plan(args.ell, args.s, pt,
                                                      prec=prec)
        quad = decomposition.F_ls_multivar_quadrature(args.ell, args.s, pt,
                                                      prec=prec)
        dec = decomposition.F_ls_decomposed(args.ell, args.s, pt, prec)
        rel = abs(quad - dec) / max(abs(quad), mp.mpf("1e-300"))
        ok = ok and rel <= tol
        results.append({
            "point": [[_numstr(mp.re(z), prec), _numstr(mp.im(z), prec)]
                      for z in pt.zs],
            "quadrature": [_numstr(mp.re(quad), prec),
                           _numstr(mp.im(quad), prec)],
            "decomposed": [_numstr(mp.re(dec), prec),
                           _numstr(mp.im(dec), prec)],
            "rel_err": _numstr(rel, prec),
            "diagnostics": {"nodes": cert.nodes,
                            "bound": _numstr(cert.bound, prec)}})
    _emit({"schema": 1, "command": "verify-decomposition", "ok": ok,
           "ell": args.ell, "s": args.s, "tol": args.tol, "seed": args.seed,
           "results": results})
    return 0 if ok else 1


def cmd_verify_modular(args) -> int:
    prec = args.prec
    tol = mp.mpf(args.tol)
    gamma = args.matrix
    params = PartialThetaParams(Fraction(args.r), args.eps, Fraction(args.M))
    try:
        report = modular_transform.verify_general_transform(
            params, args.z, args.tau, gamma, prec)
    except modular_transform.PoleNearContourError as exc:
        raise UsageError(f"--z: {exc}") from exc
    ok = report["abs_err"] <= tol
    _emit({"schema": 1, "command": "verify-modular", "ok": bool(ok),
           "matrix": [gamma.a, gamma.b, gamma.c, gamma.d], "r": args.r,
           "eps": args.eps, "M": args.M,
           "abs_err": _numstr(report["abs_err"], prec),
           "diagnostics": {"nodes": report["nodes"],
                           "bound": _numstr(report["bound"], prec)}})
    return 0 if ok else 1


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
    _emit({"schema": 1, "command": "verify-em", "ok": bool(ok), "rows": rows})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchar",
        description="Exact q-series characters, partial theta functions, "
                    "and their asymptotic/modular verification suites.")
    parser.add_argument("--prec", type=int,
                        default=int(os.environ.get("QCHAR_PREC", "256")),
                        help="working precision in bits (default 256, "
                             "env QCHAR_PREC)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact F series head")
    p.add_argument("--ell", type=_int_at_least(2), required=True)
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--trunc", type=_int_at_least(1), default=20)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("char", help="character series head")
    p.add_argument("--ell", type=_int_at_least(2), required=True)
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--trunc", type=_int_at_least(1), default=20)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("asym", help="asymptotic comparison table")
    p.add_argument("--ell", type=_int_at_least(3), default=3)
    p.add_argument("--s", type=_int_at_least(0), default=0)
    p.add_argument("--t", type=str, default="0.1,0.05")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("qdim", help="quantum-dimension ratio table")
    p.add_argument("--ell", type=_int_at_least(2), default=3)
    p.add_argument("--s", type=_int_at_least(0), default=1)
    p.add_argument("--t", type=str, default="0.2,0.1,0.05")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("verify-appendix", help="exact constant identities")
    p.add_argument("--ell-max", type=int, default=20)
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("verify-routes", help="exact route equivalence")
    p.add_argument("--ells", type=str, default="3,4,5,6")
    p.add_argument("--ss", type=str, default="0,1,2,3")
    p.add_argument("--trunc", type=int, default=40)
    p.set_defaults(func=cmd_verify_routes)

    p = sub.add_parser("verify-decomposition",
                       help="quadrature vs residue-sum decomposition")
    p.add_argument("--ell", type=_int_at_least(2), required=True)
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--tau", type=_upper_half, default="1j")
    p.add_argument("--z", type=_parse_mpc, nargs="*", default=None,
                   help="explicit z_1..z_{ell-1} (else seeded random points)")
    p.add_argument("--points", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=str, default="1e-10")
    p.set_defaults(func=cmd_verify_decomposition)

    p = sub.add_parser("verify-modular",
                       help="partial-theta modular transformation law")
    p.add_argument("--matrix", type=_sl2_matrix, default="0,-1,1,0",
                   help="a,b,c,d with ad - bc = 1 and c > 0")
    p.add_argument("--M", type=str, default="3/2")
    p.add_argument("--r", type=str, default="3/2")
    p.add_argument("--eps", type=int, choices=(0, 1), default=1)
    p.add_argument("--z", type=_parse_mpc, default="0.12+0.18j")
    p.add_argument("--tau", type=_upper_half, default="1j")
    p.add_argument("--tol", type=str, default="1e-12")
    p.set_defaults(func=cmd_verify_modular)

    p = sub.add_parser("verify-em",
                       help="Bernoulli/Euler identities and expansion orders")
    p.add_argument("--tol-order", type=str, default="0.3")
    p.set_defaults(func=cmd_verify_em)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, RuntimeError, AssertionError) as exc:
        _emit({"schema": 1, "command": args.command, "ok": False,
               "error": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
