"""Seeded job lists for the benchmark workloads and their correctness checks.

A job is the list of calls into public qchar functions (or into
``qchar.cli.main``) that produce one answer.  Every pass runs its jobs in
order, one at a time, and checks all outputs after the last job.  The
checks here are the benchmark's own: exact series are compared term by term
with the independent partial-theta route and with pinned digests, numeric
values with an independent route at a pinned tolerance.

Inputs depend only on the seed; the parameters that set the cost
(truncation orders, the ``t`` strata of ``F_ls_numeric``, the number of
quadrature points, the transform points) are fixed per slot, so that the
work, and with it the time, barely moves between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable

import mpmath as mp

from qchar import (asymptotics, characters, cli, decomposition,
                   modular_objects, modular_transform)
from qchar.characters import CharacterParams
from qchar.partial_theta import PartialThetaParams

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned_digests.json")

# exact: one point per truncation order; F_ls_exact costs about T^3
EXACT_TRUNCS = (20, 30, 40, 50, 60)
CLI_TRUNC = 30
# asymptotic: t strata inside [0.4, 0.9] in which F_ls_numeric (prec 128)
# stops at T = 160 after three rounds
NUMERIC_T_STRATA = {3: (0.64, 0.90), 4: (0.70, 0.90), 5: (0.74, 0.90),
                    6: (0.78, 0.90)}
NUMERIC_PREC = 128
# checks parse 36-digit CLI values and compare down to 1e-30
CHECK_PREC = 256

# `qchar verify-em` at its defaults exits 1: the G-family expected order in
# cmd_verify_em works out to N+j, while criterion 10 and the measured orders
# (1.52, 2.53, ...) say N+j+1/2.  The job stays in the list and counts as
# failed until the CLI is fixed.
VERIFY_EM_KNOWN_FAILURE = (
    "known defect: verify-em expects G-family order N+j, criterion 10 and "
    "the measured orders give N+j+1/2")


class CheckError(Exception):
    """An output missed the benchmark's correctness check."""


@dataclass
class Job:
    name: str
    params: dict
    call: Callable[[], Any]
    # check(output, ctx) -> row fields (work counters, margin_digits);
    # raises CheckError.  ctx is shared by the checks of one pass, in order.
    check: Callable[[Any, dict], dict]
    known_failure: str | None = None


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _margin(err, tol, prec):
    """log10(tol / err), with err floored at the working precision."""
    err = max(abs(err), mp.mpf(2) ** -prec)
    return float(mp.log10(mp.mpf(tol) / err))


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_json(out):
    rc, text = out
    try:
        return rc, json.loads(text)
    except ValueError as exc:
        raise CheckError(f"CLI output is not JSON: {exc}") from None


def _terms_digest(terms, trunc) -> str:
    """sha256 of ``exponent:coefficient`` strings and the truncation."""
    text = ";".join(f"{e}:{c}" for e, c in terms) + f"|O({trunc})"
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def series_digest(series) -> str:
    return _terms_digest(series.terms(), series.trunc_exponent())


def _load_pinned():
    with open(PINNED_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------------------- exact


def _exact_point(ell, s, T, pinned):
    params = CharacterParams(ell, s, T)

    def call():
        return (characters.F_ls_exact(params),
                characters.character_ch(params),
                characters._F_ls_via_H_series(ell, s, T))

    def check(out, ctx):
        f, ch, g = out
        _require(f.D == g.D == 1 and f.trunc == g.trunc == T,
                 "series lattice or truncation differs between routes")
        if f.coeffs != g.coeffs:
            raise CheckError(f"routes differ from q^{f.first_difference(g)}")
        _require(f.coeffs.get(0) == comb(s + ell - 1, ell - 1),
                 "constant term is not binomial(s+l-1, l-1)")
        for e, c in ch.terms():
            _require(c.denominator == 1 and c >= 0,
                     f"character coefficient at q^{e} is {c}")
        digests = {"F": series_digest(f), "ch": series_digest(ch)}
        want = pinned[f"{ell},{s},{T}"]
        _require(digests == want, f"digest mismatch {digests} != {want}")
        ctx[("ch", ell, s, T)] = ch
        bits = max(abs(c.numerator).bit_length()
                   for x in (f, ch, g) for c in x.coeffs.values())
        return {"T": T, "coeffs": len(f.coeffs) + len(ch.coeffs),
                "coeff_bits": bits}

    return Job("exact.point", {"ell": ell, "s": s, "T": T}, call, check)


def _exact_cli_coeffs(ell, s, T, pinned):
    """`qchar coeffs` on a key no earlier job computed (cold cache)."""
    argv = ["coeffs", "--ell", str(ell), "--s", str(s), "--trunc", str(T)]

    def check(out, ctx):
        rc, obj = _cli_json(out)
        _require(rc == 0, f"exit {rc}")
        terms = [(Fraction(e), Fraction(c)) for e, c in obj["coeffs"]]
        _require(all(c.denominator == 1 for _, c in terms),
                 "non-integer coefficient")
        _require(terms and terms[0] == (0, comb(s + ell - 1, ell - 1)),
                 "constant term is not binomial(s+l-1, l-1)")
        _require(_terms_digest(terms, T) == pinned[f"{ell},{s},{T}"]["F"],
                 "digest mismatch")
        return {"T": T, "coeffs": len(terms), "output_bytes": len(out[1])}

    return Job("exact.cli.coeffs", {"argv": argv}, lambda: _cli(argv), check)


def _exact_cli_char(ell, s, T):
    """`qchar char` on a key an earlier point computed (cache hit)."""
    argv = ["char", "--ell", str(ell), "--s", str(s), "--trunc", str(T)]

    def check(out, ctx):
        rc, obj = _cli_json(out)
        _require(rc == 0, f"exit {rc}")
        got = [(Fraction(e), Fraction(c)) for e, c in obj["coeffs"]]
        _require(got == ctx[("ch", ell, s, T)].terms(),
                 "CLI coefficients differ from the API result")
        return {"T": T, "coeffs": len(got), "output_bytes": len(out[1])}

    return Job("exact.cli.char", {"argv": argv}, lambda: _cli(argv), check)


def _exact_cli_routes(ell, s, T):
    argv = ["verify-routes", "--ells", str(ell), "--ss", str(s),
            "--trunc", str(T)]

    def check(out, ctx):
        rc, obj = _cli_json(out)
        _require(rc == 0 and obj["ok"] and obj["failures"] == [],
                 f"exit {rc}: {obj.get('failures')}")
        return {"T": T, "output_bytes": len(out[1])}

    return Job("exact.cli.verify-routes", {"argv": argv}, lambda: _cli(argv),
               check)


def exact_jobs(seed):
    """Eleven jobs, so that the one in the middle by cost is a T=30 build:

    * five points, one per T in EXACT_TRUNCS, with seeded (ell, s);
    * three repeats of the T <= 40 keys (bivariate cache hits) and
      `qchar char` on the T=40 key: cheaper than any build;
    * `qchar coeffs` and `qchar verify-routes` on two new T=30 keys, which
      build their own extraction as the T=30 point does.
    """
    rng = random.Random(seed)
    pinned = _load_pinned()
    grid = [(ell, s) for ell in range(3, 7) for s in range(4)]
    picks = rng.sample(grid, len(EXACT_TRUNCS) + 2)
    keys = [(*k, T) for k, T in zip(picks, EXACT_TRUNCS)]
    points = keys + keys[:3]
    rng.shuffle(points)
    jobs = [_exact_point(*k, pinned) for k in points]
    jobs.append(_exact_cli_char(*keys[2]))
    jobs.append(_exact_cli_coeffs(*picks[-2], CLI_TRUNC, pinned))
    jobs.append(_exact_cli_routes(*picks[-1], CLI_TRUNC))
    return jobs


# -------------------------------------------------------------- asymptotic


def _h_route_F(ell, s, t, prec):
    """(-i)^l q^{-h_s-l/8} (q)_inf^{l^2-2l} H_{s+l/2}(i t/2 pi), q = e^{-t}."""
    with mp.workprec(prec + 24):
        h = characters.h_s(ell, s)
        q = mp.exp(-t)
        phi = modular_objects.euler_phi_numeric(q, mp.mpf(2) ** -(prec + 8))
        H = characters.H_value(ell, s, 1j * t / (2 * mp.pi), prec)
        return ((-1j) ** ell * mp.exp(t * (mp.mpf(h.numerator) / h.denominator
                                           + mp.mpf(ell) / 8))
                * phi ** (ell * ell - 2 * ell) * H)


def _numeric_point(ell, s, t_text):
    def call():
        with mp.workprec(NUMERIC_PREC):  # parsed as `qchar asym` parses t
            t = mp.mpf(t_text)
        value, bound = characters.F_ls_numeric(ell, s, t, NUMERIC_PREC)
        return value, bound, _h_route_F(ell, s, t, NUMERIC_PREC)

    def check(out, ctx):
        value, bound, ref = out
        err = abs(value - ref)
        _require(value > 0 and err <= bound,
                 f"|F - H route| = {mp.nstr(err, 3)} exceeds the certified "
                 f"bound {mp.nstr(bound, 3)}")
        margin = _margin(err, bound, NUMERIC_PREC)
        return {"t": t_text, "margin_digits": margin,
                "bound_slack_digits": margin}

    return Job("asymptotic.F_numeric", {"ell": ell, "s": s, "t": t_text},
               call, check)


def _sl3_orders(s):
    """Criterion-5 grid for one s: halving orders of the bracket expansion."""
    prec = 160

    def call():
        with mp.workprec(prec + 16):
            t1, t2 = mp.mpf("0.1"), mp.mpf("0.05")
            v1 = asymptotics.sl3_bracket_value(s, t1, prec)
            v2 = asymptotics.sl3_bracket_value(s, t2, prec)
            orders = []
            for N in range(5):
                e = asymptotics.sl3_bracket_expansion(s, N)
                d1 = abs(v1 - e.evaluate(t1, prec))
                d2 = abs(v2 - e.evaluate(t2, prec))
                orders.append(mp.log(d1 / d2) / mp.log(2))
            return orders

    def check(orders, ctx):
        for N, order in enumerate(orders):
            _require(N + 0.7 <= order <= N + 1.3,
                     f"s={s} N={N}: halving order {mp.nstr(order, 5)}")
        return {"orders": len(orders)}

    return Job("asymptotic.sl3_orders", {"s": s}, call, check)


def _qdim_job():
    """Criterion-6 ratios, and the Richardson slope against the exact
    small-t slope -pi s^2/3 of the bracket (s = 1)."""
    prec = 160

    def call():
        with mp.workprec(prec + 16):
            ratios = [asymptotics.qdim_ratio(3, 1, mp.mpf(t), prec)
                      for t in ("0.2", "0.1", "0.05")]
            return ratios, asymptotics.qdim_slope_report(3, 1, prec=prec)

    def check(out, ctx):
        ratios, slope = out
        devs = [abs(r - 1) for r in ratios]
        _require(devs[0] > devs[1] > devs[2], "ratios not monotone to 1")
        for t, d in zip((0.2, 0.1, 0.05), devs):
            _require(d <= 1.5 * t, f"|ratio - 1| = {mp.nstr(d, 3)} at t={t}")
        err = abs(slope["measured_slope"] + mp.pi / 3)
        _require(err <= mp.mpf("1e-3"), f"slope off by {mp.nstr(err, 3)}")
        return {"margin_digits": _margin(err, mp.mpf("1e-3"), prec)}

    return Job("asymptotic.qdim", {"ell": 3, "s": 1}, call, check)


def _appendix_job():
    def check(report, ctx):
        _require(report["equal"] == list(range(1, 21))
                 and report["residues"] == list(range(2, 21)),
                 "appendix identities incomplete")
        return {}

    return Job("asymptotic.verify_appendix", {"ell_max": 20},
               lambda: asymptotics.verify_appendix(20), check)


def _asym_cli(s, t_text):
    """`qchar asym --ell 4` (F_ls_numeric inside), with the H route as the
    reference; F_ls_numeric certifies a relative error of 1e-12."""
    argv = ["--prec", str(NUMERIC_PREC), "asym", "--ell", "4", "--s", str(s),
            "--t", t_text, "--format", "json"]

    def call():
        with mp.workprec(NUMERIC_PREC):
            t = mp.mpf(t_text)
        return _cli(argv), _h_route_F(4, s, t, NUMERIC_PREC)

    def check(out, ctx):
        rc, obj = _cli_json(out[0])
        _require(rc == 0, f"exit {rc}")
        (row,) = obj["rows"]
        exact, model = mp.mpf(row["exact"]), mp.mpf(row["expansion"])
        tol = mp.mpf("1e-12") * exact
        err = abs(exact - out[1])
        _require(err <= tol, f"|F - H route| = {mp.nstr(err, 3)}")
        # cmd_asym subtracts at mpmath's default 53 bits, so abs_err is
        # printed with 36 digits of which about 16 are right
        _require(abs(abs(exact - model) - mp.mpf(row["abs_err"]))
                 <= mp.mpf("1e-15") * exact, "abs_err column inconsistent")
        return {"t": t_text, "output_bytes": len(out[0][1]),
                "margin_digits": _margin(err, tol, NUMERIC_PREC)}

    return Job("asymptotic.cli.asym", {"argv": argv}, call, check)


def _qdim_cli():
    argv = ["qdim", "--format", "json"]

    def check(out, ctx):
        rc, obj = _cli_json(out)
        _require(rc == 0, f"exit {rc}")
        for row in obj["rows"]:
            _require(mp.mpf(row["deviation"]) <= 1.5 * mp.mpf(row["t"]),
                     f"deviation too large at t={row['t']}")
        err = abs(mp.mpf(obj["slope"]["measured_slope"]) + mp.pi / 3)
        _require(err <= mp.mpf("1e-3"), f"slope off by {mp.nstr(err, 3)}")
        return {"output_bytes": len(out[1]),
                "margin_digits": _margin(err, mp.mpf("1e-3"), 256)}

    return Job("asymptotic.cli.qdim", {"argv": argv}, lambda: _cli(argv),
               check)


def _verify_em_cli():
    argv = ["verify-em"]

    def check(out, ctx):
        rc, obj = _cli_json(out)
        # the measured orders must match criterion 10 whatever the CLI says
        for row in obj["rows"]:
            want = row["N"] + row["j"] + (1 if row["family"] == "F" else 0.5)
            _require(abs(float(row["order"]) - want) <= 0.3,
                     f"{row['family']} j={row['j']} N={row['N']}: order "
                     f"{row['order']}, want {want}")
        _require(rc == 0, f"exit {rc}: {VERIFY_EM_KNOWN_FAILURE}")
        return {"output_bytes": len(out[1])}

    return Job("asymptotic.cli.verify-em", {"argv": argv}, lambda: _cli(argv),
               check, known_failure=VERIFY_EM_KNOWN_FAILURE)


def asymptotic_jobs(seed):
    rng = random.Random(seed)

    def t_in(ell):
        lo, hi = NUMERIC_T_STRATA[ell]
        return f"{rng.uniform(lo, hi):.4f}"

    jobs = [_numeric_point(ell, rng.randint(0, 1), t_in(ell))
            for ell in (3, 5, 6)]
    jobs += [_sl3_orders(s) for s in (0, 1, 2)]
    jobs += [_qdim_job(), _appendix_job()]
    rng.shuffle(jobs)
    jobs += [_asym_cli(rng.randint(0, 1), t_in(4)), _qdim_cli(),
             _verify_em_cli()]
    return jobs


# -------------------------------------------------------------- quadrature

QUAD_TAU = mp.mpc(0, 1)


def _decomposition_point(ell, s, point_seed):
    prec = 256

    def call():
        pt = decomposition.random_admissible_point(
            ell, QUAD_TAU, random.Random(point_seed), prec)
        quad = decomposition.F_ls_multivar_quadrature(ell, s, pt, prec=prec)
        return quad, decomposition.F_ls_decomposed(ell, s, pt, prec)

    def check(out, ctx):
        quad, dec = out
        rel = abs(quad - dec) / abs(quad)
        _require(rel <= mp.mpf("1e-10"), f"rel err {mp.nstr(rel, 3)}")
        return {"margin_digits": _margin(rel, mp.mpf("1e-10"), prec)}

    return Job("quadrature.decomposition",
               {"ell": ell, "s": s, "point_seed": point_seed}, call, check)


def _fourier_job(s):
    prec = 160

    def call():
        return (characters.H_value(3, s, QUAD_TAU, prec),
                characters.fourier_coeff_by_quadrature(3, s, QUAD_TAU,
                                                       prec=prec))

    def check(out, ctx):
        err = abs(out[0] - out[1])
        _require(err <= mp.mpf("1e-20"), f"abs err {mp.nstr(err, 3)}")
        return {"margin_digits": _margin(err, mp.mpf("1e-20"), prec)}

    return Job("quadrature.fourier", {"ell": 3, "s": s}, call, check)


def _abs_err_check(tol, prec):
    def check(report, ctx):
        err = report["abs_err"] if isinstance(report, dict) else report
        _require(err <= mp.mpf(tol), f"abs err {mp.nstr(err, 3)} > {tol}")
        return {"margin_digits": _margin(err, mp.mpf(tol), prec)}
    return check


def _s_transform_job(ell, s, z):
    return Job("quadrature.S_transform",
               {"ell": ell, "s": s, "z": str(z)},
               lambda: modular_transform.verify_S_transform(
                   ell, s, mp.mpc(*z), QUAD_TAU, 160),
               _abs_err_check("1e-15", 160))


def _general_transform_job(z):
    params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
    return Job("quadrature.general_transform",
               {"matrix": "0,-1,1,0", "z": str(z)},
               lambda: modular_transform.verify_general_transform(
                   params, mp.mpc(*z), QUAD_TAU, modular_transform.S_MATRIX,
                   160),
               _abs_err_check("1e-12", 160))


def _half_index_job(points):
    """One job for several (z, tau) points: each check takes about 10 ms."""
    check_one = _abs_err_check("1e-25", 160)

    def call():
        return [modular_transform.half_index_identity_check(
            mp.mpc(*z), mp.mpc(*tau), 160) for z, tau in points]

    def check(reports, ctx):
        return {"margin_digits": min(check_one(r, ctx)["margin_digits"]
                                     for r in reports)}

    return Job("quadrature.half_index",
               {"points": [[str(z), str(tau)] for z, tau in points]},
               call, check)


def _decomposition_cli(ell, s, point_seed):
    argv = ["verify-decomposition", "--ell", str(ell), "--s", str(s),
            "--points", "1", "--seed", str(point_seed)]

    def check(out, ctx):
        rc, obj = _cli_json(out)
        _require(rc == 0 and obj["ok"], f"exit {rc}")
        rel = mp.mpf(obj["results"][0]["rel_err"])
        _require(rel <= mp.mpf("1e-10"), f"rel err {mp.nstr(rel, 3)}")
        return {"output_bytes": len(out[1]),
                "margin_digits": _margin(rel, mp.mpf("1e-10"), 256)}

    return Job("quadrature.cli.verify-decomposition", {"argv": argv},
               lambda: _cli(argv), check)


def _modular_cli():
    """`qchar verify-modular` at its default z, with matrix (1,0,1,1)."""
    argv = ["--prec", "160", "verify-modular", "--matrix", "1,0,1,1",
            "--tol", "1e-12"]

    def check(out, ctx):
        rc, obj = _cli_json(out)
        _require(rc == 0 and obj["ok"], f"exit {rc}")
        err = mp.mpf(obj["abs_err"])
        return {"output_bytes": len(out[1]),
                "margin_digits": _margin(err, mp.mpf("1e-12"), 160)}

    return Job("quadrature.cli.verify-modular", {"argv": argv},
               lambda: _cli(argv), check)


# mp.quad's cost in the transform checks varies twofold with z, so they run
# at fixed points: the CLI's default z and its mirror, which also takes the
# Im z < 0 theta-correction branch
TRANSFORM_Z = (0.12, -0.18)


def quadrature_jobs(seed):
    """Criterion 7/8/9 slices: decomposition points for ell = 2 and 4 (the
    CLI call takes ell = 3), a Fourier coefficient, the S and one general
    transform, three half-index checks, then one verify-decomposition and
    one verify-modular call.

    The three half-index checks are one job, so that the middle two of the
    eight jobs by cost are the CLI decomposition point and the S transform,
    whose costs barely move between seeds; the ell = 2 point's cost halves
    or doubles with the trapezoid doublings its seeded point needs."""
    rng = random.Random(seed)
    jobs = [_decomposition_point(ell, rng.randrange(3), rng.randrange(10**9))
            for ell in (2, 4)]
    jobs.append(_fourier_job(rng.randrange(2)))
    jobs.append(_s_transform_job(4, rng.randrange(2), TRANSFORM_Z))
    jobs.append(_general_transform_job(TRANSFORM_Z))
    jobs.append(_half_index_job(
        [((rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)),
          (rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.3))) for _ in range(3)]))
    rng.shuffle(jobs)
    jobs.append(_decomposition_cli(3, rng.randrange(3), rng.randrange(10**9)))
    jobs.append(_modular_cli())
    return jobs


WORKLOADS = {"exact": exact_jobs, "asymptotic": asymptotic_jobs,
             "quadrature": quadrature_jobs}
