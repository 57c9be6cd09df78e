"""Acceptance gate: ten numbered criteria, one summary line each.

Tolerances and parameter grids are pinned; a red line here means the
implemented mathematics does not meet the stated bound, not that the bound
was loosened to hide it.

Criterion 4 checks the leading asymptotic against its exact first
correction: F/model = 1 + c1(s) t + O(t^2) with c1(s) = 7/8 + s/2 - 3/pi^2
(``first_correction_F``, built from h_s, the central charge and the
degree-3 bracket coefficients).  Its original bound |ratio-1| <= 0.6 t lies
below the true slope c1(1) = 1.071, so no t can meet it for s=1; that bound
is still printed, as a logged spec discrepancy, and the assertion is that
the two-term residual falls at order 2 (the rule of criterion 5 with N=1).

Criterion 6 checks the Richardson slope of the quantum-dimension ratio
against its exact value -pi s^2/3 (``qdim_slope_exact``, from the same
bracket coefficients).  The spec reference -s^2 (pi^2 - 1)/(3 pi) is 11% off
that value and is printed as a logged spec discrepancy.
"""

import random
from fractions import Fraction
from math import comb

import mpmath as mp

from qchar.asymptotics import (C_ell, C_ell_star,
                               binomial_reciprocal_identity,
                               first_correction_F, leading_asym_F, qdim_ratio,
                               qdim_slope_report,
                               sl3_bracket_expansion, sl3_bracket_value,
                               verify_appendix)
from qchar.bernoulli_euler import (check_euler_bernoulli_identity,
                                   verify_S_identity)
from qchar.characters import (CharacterParams, F_ls_exact, F_ls_numeric,
                              F_ls_via_H, H_value, fourier_quadrature)
from qchar.decomposition import (F_ls_decomposed, multivar_quadrature,
                                 random_admissible_point)
from qchar.modular_transform import (S_MATRIX, SL2Matrix,
                                     half_index_identity_check,
                                     verify_S_transform,
                                     verify_general_transform)
from qchar.partial_theta import PartialThetaParams, script_FG_halving_orders

SEED = 20240915


def report(capsys, n, ok, detail=""):
    with capsys.disabled():
        print(f"\nCRITERION {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_route_equivalence(capsys):
    ok = True
    detail = "F_ls_exact == F_ls_via_H, ell in 3..6, s in 0..3, trunc 40"
    for ell in (3, 4, 5, 6):
        for s in (0, 1, 2, 3):
            params = CharacterParams(ell, s, 40)
            if F_ls_via_H(params) != F_ls_exact(params):
                ok = False
                detail = f"mismatch at ell={ell}, s={s}"
    report(capsys, 1, ok, detail)


def test_criterion_02_constant_term(capsys):
    ok = True
    for ell in range(2, 7):
        for s in range(0, 6):
            f = F_ls_exact(CharacterParams(ell, s, 4))
            if f.coefficient(0) != comb(s + ell - 1, ell - 1):
                ok = False
    report(capsys, 2, ok, "F(0) = binomial(s+ell-1, ell-1), ell<=6, s<=5")


def test_criterion_03_appendix(capsys):
    ok = True
    detail = "C_ell = C_ell* for ell<=20, recurrence, binomial identity"
    try:
        verify_appendix(20)
    except AssertionError as exc:
        ok, detail = False, str(exc)
    for ell in range(1, 21):
        ok = ok and C_ell(ell) == C_ell_star(ell)
    for n in range(0, 21):
        for c in range(1, 21):
            ok = ok and binomial_reciprocal_identity(n, c)
    report(capsys, 3, ok, detail)


def test_criterion_04_leading_asymptotic(capsys):
    # The one-term model leaves a relative error c1(s) t + O(t^2), with the
    # exact slope c1(s) from first_correction_F.  The spec bound
    # |ratio-1| <= 0.6 t is below c1(1) = 1.071, so it cannot hold for s=1 as
    # t -> 0; it is reported, not asserted.  Asserted: |ratio-1| strictly
    # decreases, and the residual |ratio - 1 - c1 t| has halving order
    # log2(res(0.8)/res(0.4)) in [N+0.7, N+1.3] with N = 1, as in criterion 5.
    prec = 128
    ok = True
    spec_met = True
    lines = []
    with mp.workprec(prec + 16):
        ts = (mp.mpf("0.8"), mp.mpf("0.6"), mp.mpf("0.4"))
        for s in (0, 1):
            model = leading_asym_F(3, s)
            c1 = mp.fsum(c.value(prec) for c in first_correction_F(3, s))
            devs, slopes, res = [], [], []
            for t in ts:
                val, _ = F_ls_numeric(3, s, t, prec)
                dev = val / model.evaluate(t, prec) - 1
                devs.append(abs(dev))
                slopes.append(dev / t)
                res.append(abs(dev - c1 * t))
                if abs(dev) > mp.mpf("0.6") * t:
                    spec_met = False
            order = mp.log(res[0] / res[2]) / mp.log(2)
            if not mp.mpf("1.7") <= order <= mp.mpf("2.3"):
                ok = False
            if not devs[0] > devs[1] > devs[2]:
                ok = False
            lines.append(
                f"s={s} c1={mp.nstr(c1, 5)} "
                f"(ratio-1)/t={','.join(mp.nstr(x, 4) for x in slopes)} "
                f"order={mp.nstr(order, 3)} "
                f"|ratio-1|={','.join(mp.nstr(x, 5) for x in devs)} "
                f"vs 0.6t={','.join(mp.nstr(mp.mpf('0.6') * t, 3) for t in ts)}")
    note = "; ".join(lines)
    if not spec_met:
        note += " [0.6t bound NOT met; logged as spec discrepancy]"
    report(capsys, 4, ok,
           f"residual |ratio-1-c1 t| halving order in [1.7, 2.3]; {note}")


def test_criterion_05_full_expansion_orders(capsys):
    prec = 160
    ok = True
    worst = None
    with mp.workprec(prec + 16):
        t1, t2 = mp.mpf("0.1"), mp.mpf("0.05")
        for s in (0, 1, 2):
            for N in range(5):
                e = sl3_bracket_expansion(s, N)
                d1 = abs(sl3_bracket_value(s, t1, prec) - e.evaluate(t1, prec))
                d2 = abs(sl3_bracket_value(s, t2, prec) - e.evaluate(t2, prec))
                order = mp.log(d1 / d2) / mp.log(2)
                if worst is None or abs(order - (N + 1)) > worst[0]:
                    worst = (abs(order - (N + 1)), s, N, order)
                if not N + mp.mpf("0.7") <= order <= N + mp.mpf("1.3"):
                    ok = False
    detail = (f"halving orders within [N+0.7, N+1.3]; worst s={worst[1]} "
              f"N={worst[2]} order={mp.nstr(worst[3], 5)}")
    report(capsys, 5, ok, detail)


def test_criterion_06_quantum_dimension(capsys):
    prec = 160
    ok = True
    with mp.workprec(prec + 16):
        devs = []
        for t in (mp.mpf("0.2"), mp.mpf("0.1"), mp.mpf("0.05")):
            r = qdim_ratio(3, 1, t, prec)
            dev = abs(r - 1)
            devs.append(dev)
            if dev > mp.mpf("1.5") * t:
                ok = False
        if not devs[0] > devs[1] > devs[2]:
            ok = False
        slope = qdim_slope_report(3, 1, prec=prec)
        slope_err = abs(slope["measured_slope"] - slope["exact_slope"])
        if slope_err > mp.mpf("1e-3"):
            ok = False
        note = (f"measured slope {mp.nstr(slope['measured_slope'], 6)} vs "
                f"exact -pi/3 = {mp.nstr(slope['exact_slope'], 6)} "
                f"(|diff| {mp.nstr(slope_err, 3)}, tol 1e-3); spec reference "
                f"{mp.nstr(slope['reference_slope'], 6)} "
                f"({mp.nstr(100 * slope['relative_deviation'], 3)}% off)")
        if not slope["within_5_percent"]:
            # the spec reference is reported as a finding, non-fatal by design
            note += " [spec slope reference NOT met; logged as discrepancy]"
    report(capsys, 6, ok, f"ratios monotone to 1 within 1.5t; {note}")


def test_criterion_07_decomposition(capsys):
    prec = 256
    tol = mp.mpf("1e-10")
    rng = random.Random(SEED)
    ok = True
    worst = mp.mpf(0)
    nodes, worst_bound, node_precs, seconds = 0, mp.mpf(0), set(), 0.0
    with mp.workprec(prec + 16):
        tau = mp.mpc(0, 1)
        for ell in (2, 3, 4):
            for s in (0, 1, 2):
                for _ in range(5):
                    pt = random_admissible_point(ell, tau, rng, prec)
                    quad, cert = multivar_quadrature(ell, s, pt, prec=prec)
                    dec = F_ls_decomposed(ell, s, pt, prec)
                    rel = abs(quad - dec) / abs(quad)
                    worst = max(worst, rel)
                    nodes += cert.nodes
                    worst_bound = max(worst_bound, cert.bound)
                    node_precs.add(cert.prec)
                    seconds += cert.seconds
                    # the certificate covers what the independent route sees
                    if rel > tol or abs(quad - dec) > cert.bound:
                        ok = False
    report(capsys, 7, ok,
           f"45 seeded points, worst rel err {mp.nstr(worst, 3)} (tol 1e-10); "
           f"{nodes} trapezoid nodes at {min(node_precs)}-{max(node_precs)} "
           f"bits in {seconds:.2f} s, largest certified bound "
           f"{mp.nstr(worst_bound, 3)}")


def test_criterion_08_fourier_specialization(capsys):
    prec = 160
    ok = True
    worst = mp.mpf(0)
    nodes, worst_bound, node_precs, seconds = 0, mp.mpf(0), set(), 0.0
    with mp.workprec(prec + 16):
        tau = mp.mpc(0, 1)
        for s in (0, 1):
            a = H_value(3, s, tau, prec)
            b, cert = fourier_quadrature(3, s, tau, prec=prec)
            err = abs(a - b)
            worst = max(worst, err)
            nodes += cert.nodes
            worst_bound = max(worst_bound, cert.bound)
            node_precs.add(cert.prec)
            seconds += cert.seconds
            if err > mp.mpf("1e-20") or err > cert.bound:
                ok = False
    report(capsys, 8, ok,
           f"quadrature vs residue sum at tau=i, worst abs err "
           f"{mp.nstr(worst, 3)} (tol 1e-20); {nodes} trapezoid nodes at "
           f"{min(node_precs)}-{max(node_precs)} bits in {seconds:.2f} s, "
           f"largest certified bound {mp.nstr(worst_bound, 3)}")


def test_criterion_09_transforms(capsys):
    prec = 160
    ok = True
    worst_s = mp.mpf(0)
    worst_h = mp.mpf(0)
    worst_g = mp.mpf(0)
    nodes = 0
    rng = random.Random(SEED)
    with mp.workprec(prec + 16):
        tau = mp.mpc(0, 1)
        for ell in (3, 4):
            for _ in range(10):
                x = rng.uniform(-0.4, 0.4)
                y = rng.uniform(0.05, 0.3) * rng.choice((1, -1))
                s = rng.randrange(0, 2)
                rep = verify_S_transform(ell, s, mp.mpc(x, y), tau, prec)
                nodes += rep["nodes"]
                worst_s = max(worst_s, rep["abs_err"])
                if rep["abs_err"] > mp.mpf("1e-15"):
                    ok = False
        for _ in range(10):
            z = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
            t2 = mp.mpc(rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.3))
            worst_h = max(worst_h, half_index_identity_check(z, t2, prec))
        if worst_h > mp.mpf("1e-25"):
            ok = False
        params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
        for gamma in (S_MATRIX, SL2Matrix(1, 0, 1, 1)):
            for _ in range(5):
                z = mp.mpc(rng.uniform(-0.3, 0.3),
                           rng.uniform(0.06, 0.25) * rng.choice((1, -1)))
                rep = verify_general_transform(params, z, tau, gamma, prec)
                nodes += rep["nodes"]
                worst_g = max(worst_g, rep["abs_err"])
                if rep["abs_err"] > mp.mpf("1e-12"):
                    ok = False
    report(capsys, 9, ok,
           f"S-transform worst {mp.nstr(worst_s, 3)} (1e-15); half-index "
           f"worst {mp.nstr(worst_h, 3)} (1e-25); general worst "
           f"{mp.nstr(worst_g, 3)} (1e-12); {nodes} trapezoid nodes")


def test_criterion_10_bernoulli_euler_machinery(capsys):
    prec = 128
    ok = True
    for n in range(0, 21):
        for m in (2, 4):
            for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2),
                      Fraction(-2, 5)):
                ok = ok and check_euler_bernoulli_identity(n, m, x)
    ok = ok and verify_S_identity(31)
    for row in script_FG_halving_orders(prec):
        ok = ok and abs(row["order"] - row["expected"]) <= mp.mpf("0.3")
    report(capsys, 10, ok,
           "Euler/Bernoulli identity n<=20, S-identity to w^30, "
           "F/G halving orders within 0.3")
