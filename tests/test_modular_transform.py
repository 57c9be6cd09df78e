from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qchar import modular_transform
from qchar.certified import (_GUARD_BITS, PoleNearContourError,
                             fraction_mpf, line_trapezoid)
from qchar.modular_transform import (S_MATRIX, SL2Matrix,
                                     half_index_identity_check,
                                     mordell_integral,
                                     verify_S_transform,
                                     verify_general_transform)
from qchar.modular_objects import _theta_cert, theta
from qchar.partial_theta import (PartialThetaParams, _partial_theta_cert,
                                 partial_theta)

PREC = 128


def quad_oracle(A, B, zeta, kappa, prec):
    """mp.quad over five tanh-sinh panels, the route the trapezoid replaced,
    on [-X, X] with e^{Re A X^2} below 2^-(prec + 32)."""
    with mp.workprec(prec + _GUARD_BITS):
        X = mp.sqrt((prec + 32) * mp.log(2) / -mp.re(A)) + 1
        return mp.quad(lambda x: mp.exp(A * x * x + B * x)
                       / (1 - zeta * mp.exp(1j * kappa * x)),
                       [-X, -X / 3, 0, X / 3, X])


_line_examples = (st.floats(1.5, 4), st.floats(-1, 1), st.floats(-1, 1),
                  st.floats(-6, 6), st.floats(4, 12), st.floats(0.15, 0.8),
                  st.sampled_from((1, -1)), st.floats(0, 6.25))


def line_problem(a_re, a_im, b_re, b_im, kappa, dist, side, phase):
    """(A, B, kappa, zeta) with the kernel poles on Im x = side * dist."""
    kappa = mp.mpf(kappa)
    return (mp.mpc(-a_re, a_im), mp.mpc(b_re, b_im), kappa,
            mp.expj(phase) * mp.exp(side * kappa * dist))


def gaussian(A, B):
    """The integral over R of e^{A x^2 + B x}, Re A < 0."""
    return mp.sqrt(mp.pi / -A) * mp.exp(-B * B / (4 * A))


@settings(max_examples=10)
@given(*_line_examples)
def test_line_trapezoid_against_higher_precision_and_shift_identity(
        a_re, a_im, b_re, b_im, kappa, dist, side, phase):
    # I(A, B) - zeta I(A, B + i kappa) is the Gaussian integral, since
    # 1/(1 - u) - u/(1 - u) = 1: an exact oracle, within both certificates
    with mp.workprec(400):
        A, B, kappa, zeta = line_problem(a_re, a_im, b_re, b_im, kappa, dist,
                                         side, phase)
        lo, lo_cert = line_trapezoid(A, B, zeta, kappa, 160)
        hi, hi_cert = line_trapezoid(A, B, zeta, kappa, 320)
        assert abs(lo - hi) <= lo_cert.bound + hi_cert.bound
        assert lo_cert.bound < mp.mpf(2) ** -(160 + _GUARD_BITS)
        assert lo_cert.nodes == 2 * int(lo_cert.X / lo_cert.h) + 1
        shifted, sh_cert = line_trapezoid(A, B + 1j * kappa, zeta, kappa,
                                           160)
        assert abs(lo - zeta * shifted - gaussian(A, B)) \
            <= lo_cert.bound + abs(zeta) * sh_cert.bound


def test_line_trapezoid_against_higher_precision_and_quad():
    # the independent mp.quad route, on two fixed examples: poles above and
    # below the line, pole distance at least 0.3
    for example in ((2.0, 0.5, 0.3, -2.0, 6.0, 0.5, 1, 1.0),
                    (3.5, -0.7, -0.8, 4.0, 10.0, 0.35, -1, 5.0)):
        with mp.workprec(400):
            A, B, kappa, zeta = line_problem(*example)
            lo, lo_cert = line_trapezoid(A, B, zeta, kappa, 160)
            hi, hi_cert = line_trapezoid(A, B, zeta, kappa, 320)
            assert abs(lo - hi) <= lo_cert.bound + hi_cert.bound
            assert abs(lo - quad_oracle(A, B, zeta, kappa, 160)) \
                <= mp.mpf("1e-30")


@pytest.mark.parametrize("A, kappa", [
    (mp.mpc(0.1, 1), 6), (mp.mpc(0, 1), 6), (mp.mpc(-1, 0), 0),
    (mp.mpc(-1, 0), -6)])
def test_line_trapezoid_refuses_its_excluded_inputs(A, kappa):
    # Re A >= 0 or kappa <= 0 is a ValueError before anything is planned,
    # not a math domain error or a division by zero inside the plan
    with pytest.raises(ValueError, match="Re A < 0 and kappa > 0"):
        line_trapezoid(A, mp.mpc(0.3, 0), mp.mpc(0.5, 0.1), kappa, 64)


def test_line_bound_covers_its_inputs_rounding():
    # A, B, zeta and kappa taken as roundings, within the relative e = 2^(1
    # - prec - 2 _GUARD_BITS) line_trapezoid assumes, of inputs moved by e
    # in several directions: the integral of the moved inputs, at 100 more
    # bits, lies within the bound.  At |value| = 4.4e15 the move alone is
    # far past 2^-(prec + _GUARD_BITS), all that the bound held before it
    # counted the inputs' drift
    prec = 64
    with mp.workprec(prec + 2 * _GUARD_BITS):
        A, B, zeta, kappa = (mp.mpc(-1, 0.1), mp.mpc(12, 0.3),
                             mp.mpf(0.3) * mp.expj(1), mp.mpf(6))
        value, cert = line_trapezoid(A, B, zeta, kappa, prec)
    e = mp.ldexp(1, 1 - prec - 2 * _GUARD_BITS)
    moves = []
    with mp.workprec(prec + 200):
        for pa, pb, pz, pk in ((0, 0, 0, 0), (1, 1, 1, 1),
                               (0.5, -0.5, 0.5, 1), (1 / 3, 1.2, -0.7, 0)):
            fine, fine_cert = line_trapezoid(
                A * (1 + e * mp.expjpi(pa)), B * (1 + e * mp.expjpi(pb)),
                zeta * (1 + e * mp.expjpi(pz)),
                kappa * (1 + e * mp.cospi(pk)), prec + 100)
            assert abs(value - fine) <= cert.bound + fine_cert.bound
            moves.append(abs(value - fine))
    assert max(moves) > 1e6 * mp.ldexp(1, -(prec + _GUARD_BITS))


class _Inputs(Exception):
    """Carries the inputs a caller passed to line_trapezoid."""


def _line_inputs(monkeypatch, call):
    """The (A, B, zeta, kappa, prec) that call passes to line_trapezoid,
    which is stopped there."""
    def capture(*args):
        raise _Inputs(args)

    monkeypatch.setattr(modular_transform, "line_trapezoid", capture)
    with pytest.raises(_Inputs) as caught:
        call()
    return caught.value.args[0]


@pytest.mark.parametrize("gamma,z,tau", [
    (S_MATRIX, "0.12+0.18j", "1j"),
    (S_MATRIX, "3+0.5j", "0.3+0.01j"),
    # c tau + d = 0.002i: its terms cancel by a factor of 1,500
    (SL2Matrix(1, 1, 2, 3), "0.1+0.2j", "-1.5+0.001j"),
])
def test_callers_form_line_inputs_within_its_precondition(monkeypatch, gamma,
                                                          z, tau):
    # each of A, B, zeta and kappa within the relative 2^(1 - prec - 2
    # _GUARD_BITS) of its exact value, taken at 200 more bits
    prec = 96
    z, tau = mp.mpc(complex(z)), mp.mpc(complex(tau))
    params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
    j, ell, s = 1, 3, 1
    got = [_line_inputs(monkeypatch, lambda: mordell_integral(
        params, z, tau, j, gamma, prec))]
    if gamma == S_MATRIX:
        got.append(_line_inputs(monkeypatch, lambda: verify_S_transform(
            ell, s, z, tau, prec)))
    with mp.workprec(prec + 200):
        cM = mp.mpf(gamma.c) * fraction_mpf(params.M)
        rj = fraction_mpf(params.r - 2 * params.M * j)
        want = [(mp.pi * 1j * (gamma.c * tau + gamma.d) / 2,
                 -mp.pi * 1j / mp.sqrt(cM) * rj, mp.expjpi(8 * z * cM),
                 4 * mp.pi * mp.sqrt(cM))]
        sl = mp.sqrt(ell)
        want.append((mp.pi * 1j * tau,
                     2j * mp.pi / sl * (s + ell) + 1j * mp.pi * sl,
                     (-1) ** ell * mp.expjpi(-2 * ell * z), 2 * mp.pi * sl))
        for inputs, exact in zip(got, want):
            assert inputs[4] == prec
            for x, y in zip(inputs[:4], exact):
                assert abs(x - y) <= mp.ldexp(abs(y),
                                              1 - prec - 2 * _GUARD_BITS)


def line_tail(A, B, zeta, h, X):
    """The tangent-line bound of the Gaussian tail line_trapezoid drops past
    X, or inf where the tangent does not fall."""
    Ar, Br = -mp.re(A), abs(mp.re(B))
    slope = Br - 2 * Ar * X
    if slope >= 0:
        return mp.inf
    return (2 * h * mp.exp(-Ar * X * X + Br * X)
            / (-mp.expm1(slope * h) * -mp.expm1(-abs(mp.log(abs(zeta))))))


def old_cutoff(A, B, zeta, h, prec):
    """The cutoff line_trapezoid searched for before it was planned: from
    sqrt((prec + 32) log 2/|Re A|) + 1 in steps of 1 until the tail bound is
    below eps = 2^-(prec + _GUARD_BITS)/4."""
    eps = mp.mpf(2) ** -(prec + _GUARD_BITS) / 4
    X = mp.sqrt((prec + 32) * mp.log(2) / -mp.re(A)) + 1
    while line_tail(A, B, zeta, h, X) > eps:
        X += 1
    return X


@settings(max_examples=25)
@given(*_line_examples)
def test_line_trapezoid_cutoff_planned_within_old_search(
        a_re, a_im, b_re, b_im, kappa, dist, side, phase):
    # the planned X is never past the old search's, and its tail bound,
    # recomputed in mpf, meets the target
    prec = 160
    with mp.workprec(prec + _GUARD_BITS):
        A, B, kappa, zeta = line_problem(a_re, a_im, b_re, b_im, kappa, dist,
                                         side, phase)
        _, cert = line_trapezoid(A, B, zeta, kappa, prec)
        assert cert.X <= old_cutoff(A, B, zeta, cert.h, prec)
        assert line_tail(A, B, zeta, cert.h, cert.X) \
            <= mp.mpf(2) ** -(prec + _GUARD_BITS) / 4


def line_trapezoid_mpmath(A, B, zeta, kappa, h, K, prec):
    """The node loop of line_trapezoid in mpc arithmetic, as it ran before
    the fixed-point kernel: the oracle for that kernel's rounding."""
    with mp.workprec(prec):
        Q = mp.exp(2 * A * h * h)
        total = 1 / (1 - zeta)
        for sgn in (1, -1):
            E = mp.mpc(1)
            R = mp.exp(A * h * h + sgn * B * h)
            Zw = zeta
            w = mp.exp(sgn * 1j * kappa * h)
            for _ in range(K):
                E *= R
                R *= Q
                Zw *= w
                total += E / (1 - Zw)
        return h * total


@settings(max_examples=8)
@given(*_line_examples)
def test_line_trapezoid_rounding_against_mpmath_recurrence(
        a_re, a_im, b_re, b_im, kappa, dist, side, phase):
    # same nodes, recurrences 128 bits finer: what is left is the rounding,
    # which the certificate budgets at a quarter of 2^-(prec + guard)
    with mp.workprec(400):
        A, B, kappa, zeta = line_problem(a_re, a_im, b_re, b_im, kappa, dist,
                                         side, phase)
        got, cert = line_trapezoid(A, B, zeta, kappa, 160)
        want = line_trapezoid_mpmath(A, B, zeta, kappa, cert.h,
                                     (cert.nodes - 1) // 2, 160 + 128)
        assert abs(got - want) <= mp.mpf(2) ** -(160 + _GUARD_BITS) / 4


# (line_problem's arguments, prec) for the interval oracle: poles above R
# (|zeta| = 37) and below it, one case 0.15 from R, 369 to 411 nodes; "law"
# takes the inputs mordell_integral passes for the S law at the benchmark
# point (313 nodes, |zeta| = 885)
LINE_INTERVAL_CASES = [
    ((3, 0.5, 0.3, -1, 6, 0.6, 1, 1.0), 128),
    ((3, -0.7, -0.5, 2, 10, 0.35, -1, 4.0), 80),
    ((8, 1, 1, 5, 12, 0.15, -1, 2.5), 64),
    ("law", 64),
]


def law_inputs(monkeypatch, prec):
    """The (A, B, zeta, kappa) mordell_integral passes line_trapezoid for
    the S law at tau = i, z = 0.12 - 0.18i, j = 1."""
    seen = []
    monkeypatch.setattr(modular_transform, "line_trapezoid",
                        lambda *args: seen.append(args[:4])
                        or line_trapezoid(*args))
    mordell_integral(PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2)),
                     mp.mpc("0.12", "-0.18"), mp.mpc(0, 1), 1, S_MATRIX, prec)
    return seen[0]


def iv_ends(box):
    """The exact (lo, hi) ends, as mpfs, of the real and the imaginary part
    of an mp.iv number."""
    return [tuple(mp.make_mpf(e) for e in part._mpi_)
            for part in (box.real, box.imag)]


@pytest.mark.parametrize("case, prec", LINE_INTERVAL_CASES)
def test_line_rounding_against_interval_enclosure(case, prec, monkeypatch):
    # the certificate's own nodes, h sum_{|k| <= K} e^{A (kh)^2 + B kh}/(1 -
    # zeta e^{i kappa kh}), enclosed from the exact inputs by interval exps,
    # three for the nodes +-kh; the kernel's value must lie within the
    # rounding share of its bound, eps = 2^-(prec + _GUARD_BITS)/4, of the
    # enclosure
    with mp.workprec(prec + 2 * _GUARD_BITS):
        if case == "law":
            A, B, zeta, kappa = law_inputs(monkeypatch, prec)
        else:
            A, B, kappa, zeta = line_problem(*case)
        value, cert = line_trapezoid(A, B, zeta, kappa, prec)
    K, h = (cert.nodes - 1) // 2, cert.h
    saved = mp.iv.prec
    mp.iv.prec = prec + _GUARD_BITS + 40
    try:
        iA, iB, iz = (mp.iv.mpc(x.real, x.imag) for x in (A, B, zeta))
        ik, ih = mp.iv.mpc(0, kappa), mp.iv.mpf(h)
        total = 1 / (1 - iz)
        for k in range(1, K + 1):
            x = k * ih
            g, b, w = (mp.iv.exp(c * x) for c in (iA * x, iB, ik))
            total += g * b / (1 - iz * w) + g / b / (1 - iz / w)
        total *= ih
    finally:
        mp.iv.prec = saved
    with mp.workprec(prec + _GUARD_BITS + 40):
        eps = mp.mpf(2) ** -(prec + _GUARD_BITS) / 4
        value, ends = mp.mpc(value), iv_ends(total)
        assert mp.hypot(*(max(lo - v, v - hi, 0) for v, (lo, hi) in
                          zip((value.real, value.imag), ends))) <= eps
        assert mp.hypot(*(hi - lo for lo, hi in ends)) < eps / 1000


def test_certificate_bounds_observed_error():
    # z = 0.2 + 0.05i puts the kernel poles 0.12 from the path, where the
    # tanh-sinh route was off by about 6e-35; z = 0.12 - 0.18i is the
    # benchmark point (pole distance 0.44), where it serves as the oracle
    params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
    tau = mp.mpc(0, 1)
    for z in (mp.mpc("0.2", "0.05"), mp.mpc("0.12", "-0.18")):
        with mp.workprec(400):
            lo, lo_cert = mordell_integral(params, z, tau, 1, S_MATRIX, 160)
            hi, _ = mordell_integral(params, z, tau, 1, S_MATRIX, 320)
            assert abs(lo - hi) <= lo_cert.bound
            assert lo_cert.bound <= mp.mpf(2) ** -(160 + _GUARD_BITS)
            assert lo_cert.prec == 160 and lo_cert.seconds > 0
    with mp.workprec(400):
        # z and lo are the benchmark point's; its j = 1 integrand for S has
        # c tau + d = tau, r - 2Mj = -3/2 and cM = 3/2
        scM = mp.sqrt(mp.mpf(3) / 2)
        ref = quad_oracle(mp.pi * 1j * tau / 2, mp.pi * 1j / scM * 3 / 2,
                          mp.expj(12 * mp.pi * z), 4 * mp.pi * scM, 160)
        assert abs(lo - ref) <= mp.mpf("1e-45")


@settings(max_examples=8)
@given(st.sampled_from((SL2Matrix(1, 0, 1, 1), SL2Matrix(1, 1, 2, 3),
                        S_MATRIX)),
       st.integers(0, 1), st.sampled_from((Fraction(1, 2), Fraction(3, 2),
                                           Fraction(-1), Fraction(2))),
       st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2))),
       st.floats(-0.5, 0.5), st.floats(0.05, 0.3), st.sampled_from((1, -1)),
       st.floats(-0.3, 0.3), st.floats(0.7, 1.5))
def test_mordell_integral_shift_identity(gamma, j, r, M, x, y, side, u, v):
    # j and j + 2c differ by i kappa in the linear coefficient, so
    # I_j - e^{8 pi i cM z} I_{j+2c} is the Gaussian integral of the
    # numerator, within both certificates: mordell_integral forms its
    # coefficients at prec + 2 _GUARD_BITS bits, so their rounding moves
    # each integral by about 16 |I| 2^-(prec + 2 _GUARD_BITS), far below
    # the certificates' 2^-(prec + _GUARD_BITS)
    params = PartialThetaParams(r, 1, M)
    z, tau = mp.mpc(x, side * y), mp.mpc(u, v)
    prec = 160
    with mp.workprec(400):
        lo, lo_cert = mordell_integral(params, z, tau, j, gamma, prec)
        hi, hi_cert = mordell_integral(params, z, tau, j + 2 * gamma.c, gamma,
                                       prec)
        cM = fraction_mpf(gamma.c * M)
        zeta = mp.exp(8j * mp.pi * cM * z)
        rj = fraction_mpf(r - 2 * M * j)
        A = mp.pi * 1j * (gamma.c * tau + gamma.d) / 2
        B = -mp.pi * 1j / mp.sqrt(cM) * rj
        assert abs(lo - zeta * hi - gaussian(A, B)) \
            <= lo_cert.bound + abs(zeta) * hi_cert.bound


def test_sl2_matrix_validation_and_action():
    with pytest.raises(ValueError):
        SL2Matrix(1, 1, 1, 1)
    for c in (0, -1):  # every law here needs c > 0
        with pytest.raises(ValueError, match="c > 0"):
            SL2Matrix(1, 0, c, 1)
    g = SL2Matrix(1, 0, 1, 1)
    tau = mp.mpc(0, 1)
    assert abs(g.act(tau) - tau / (tau + 1)) == 0
    assert abs(S_MATRIX.act(tau) - (-1 / tau)) < mp.mpf("1e-15")


def test_half_index_identity():
    with mp.workprec(PREC + 16):
        for z, tau in ((mp.mpc("0.21", "0.13"), mp.mpc(0, 1)),
                       (mp.mpc("-0.37", "-0.08"), mp.mpc("0.2", "0.8"))):
            assert half_index_identity_check(z, tau, PREC) <= mp.mpf("1e-30")


def test_S_transform_both_parities_and_signs():
    with mp.workprec(PREC + 16):
        tau = mp.mpc(0, 1)
        for ell in (3, 4):
            for s in (0, 1):
                for sign in (1, -1):
                    z = mp.mpc("0.12", "0.18") * sign
                    rep = verify_S_transform(ell, s, z, tau, PREC)
                    assert rep["abs_err"] <= \
                        mp.mpf("1e-30") * max(1, abs(rep["lhs"]))


def test_general_transform_nontrivial_matrix():
    with mp.workprec(PREC + 16):
        tau = mp.mpc(0, 1)
        params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
        for gamma in (SL2Matrix(1, 0, 1, 1), SL2Matrix(1, 1, 1, 2)):
            for sign in (1, -1):
                z = mp.mpc("0.12", "0.18") * sign
                rep = verify_general_transform(params, z, tau, gamma, PREC)
                assert rep["abs_err"] <= \
                    mp.mpf("1e-28") * max(1, abs(rep["lhs"]))


# below the real axis the theta corrections enter both laws
Z_BELOW = mp.mpc("0.12", "-0.18")


@pytest.mark.parametrize("prec", (160, 256))
def test_S_transform_bound_bounds_its_error(prec):
    # the integral's certificate alone falls short of abs_err by 10^2 to
    # 10^5 here; the whole bound holds and stays below the target
    with mp.workprec(prec + 64):
        for ell in range(2, 6):
            for s in (0, 1):
                rep = verify_S_transform(ell, s, Z_BELOW, mp.mpc(0, 1), prec)
                assert rep["abs_err"] <= rep["bound"] <= mp.mpf(2) ** -prec


def test_general_transform_bound_bounds_its_error():
    params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
    with mp.workprec(160 + 64):
        rep = verify_general_transform(params, Z_BELOW, mp.mpc(0, 1),
                                       SL2Matrix(1, 0, 1, 1), 160)
        assert rep["abs_err"] <= rep["bound"] <= mp.mpf(2) ** -160


@pytest.mark.parametrize("dz, dtau", ((0, 0), (1e6, 0), (0, 1e6)))
def test_cores_certify_inputs_known_within_a_radius(dz, dtau):
    # theta and partial theta at z and tau, against their values 200 bits
    # finer at z and tau moved by dz u and dtau u, u = 2^(1 - prec - guard):
    # within the cores' certificates
    z, tau = mp.mpc("0.21", "-0.13"), mp.mpc("0.1", "0.8")
    params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
    with mp.workprec(400):
        u = mp.mpf(2) ** (1 - 128 - _GUARD_BITS)
        moved_z, moved_tau = z + dz * u * mp.expjpi(0.3), tau + dtau * u * 1j
        value, cert = _theta_cert(z, tau, 128, dz, dtau)
        assert abs(value - theta(moved_z, moved_tau, 360)) <= cert.bound
        value, cert = _partial_theta_cert(params, z, tau, 128, dtau)
        assert abs(value - partial_theta(params, z, moved_tau, 360)) \
            <= cert.bound


def test_general_transform_even_epsilon():
    with mp.workprec(PREC + 16):
        tau = mp.mpc("0.1", "1.1")
        params = PartialThetaParams(Fraction(1), 0, Fraction(2))
        rep = verify_general_transform(params, mp.mpc("0.1", "-0.15"), tau,
                                       SL2Matrix(1, 0, 1, 1), PREC)
        assert rep["abs_err"] <= mp.mpf("1e-28") * max(1, abs(rep["lhs"]))


def test_pole_preflight():
    params = PartialThetaParams(Fraction(3, 2), 1, Fraction(3, 2))
    with pytest.raises(PoleNearContourError):
        mordell_integral(params, mp.mpc("0.2", "0.0001"), mp.mpc(0, 1), 0,
                         S_MATRIX, 64)
    with pytest.raises(ValueError):
        mordell_integral(params, mp.mpc("0.2", "0.2"), mp.mpc(0, 1), 0,
                         SL2Matrix(0, 1, -1, 0), 64)


@pytest.mark.parametrize("side", (1, -1))
def test_line_trapezoid_refuses_a_pole_near_the_path(side):
    # poles 0.005 from R: the strip search alone would still plan a rule
    A, B, kappa, zeta = line_problem(2, 0, 0, 0, 6, 0.005, side, 1)
    with pytest.raises(PoleNearContourError):
        line_trapezoid(A, B, zeta, kappa, 160)


def test_S_transform_refuses_a_pole_before_its_left_side(monkeypatch):
    def unreachable(*args):
        raise AssertionError("partial_theta ran before the pole check")

    monkeypatch.setattr(modular_transform, "_partial_theta_cert", unreachable)
    with pytest.raises(PoleNearContourError):
        verify_S_transform(3, 0, mp.mpc("0.2", "0.001"), mp.mpc(0, 1), 64)
