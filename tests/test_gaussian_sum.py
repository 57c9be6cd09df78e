"""certified_gaussian_sum and its five callers.

The oracles below are the per-term loops that theta, partial_theta, H_value,
script_F and script_G ran before they became callers of the helper: one
mp.exp per term and a stopping rule of their own; the helper's own mpmath
term loop, which its fixed-point loop replaced; an interval enclosure
(mp.iv) of the helper's finite sum; and, for the helper's radius, the
separate drift function and the theta and partial-theta layers that summed
it before the helper took it over.
"""

import math
import time
from fractions import Fraction
from functools import partial
from math import factorial

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from qchar.certified import (_GUARD_BITS, Certificate, certified_gaussian_sum,
                             fraction_mpf)
from qchar.characters import H_value
from qchar.modular_objects import (_require_upper_half, _theta_cert, _tol,
                                   ghat_value, laurent_coefficients_D, theta)
from qchar.partial_theta import (PartialThetaParams, _partial_theta_cert,
                                 partial_theta, script_F, script_G)

PREC = 128
TOL = mp.mpf(2) ** -(PREC - 8)


# ------------------------------------------------------------------ oracles


def theta_loop(z, tau, prec):
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        tol = _tol(prec)
        v = mp.im(tau)
        y = abs(mp.im(z))
        total = mp.mpc(0)
        m = 0
        while True:
            n = m + mp.mpf(1) / 2
            for sgn in (1, -1):
                nn = sgn * n
                total += mp.exp(mp.pi * 1j * tau * nn * nn
                                + 2j * mp.pi * nn * (z + mp.mpf(1) / 2))
            # |term| <= e^{-pi v n^2 + 2 pi y n}; ratio of consecutive bounds
            # is e^{-pi v (2n+1) + 2 pi y}, eventually < 1/2
            bound = 2 * mp.exp(-mp.pi * v * n * n + 2 * mp.pi * y * n)
            if m > (2 * y + 1) / v and bound < tol:
                return total
            m += 1


def partial_theta_loop(params, z, tau, prec):
    _require_upper_half(tau)
    r, eps, M = params.r, params.epsilon, params.M
    with mp.workprec(prec + _GUARD_BITS):
        v = mp.im(tau)
        y = mp.im(z)
        log_tol = -(prec + 8) * mp.log(2)
        M4 = 4 * fraction_mpf(M)
        total = mp.mpc(0)
        n = 0
        prev_log_bound = mp.inf
        while True:
            a = 2 * M * n - r  # rational
            af = fraction_mpf(a)
            total += (-1) ** (n * eps) * mp.exp(
                2j * mp.pi * z * af + 2j * mp.pi * tau * af * af / M4)
            # log|term| = -2 pi y a - 2 pi v a^2/(4M); quadratic wins
            log_bound = -2 * mp.pi * y * af - 2 * mp.pi * v * af * af / M4
            if af > 0 and log_bound < log_tol and \
                    log_bound < prev_log_bound - mp.log(2):
                # bounds now halve (at least) per step: remaining sum is
                # below twice the next bound, i.e. below tolerance
                return total
            prev_log_bound = log_bound
            n += 1
            if n > 10_000_000:
                raise RuntimeError("partial theta not converging")


def H_value_loop(ell, s, tau, prec):
    _require_upper_half(tau)
    eps = ell % 2
    with mp.workprec(prec + _GUARD_BITS):
        # i^ell D_{-j}
        D = laurent_coefficients_D(
            ell, partial(ghat_value, tau=tau, prec=prec), mp.mpc(1))
        v = mp.im(tau)
        log_tol = -(prec + 8) * mp.log(2)
        acc = mp.mpc(0)
        for j in range(1, ell + 1):
            if (ell - j) % 2:
                continue
            Dval = (-1j) ** ell * D[j - 1]
            inner = mp.mpc(0)
            n = 0
            while True:
                a = mp.mpf(2 * ell * n + ell - 2 * s) / 2
                inner += (-1) ** (n * eps) * a ** (j - 1) * mp.exp(
                    2j * mp.pi * tau * a * a / (2 * ell))
                log_bound = (-2 * mp.pi * v * a * a / (2 * ell)
                             + (j - 1) * mp.log(abs(a) + 2))
                if a > 0 and log_bound < log_tol:
                    break
                n += 1
            acc += Dval / factorial(j - 1) * inner
        return (-1) ** ell * acc


def script_F_loop(j, r, t, prec):
    r = Fraction(r)
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        rf = fraction_mpf(r)
        cutoff = (prec + 8) * mp.log(2)
        acc = mp.mpf(0)
        n = 0
        while True:
            x = n + rf
            expo = x * x * t / 4
            acc += (-1) ** n * x ** (2 * j) * mp.exp(-expo)
            if x > 0 and expo > cutoff + 2 * j * mp.log(abs(x) + 2):
                break
            n += 1
        return mp.mpf(2) ** (-2 * j) * t ** j * acc


def script_G_loop(j, r, t, prec):
    if j < 1:
        raise ValueError("j must be >= 1")
    r = Fraction(r)
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        rf = fraction_mpf(r)
        cutoff = (prec + 8) * mp.log(2)
        acc = mp.mpf(0)
        n = 0
        while True:
            x = n + rf
            expo = x * x * t
            acc += x ** (2 * j - 1) * mp.exp(-expo)
            if x > 0 and expo > cutoff + 2 * j * mp.log(abs(x) + 2):
                break
            n += 1
        return t ** (j - mp.mpf(1) / 2) * acc


def gaussian_sum_loop(alpha, beta, r, sign, poly, prec):
    """certified_gaussian_sum as it was with its terms summed in mpmath at
    wp bits (one mp.polyval and two mpc products per term): the same plan,
    and a bound whose rounding part K u counts one mpf rounding per step."""
    start = time.perf_counter()
    r = Fraction(r)
    a, b, rf = -float(mp.re(alpha)), float(mp.re(beta)), float(r)
    d = len(poly) - 1
    abs_coeffs = [float(abs(c)) for c in poly]

    def log_pbar(y):
        return math.log(sum(c * y ** k for k, c in enumerate(abs_coeffs)))

    first = (b - a) / (2 * a) - rf
    for N in range(max(1, math.floor(-r) + 1, math.floor(first)),
                   10_000_000):
        x = N + rf
        log_rho = d * math.log1p(1 / x) - a * (2 * x + 1) + b
        if log_rho < -1e-6:
            log_T = (log_pbar(x) - a * x * x + b * x
                     - math.log(-math.expm1(log_rho)))
            if log_T <= -(prec + _GUARD_BITS) * math.log(2):
                break
    Y = max(abs(rf), abs(N - 1 + rf)) + 1
    log2_K = (math.log2(2 * N * (d * (2 * abs(rf) + 4) + N * N + N + 1))
              + (b * b / (4 * a) + log_pbar(Y)) / math.log(2))
    wp = prec + _GUARD_BITS + 1 + max(0, math.ceil(log2_K))
    span = 4 * (float(abs(alpha)) + float(abs(beta)) + 1) * (abs(rf) + 1) ** 2
    with mp.workprec(wp + 12 + math.ceil(math.log2(span))):
        rr = fraction_mpf(r)
        E = mp.exp((alpha * rr + beta) * rr)
        R = sign * mp.exp(alpha * (2 * rr + 1) + beta)
        Q = mp.exp(2 * alpha)
    with mp.workprec(wp):
        acc = 0
        for n in range(N):
            acc += mp.polyval(poly[::-1], n + rr) * E
            E *= R
            R *= Q
        bound = 2 * mp.exp(log_T) + mp.ldexp(1, math.ceil(log2_K) + 1 - wp)
    return acc, Certificate(N, 1, N - 1 + r, bound, wp,
                            time.perf_counter() - start)


# -------------------------------------------------- callers against oracles

re_st = st.floats(min_value=-0.5, max_value=0.5)
im_st = st.floats(min_value=0.05, max_value=2.0)
frac_st = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def tau_z(draw):
    """(tau, z) with Im tau in [0.05, 2] and |Im z| <= Im tau."""
    v = draw(im_st)
    tau = mp.mpc(draw(re_st), v)
    z = mp.mpc(draw(re_st), v * draw(st.floats(min_value=-1, max_value=1)))
    return tau, z


def close(got, want):
    return abs(got - want) <= TOL * max(1, abs(want))


@settings(max_examples=40)
@given(tau_z())
def test_theta_against_loop(point):
    tau, z = point
    assert close(theta(z, tau, PREC), theta_loop(z, tau, PREC))


@settings(max_examples=40)
@given(tau_z(), frac_st, st.sampled_from((0, 1)),
       st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2), 2)))
def test_partial_theta_against_loop(point, r, eps, M):
    tau, z = point
    params = PartialThetaParams(r, eps, M)
    assert close(partial_theta(params, z, tau, PREC),
                 partial_theta_loop(params, z, tau, PREC))


@settings(max_examples=20)
@given(tau_z(), st.sampled_from((2, 3, 4)), st.integers(0, 4))
def test_H_value_against_loop(point, ell, s):
    tau, _ = point
    assert close(H_value(ell, s, tau, PREC), H_value_loop(ell, s, tau, PREC))


@settings(max_examples=40)
@given(st.floats(min_value=0.05, max_value=1.0), st.sampled_from((1, 2, 3)),
       frac_st)
def test_script_FG_against_loops(t, j, r):
    assert close(script_F(j, r, t, PREC), script_F_loop(j, r, t, PREC))
    assert close(script_G(j, r, t, PREC), script_G_loop(j, r, t, PREC))


# ------------------------------------------------------------ the certificate

# (alpha, beta, r, sign, poly): a theta side at tau = i, where each term is
# far above the next, a tilted one with a complex polynomial, a partial-theta
# side whose early terms grow, and an alternating script-F sum at t = 1e-3,
# whose terms reach 1e11 before they decay
CASES = [
    (-mp.pi, 0, Fraction(1, 2), 1, (1,)),
    (mp.mpc(-0.7, 2.1), mp.mpc(1.3, -0.4), Fraction(-5, 3), -1,
     (mp.mpc(0.5, -1), 0, 3)),
    (mp.mpc(-1.2, 0.3), mp.mpc(2.5, 1.0), Fraction(-3), 1, (1,)),
    (mp.mpf("-0.00025"), 0, Fraction(1, 3), -1, (0,) * 6 + (1,)),
]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("prec", (64, 128, 256))
def test_certificate_bounds_error_against_higher_precision(case, prec):
    alpha, beta, r, sign, poly = case
    with mp.workprec(prec + 96):
        value, cert = certified_gaussian_sum(alpha, beta, r, sign, poly, prec)
        fine, fine_cert = certified_gaussian_sum(alpha, beta, r, sign, poly,
                                                 prec + 64)
        assert abs(value - fine) <= cert.bound + fine_cert.bound
        assert cert.bound <= mp.mpf(2) ** -(prec + _GUARD_BITS - 2)
        assert cert.nodes >= 1 and cert.h == 1 and cert.prec > prec
        assert cert.X == cert.nodes - 1 + r


@pytest.mark.parametrize("family,t", [(script_F, 0), (script_G, "-0.1")])
def test_nonpositive_t_raises(family, t):
    with pytest.raises(ValueError):
        family(1, Fraction(1, 3), t, 64)


@pytest.mark.parametrize("alpha,beta", [
    (-1, mp.nan),
    (mp.mpc(-1, mp.nan), 0),
    (-mp.inf, 0),
    (mp.mpc(-1, 1), mp.mpc(0.5, mp.inf)),
    (-1, mp.mpf("1e400")),  # finite, but not as a double
    (-1, mp.mpc("-6e300", 1)),  # b^2/(4a) overflows the plan's doubles
])
def test_nonfinite_or_overflowing_plan_raises_at_once(alpha, beta):
    # a NaN once kept the planning loop running for its 10^7 steps
    start = time.perf_counter()
    with pytest.raises(ValueError):
        certified_gaussian_sum(alpha, beta, Fraction(1, 2), 1, (1,), 64)
    assert time.perf_counter() - start < 0.5


# ------------------------------------------------------------ the term count


def gaussian_terms_from_one(alpha, beta, r, poly, prec):
    """The term count of certified_gaussian_sum's plan, searched from the
    first n >= 1 with x_n > 0, as it was before the search started at
    x_n > (b - a)/(2a); the oracle for that start."""
    a, b, rf = -float(mp.re(alpha)), float(mp.re(beta)), float(r)
    d = len(poly) - 1
    abs_coeffs = [float(abs(c)) for c in poly]
    for N in range(max(1, math.floor(-r) + 1), 10_000_000):
        x = N + rf
        log_rho = d * math.log1p(1 / x) - a * (2 * x + 1) + b
        if log_rho < -1e-6:
            log_T = (math.log(sum(c * x ** k
                                  for k, c in enumerate(abs_coeffs)))
                     - a * x * x + b * x - math.log(-math.expm1(log_rho)))
            if log_T <= -(prec + _GUARD_BITS) * math.log(2):
                return N
    raise RuntimeError("Gaussian sum needs too many terms")


@settings(max_examples=60)
@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=-12.0, max_value=12.0), frac_st,
       st.sampled_from(((1,), (0, 1), (mp.mpc(0.5, -1), 0, 3),
                        (0,) * 4 + (1,))),
       st.sampled_from((64, 128, 256)))
def test_term_count_equals_search_from_one(a, im_alpha, b, r, poly, prec):
    alpha, beta = mp.mpc(-a, im_alpha), mp.mpc(b, 0.3)
    _, cert = certified_gaussian_sum(alpha, beta, r, 1, poly, prec)
    assert cert.nodes == gaussian_terms_from_one(alpha, beta, r, poly, prec)


def test_far_first_term_raises_at_once():
    # x_n > (b - a)/(2a) only from n ~ 1e30 on: the search from n = 1 took
    # about 4 s to give up after its 10^7 steps
    start = time.perf_counter()
    with pytest.raises(RuntimeError):
        certified_gaussian_sum(-mp.pi, mp.mpc("2e30", 1), Fraction(1, 2), 1,
                               (1,), 64)
    assert time.perf_counter() - start < 0.5


# ------------------------------------------------------ the fixed-point loop

coeff_st = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.floats(min_value=-4, max_value=4).map(mp.mpf),
    st.builds(mp.mpc, st.floats(min_value=-4, max_value=4),
              st.floats(min_value=-4, max_value=4)))
nonzero_st = coeff_st.filter(lambda c: c != 0)


@st.composite
def polys(draw):
    """Coefficients of degree 0 to 6 with a nonzero leading one, or one of
    script-F/G's monomials x^k, as (0,) * k + (1,)."""
    if draw(st.booleans()):
        return (0,) * draw(st.integers(0, 6)) + (1,)
    return tuple(draw(st.lists(coeff_st, max_size=6))) + (draw(nonzero_st),)


@st.composite
def exponents(draw):
    """(alpha, beta): each real (an mpf or an int 0) or complex, Re alpha <
    0."""
    a = draw(st.floats(min_value=0.05, max_value=3.0))
    b = draw(st.floats(min_value=-4.0, max_value=4.0))
    alpha = draw(st.sampled_from((
        mp.mpf(-a), mp.mpc(-a, draw(st.floats(min_value=-4, max_value=4))))))
    beta = draw(st.sampled_from((
        0, mp.mpf(b), mp.mpc(b, draw(st.floats(min_value=-4, max_value=4))))))
    return alpha, beta


@settings(max_examples=80)
@given(exponents(), st.sampled_from((1, -1)), frac_st, polys(),
       st.sampled_from((53, 64, 128, 256)))
def test_fixed_point_loop_against_mpmath_loop(ab, sign, r, poly, prec):
    alpha, beta = ab
    with mp.workprec(prec + _GUARD_BITS):
        value, cert = certified_gaussian_sum(alpha, beta, r, sign, poly, prec)
        want, want_cert = gaussian_sum_loop(alpha, beta, r, sign, poly, prec)
    assert (cert.nodes, cert.h, cert.X) == (want_cert.nodes, want_cert.h,
                                            want_cert.X)
    assert type(value) is type(want)
    assert abs(value - want) <= cert.bound + want_cert.bound
    assert cert.bound <= mp.mpf(2) ** -(prec + _GUARD_BITS - 2)


@pytest.mark.parametrize("alpha,beta,r", [
    (mp.mpf(-0.5), 0, Fraction(-30)),  # |E_0| = e^-450 below a peak of 1
    (mp.mpf(-0.002), mp.mpf(0.8), Fraction(1, 2)),  # peak 200 terms on
    (mp.mpc(-11, 3), mp.mpc(22, -1), Fraction(-3, 4)),  # |R_0| = e^27.5
])
def test_loop_precision_follows_the_largest_term(alpha, beta, r):
    # the loop starts at n = 0, left of the peak G = e^{b^2/(4a)} of
    # |e^{alpha x^2 + beta x}|; its bits must follow G, N^3 and |1/Q| =
    # e^{2a}, not the rise from the first term to the peak
    prec = 64
    with mp.workprec(prec + _GUARD_BITS):
        value, cert = certified_gaussian_sum(alpha, beta, r, 1, (1,), prec)
        want, want_cert = gaussian_sum_loop(alpha, beta, r, 1, (1,), prec)
    a, b = -float(mp.re(alpha)), float(mp.re(beta))
    assert cert.prec <= (prec + _GUARD_BITS + 8 + 3 * math.log2(cert.nodes)
                         + (b * b / (4 * a) + 2 * a) / math.log(2))
    assert abs(value - want) <= cert.bound + want_cert.bound


def test_term_loop_calls_no_polyval(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mp.polyval called")

    monkeypatch.setattr(mp, "polyval", refuse)
    for alpha, beta, r, sign, poly in CASES:
        certified_gaussian_sum(alpha, beta, r, sign, poly, 128)


# (alpha, beta, r, sign, poly) next to CASES for the interval oracle: one
# half of theta at tau = 0.1 + i, z = 0.3 + 0.2i, and an H-shaped sum (ell = 4,
# s = 3, tau = 0.1 + 0.5i) with a complex polynomial of degree 4
with mp.workprec(128 + _GUARD_BITS):
    _TAU, _Z = mp.mpc(0.1, 1), mp.mpc(0.3, 0.2)
    INTERVAL_CASES = CASES + [
        (mp.pi * 1j * _TAU, 2j * mp.pi * (_Z + mp.mpf(1) / 2), Fraction(1, 2),
         1, (1,)),
        (4 * mp.pi * 1j * mp.mpc(0.1, 0.5), 0, Fraction(-1, 4), 1,
         (mp.mpc(0.3, -1.2), mp.mpc(-2, 0.5), mp.mpc(0.7, 0.1), 0,
          mp.mpc(0.05, -0.4))),
    ]


def _iv(x):
    """x as an mp.iv interval, real or complex."""
    if isinstance(x, mp.mpc):
        return mp.iv.mpc(x.real, x.imag)
    return mp.iv.mpf(x)


def _ends(box):
    """The (lo, hi) ends, as mpfs, of the real and the imaginary part of an
    mp.iv number."""
    return [tuple(mp.make_mpf(e) for e in mp.iv.mpf(part)._mpi_)
            for part in (box.real, box.imag)]


def _tail(alpha, beta, r, poly, N):
    """The tail bound T = B_N/(1 - rho_N) of certified_gaussian_sum's
    docstring, at the working precision."""
    a, b, x = -mp.re(alpha), mp.re(beta), N + fraction_mpf(Fraction(r))
    d = len(poly) - 1
    B = mp.polyval([abs(c) for c in poly[::-1]], x) * mp.exp(-a * x * x + b * x)
    rho = (1 + 1 / x) ** d * mp.exp(-a * (2 * x + 1) + b)
    return B / (1 - rho)


@pytest.mark.parametrize("case", INTERVAL_CASES)
def test_rounding_part_against_interval_enclosure(case):
    # the N-term sum enclosed from the exact inputs, term by term, by one
    # interval exp each; the kernel's value must lie within the rounding part
    # of its certificate, bound - 2 T, of the enclosure
    alpha, beta, r, sign, poly = case
    prec = 128
    with mp.workprec(prec + _GUARD_BITS):
        value, cert = certified_gaussian_sum(alpha, beta, r, sign, poly, prec)
    saved = mp.iv.prec
    mp.iv.prec = cert.prec + 40
    try:
        A, B, coeffs = _iv(alpha), _iv(beta), [_iv(c) for c in poly[::-1]]
        total = mp.iv.mpf(0)
        for n in range(cert.nodes):
            x = mp.iv.mpf((n + r).numerator) / (n + r).denominator
            P = coeffs[0]
            for c in coeffs[1:]:
                P = P * x + c
            total += sign ** n * P * mp.iv.exp((A * x + B) * x)
    finally:
        mp.iv.prec = saved
    with mp.workprec(cert.prec + 40):
        rounding = cert.bound - 2 * _tail(alpha, beta, r, poly, cert.nodes)
        assert mp.mpf(0) < rounding
        value, ends = mp.mpc(value), _ends(total)
        assert mp.hypot(*(max(lo - v, v - hi, 0) for v, (lo, hi) in
                          zip((value.real, value.imag), ends))) <= rounding
        assert mp.hypot(*(hi - lo for lo, hi in ends)) < rounding / 1000


@pytest.mark.parametrize("sign", (2, 0, mp.mpf("0.5"), -3))
def test_sign_other_than_plus_or_minus_one_raises(sign):
    # sign 2 once returned an error of 1.6e-17 against a bound of 4.1e-27
    with pytest.raises(ValueError, match="sign"):
        certified_gaussian_sum(mp.mpf(-0.05), 0, Fraction(1, 2), sign, (1,),
                               64)


def test_empty_poly_raises():
    with pytest.raises(ValueError, match="coefficient"):
        certified_gaussian_sum(-mp.pi, 0, Fraction(1, 2), 1, (), 64)


@pytest.mark.parametrize("alpha,poly,zero", [
    (-mp.pi, (0,), mp.mpf(0)),
    (mp.mpc(-1, 2), (0, 0, mp.mpc(0)), mp.mpc(0)),
])
def test_zero_poly_sums_to_an_exact_zero(alpha, poly, zero):
    value, cert = certified_gaussian_sum(alpha, 0, Fraction(1, 3), -1, poly,
                                         64)
    assert value == 0 and type(value) is type(zero)
    assert cert.bound == 0 and cert.nodes == 0


# ------------------------------------------------------------------ the radius


def gaussian_drift(alpha, beta, r, N: int, d_alpha: float, d_beta: float,
                   poly=(1,)):
    """To first order, how far sum_{n<N} P(x_n) e^{alpha x_n^2 + beta x_n},
    x_n = n + r, moves when alpha and beta move by at most d_alpha and
    d_beta: the term at x by (d_alpha x^2 + d_beta |x|) Pbar(|x|) times its
    modulus.  Summed in doubles over moduli scaled by 2^-k, 2^k the largest
    power of 2 below the largest modulus, so that nothing overflows, and
    returned as an mpf.  For P = 1 (the weight Pbar is then 1.0) this is
    the drift function theta's and partial theta's certificates used before
    certified_gaussian_sum took a radius, bit for bit."""
    a, b, rf = float(mp.re(alpha)), float(mp.re(beta)), float(r)
    abs_coeffs = [float(abs(c)) for c in poly]
    logs = [(a * (n + rf) + b) * (n + rf) for n in range(N)]
    k = math.floor(max(logs, default=0.0) / math.log(2))
    s1 = s2 = 0.0
    for n, lg in enumerate(logs):
        w = abs(n + rf) * math.exp(lg - k * math.log(2))
        w *= sum(c * abs(n + rf) ** j for j, c in enumerate(abs_coeffs))
        s1, s2 = s1 + w, s2 + w * abs(n + rf)
    return mp.ldexp(d_alpha * s2 + d_beta * s1, k)


def theta_halves(z, tau, prec):
    """(theta, alpha, beta, Certificate of x = n + 1/2, of x = -n - 1/2):
    theta's two Gaussian sums as its public function summed them."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        alpha = mp.pi * 1j * tau
        beta = 2j * mp.pi * (z + mp.mpf(1) / 2)
        half = Fraction(1, 2)
        plus, c1 = certified_gaussian_sum(alpha, beta, half, 1, (1,), prec)
        minus, c2 = certified_gaussian_sum(alpha, -beta, half, 1, (1,), prec)
        return plus + minus, alpha, beta, c1, c2


def partial_theta_sum(params, z, tau, prec):
    """(partial_theta, alpha, beta, r, Certificate): its Gaussian sum as its
    public function summed it."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        M = fraction_mpf(params.M)
        alpha, beta = 2j * mp.pi * tau * M, 4j * mp.pi * M * z
        r = -params.r / (2 * params.M)
        value, cert = certified_gaussian_sum(
            alpha, beta, r, (-1) ** params.epsilon, (1,), prec)
        return value, alpha, beta, r, cert


radius_st = st.tuples(st.floats(min_value=0, max_value=1e9),
                      st.floats(min_value=0, max_value=1e9))
prec_st = st.integers(53, 256)


@settings(max_examples=60)
@given(exponents(), st.sampled_from((1, -1)), frac_st, polys(), prec_st,
       radius_st)
def test_radius_adds_the_doubled_drift(ab, sign, r, poly, prec, radius):
    alpha, beta = ab
    poly = poly[:5]  # degree 0 to 4
    with mp.workprec(prec + _GUARD_BITS):
        value, cert = certified_gaussian_sum(alpha, beta, r, sign, poly, prec,
                                             radius)
        plain, plain_cert = certified_gaussian_sum(alpha, beta, r, sign, poly,
                                                   prec)
        drift = gaussian_drift(alpha, beta, r, cert.nodes, *radius, poly)
        want = plain_cert.bound + mp.ldexp(2 * drift, 1 - prec - _GUARD_BITS)
    assert value == plain and cert.nodes == plain_cert.nodes
    assert cert.bound == want


@settings(max_examples=40)
@given(tau_z(), prec_st, radius_st)
def test_theta_core_against_its_old_layers(point, prec, radius):
    tau, z = point
    dz, dtau = radius
    old, alpha, beta, c1, c2 = theta_halves(z, tau, prec)
    assert theta(z, tau, prec) == old
    value, cert = _theta_cert(z, tau, prec, dz, dtau)
    d_alpha = math.pi * (dtau + 2 * abs(complex(tau)))
    d_beta = 2 * math.pi * (dz + 2 * abs(complex(z) + 0.5))
    with mp.workprec(prec + _GUARD_BITS):
        drift = sum(gaussian_drift(alpha, b, Fraction(1, 2), c.nodes,
                                   d_alpha, d_beta)
                    for b, c in ((beta, c1), (-beta, c2)))
        want = c1.bound + c2.bound + mp.ldexp(abs(old) + 2 * drift,
                                              1 - prec - _GUARD_BITS)
        # the same parts, summed in another order
        assert abs(cert.bound - want) <= mp.ldexp(want, 3 - prec - _GUARD_BITS)
    assert value == old and cert.nodes == c1.nodes + c2.nodes


@settings(max_examples=40)
@given(tau_z(), frac_st, st.sampled_from((0, 1)),
       st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2), 2)),
       prec_st, st.floats(min_value=0, max_value=1e9))
def test_partial_theta_core_against_its_old_layers(point, r, eps, M, prec,
                                                   dtau):
    tau, z = point
    params = PartialThetaParams(r, eps, M)
    old, alpha, beta, x0, old_cert = partial_theta_sum(params, z, tau, prec)
    assert partial_theta(params, z, tau, prec) == old
    value, cert = _partial_theta_cert(params, z, tau, prec, dtau)
    drift = gaussian_drift(alpha, beta, x0, old_cert.nodes,
                           2 * math.pi * M * (dtau + 3 * abs(complex(tau))),
                           12 * math.pi * M * abs(complex(z)))
    with mp.workprec(prec + _GUARD_BITS):
        want = old_cert.bound + mp.ldexp(2 * drift, 1 - prec - _GUARD_BITS)
    assert value == old and cert.nodes == old_cert.nodes
    assert cert.bound == want


# moves of alpha and beta, as (phase of alpha's, phase of beta's) in units
# of pi: the first two move every term of a positive sum the same way
DIRECTIONS = ((0, 0), (1, 1), (0.5, -0.5), (1 / 3, 1.2))


@settings(max_examples=30)
@example(ab=(mp.mpf(-1), mp.mpf(0.5)), sign=1, r=Fraction(1, 2), poly=(1,),
         prec=53, size=-12)
@example(ab=(mp.mpf(-0.3), 0), sign=1, r=Fraction(-2), poly=(1, 2, 0, 1),
         prec=128, size=-16)
@given(exponents(), st.sampled_from((1, -1)), frac_st, polys(), prec_st,
       st.integers(-40, -12))
def test_radius_holds(ab, sign, r, poly, prec, size):
    # alpha and beta moved by 2^size, up to their radius in each direction:
    # the sum at 200 more bits stays within the unmoved call's bound
    alpha, beta = ab
    poly = poly[:5]
    u = 2.0 ** (1 - prec - _GUARD_BITS)
    radius = (2.0 ** size / u, 2.0 ** size / u)
    with mp.workprec(prec + _GUARD_BITS):
        value, cert = certified_gaussian_sum(alpha, beta, r, sign, poly, prec,
                                             radius)
    with mp.workprec(prec + 200 + _GUARD_BITS):
        step = mp.ldexp(1, size)
        for pa, pb in DIRECTIONS:
            fine, fine_cert = certified_gaussian_sum(
                alpha + step * mp.expjpi(pa), beta + step * mp.expjpi(pb), r,
                sign, poly, prec + 200)
            assert abs(value - fine) <= cert.bound + fine_cert.bound
