import random
from fractions import Fraction
from functools import partial
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qchar import (characters, decomposition, modular_objects,
                   modular_transform, partial_theta)
from qchar.certified import (_GUARD_BITS, InputError, NearPoleError,
                             certified_gaussian_sum, fixed_div, fixed_mul,
                             from_fixed, to_fixed)
from qchar.exact_series import ExactQSeries, euler_product
from qchar.modular_objects import (_tol, cexp, divisor_sigma_list,
                                   eisenstein_G2k, eta, euler_phi_numeric,
                                   g_ell, ghat_qseries, ghat_value,
                                   laurent_coefficients_D, theta)

PREC = 128
TOL = mp.mpf(2) ** (-PREC + 20)


def D_values(ell, tau, prec):
    """[D_{-1}(tau), ..., D_{-ell}(tau)], the phase (-i)^ell included."""
    with mp.workprec(prec + _GUARD_BITS):
        E = laurent_coefficients_D(
            ell, partial(ghat_value, tau=tau, prec=prec), mp.mpc(1))
        return [(-1j) ** ell * e for e in E]


def theta_product(z, tau, prec):
    """Triple-product route to theta, the oracle of its Gaussian sum:
    -i q^{1/8} zeta^{-1/2} (q)(zeta)(zeta^{-1}q), the Pochhammer symbols
    from mpmath's qp."""
    with mp.workprec(prec + _GUARD_BITS):
        tol = _tol(prec)
        q = cexp(tau)
        zeta = cexp(z)
        return (-1j * cexp(tau / 8) * cexp(-z / 2)
                * euler_phi_numeric(q, tol)
                * mp.qp(zeta, q) * mp.qp(q / zeta, q))


def eta_qseries(trunc):
    """Exact series q^{1/24} prod (1-q^n), on the 1/24 lattice: the oracle
    of the numeric eta and (q)_inf."""
    return euler_product(trunc).shift(Fraction(1, 24))


def random_tau_z(rng):
    tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.6))
    z = mp.mpc(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
    return tau, z


def test_divisor_sigma():
    assert divisor_sigma_list(1, 6) == [0, 1, 3, 4, 7, 6, 12]
    assert divisor_sigma_list(3, 4) == [0, 1, 9, 28, 73]


def test_theta_sum_equals_product():
    rng = random.Random(7)
    with mp.workprec(PREC + 16):
        for _ in range(20):
            tau, z = random_tau_z(rng)
            a = theta(z, tau, PREC)
            b = theta_product(z, tau, PREC)
            assert abs(a - b) <= TOL * max(1, abs(a))


def test_theta_functional_equations():
    rng = random.Random(11)
    with mp.workprec(PREC + 16):
        for _ in range(8):
            tau, z = random_tau_z(rng)
            t0 = theta(z, tau, PREC)
            assert abs(theta(z + 1, tau, PREC) + t0) <= TOL
            shift = -cexp(-tau / 2 - z) * t0
            assert abs(theta(z + tau, tau, PREC) - shift) <= \
                TOL * max(1, abs(shift))
            assert abs(theta(-z, tau, PREC) + t0) <= TOL
        assert abs(theta(mp.mpc(0), mp.mpc(0, 1), PREC)) <= TOL


def theta_error_bound(z, tau, prec):
    """A bound on |theta(z, tau, prec) - theta(z, tau)|: the certificates of
    its two Gaussian sums, plus, to first order and doubled, what rounding
    alpha = pi i tau and beta = 2 pi i (z + 1/2) at prec + _GUARD_BITS bits
    moves their terms by (the term at x by (x^2 |alpha| + x |beta|) u, u =
    2^(1 - prec - _GUARD_BITS)), plus the rounding of their sum."""
    with mp.workprec(prec + _GUARD_BITS):
        alpha = mp.pi * 1j * tau
        beta = 2j * mp.pi * (z + mp.mpf(1) / 2)
        u = mp.mpf(2) ** (1 - prec - _GUARD_BITS)
        total = mp.mpf(0)
        for sgn in (1, -1):
            value, cert = certified_gaussian_sum(alpha, sgn * beta,
                                                 Fraction(1, 2), 1, (1,),
                                                 prec)
            total += cert.bound + abs(value) * u
            for n in range(cert.nodes):
                x = n + mp.mpf(1) / 2
                total += 2 * u * (x * x * abs(alpha) + x * abs(beta)) \
                    * abs(mp.exp(alpha * x * x + sgn * beta * x))
        return total


def test_theta_quasi_periodicity_within_certificates():
    # theta(z + 1) = -theta(z) and theta(z + tau) = -q^{-1/2} e^{-2 pi i z}
    # theta(z): exact identities, so the residuals are the two sides' errors
    rng = random.Random(29)
    with mp.workprec(PREC + 64):
        for _ in range(12):
            tau, z = random_tau_z(rng)
            t0 = theta(z, tau, PREC)
            b0 = theta_error_bound(z, tau, PREC)
            assert abs(theta(z + 1, tau, PREC) + t0) <= \
                theta_error_bound(z + 1, tau, PREC) + b0
            factor = -cexp(-tau / 2 - z)
            shifted = factor * t0
            assert abs(theta(z + tau, tau, PREC) - shifted) <= \
                theta_error_bound(z + tau, tau, PREC) + abs(factor) * b0 \
                + abs(shifted) * mp.mpf(2) ** -(PREC + _GUARD_BITS)


def test_eta_special_value_and_laws():
    with mp.workprec(PREC + 16):
        i = mp.mpc(0, 1)
        want = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf("0.75"))
        assert abs(eta(i, PREC) - want) <= TOL
        rng = random.Random(3)
        for _ in range(5):
            tau, _ = random_tau_z(rng)
            e = eta(tau, PREC)
            assert abs(eta(tau + 1, PREC) - cexp(Fraction(1, 24)) * e) <= \
                TOL * abs(e)
            assert abs(eta(-1 / tau, PREC) - mp.sqrt(-1j * tau) * e) <= \
                TOL * abs(e)


def test_eta_qseries_matches_value():
    with mp.workprec(PREC + 16):
        tau = mp.mpc("0.13", "1.1")
        q = cexp(tau)
        series = eta_qseries(60)
        val = sum((mp.mpf(c.numerator) / c.denominator
                   * cexp(tau * mp.mpf(e.numerator) / e.denominator)
                   for e, c in series.terms()), mp.mpc(0))
        assert abs(val - eta(tau, PREC)) <= mp.mpf("1e-25") * abs(val)
        assert abs(q) ** 60 < mp.mpf("1e-25")


def test_eisenstein_modularity():
    with mp.workprec(PREC + 16):
        rng = random.Random(19)
        for _ in range(4):
            tau, _ = random_tau_z(rng)
            for k in (2, 3, 4):
                lhs = eisenstein_G2k(k, -1 / tau, PREC)
                rhs = tau ** (2 * k) * eisenstein_G2k(k, tau, PREC)
                assert abs(lhs - rhs) <= TOL * max(1, abs(rhs))
            # weight-2 anomaly
            lhs = eisenstein_G2k(1, -1 / tau, PREC)
            rhs = tau ** 2 * eisenstein_G2k(1, tau, PREC) - 2j * mp.pi * tau
            assert abs(lhs - rhs) <= TOL * max(1, abs(rhs))


def test_eisenstein_small_imaginary_part():
    # values far below Im tau = 1/2 route through the S-transform
    with mp.workprec(PREC + 16):
        tau = mp.mpc("0.02", "0.05")
        lhs = eisenstein_G2k(2, tau, PREC)
        rhs = tau ** (-4) * eisenstein_G2k(2, -1 / tau, PREC)
        assert abs(lhs - rhs) <= TOL * abs(lhs)


def test_eisenstein_sums_at_tau_when_the_S_step_loses(monkeypatch):
    # at tau - 2 = 0.4 + 0.95i, Im(-1/(tau - 2)) = 0.89 < Im tau: the series
    # is summed at tau - 2 itself (36 terms for k = 2 at 256 bits, against
    # 38 at -1/(tau - 2) and 250 at -1/tau), and meets the series summed at
    # -1/tau at 600 bits
    tau = mp.mpc("2.4", "0.95")
    series = modular_objects._G2k_series_value
    at = []

    def recorded(k, t, prec):
        at.append(t)
        return series(k, t, prec)

    monkeypatch.setattr(modular_objects, "_G2k_series_value", recorded)
    for k in (1, 2, 3):
        got = eisenstein_G2k(k, tau, 256)
        with mp.workprec(600 + _GUARD_BITS):
            want = tau ** (-2 * k) * series(k, -1 / tau, 600)
            if k == 1:
                want += 2j * mp.pi / tau
        assert at.pop() == tau - 2 and not at
        assert abs(got - want) <= mp.mpf(2) ** -256 * abs(want)


def test_eisenstein_T_step(monkeypatch):
    # the terms are planned at tau - round(Re tau): at 1 + 0.02i that is
    # one S step to 50i and 0 terms, where the series summed at tau itself
    # takes 1,011 (k = 1) or 1,140 (k = 2) at prec 128; the value meets
    # that series summed at 600 bits
    planned = []
    terms = modular_objects._G2k_terms

    def recorded(k, t, prec):
        planned.append(terms(k, t, prec))
        return planned[-1]

    monkeypatch.setattr(modular_objects, "_G2k_terms", recorded)
    for k in (1, 2):
        for tau in (mp.mpc(1, "0.02"), mp.mpc(5, "0.02"), mp.mpc(-3, "0.3")):
            got = eisenstein_G2k(k, tau, PREC)
            at_tau = planned.pop()
            eisenstein_G2k(k, tau - round(mp.re(tau)), PREC)
            assert at_tau <= planned.pop()
            with mp.workprec(600 + _GUARD_BITS):
                want = modular_objects._G2k_series_value(k, tau, 600)
            assert abs(got - want) <= mp.mpf(2) ** -PREC * abs(want)


def test_ghat_qseries_matches_value():
    with mp.workprec(PREC + 16):
        tau = mp.mpc("0.07", "1.3")
        for k2 in (2, 4, 6):
            series = ghat_qseries(k2, 50)
            val = sum((mp.mpf(c.numerator) / c.denominator * cexp(tau * e)
                       for e, c in series.terms()), mp.mpc(0))
            ref = ghat_value(k2, tau, PREC)
            assert abs(val - ref) <= mp.mpf("1e-25") * max(1, abs(ref))


def test_laurent_coefficients_by_contour():
    # extract D_{-j} from g_ell by a small-circle contour integral
    prec = 96
    with mp.workprec(prec + 16):
        tau = mp.mpc("0.1", "0.9")
        r = mp.mpf("0.05")
        N = 256
        zs = [r * cexp(mp.mpf(k) / N) for k in range(N)]
        for ell in (2, 3, 4, 5):
            D = D_values(ell, tau, prec)
            gs = [g_ell(z, tau, ell, prec) for z in zs]
            for j in range(1, ell + 1):
                nodes = [g * z ** j for g, z in zip(gs, zs)]
                got = (2j * mp.pi) ** j * mp.fsum(
                    [mp.re(x) for x in nodes]) / N \
                    + 1j * (2j * mp.pi) ** j * mp.fsum(
                    [mp.im(x) for x in nodes]) / N
                want = D[j - 1]
                if (ell - j) % 2:
                    assert abs(got) < mp.mpf("1e-15")
                else:
                    assert abs(got - want) <= mp.mpf("1e-15") * \
                        max(1, abs(want))


def test_D_weight_and_parity_bookkeeping():
    # weight ell - j: scaling each Ghat_{k2} by lam^{k2} scales D_{-j} by
    # lam^{ell - j}, checked exactly in the rationals
    ghat = {k2: Fraction(3 - k2 * k2, 7 + k2) for k2 in range(2, 8, 2)}
    lam = Fraction(-5, 3)
    for ell in range(1, 9):
        D = laurent_coefficients_D(ell, ghat.get, Fraction(1))
        scaled = laurent_coefficients_D(
            ell, lambda k2: lam ** k2 * ghat[k2], Fraction(1))
        assert len(D) == len(scaled) == ell
        for j in range(1, ell + 1):
            assert scaled[j - 1] == lam ** (ell - j) * D[j - 1]
            if (ell - j) % 2:
                assert D[j - 1] == 0
    # D_{-ell} is the pure constant (-i)^ell
    assert D_values(3, mp.mpc(0, 1), 64)[2] == pytest.approx((-1j) ** 3)


def test_D_growth_law():
    # |D_{-j}(i t/(2 pi))| stays bounded by a power law t^{j - ell} as t -> 0
    prec = 96
    with mp.workprec(prec + 16):
        ell = 5
        for j in (1, 3, 5):
            vals = []
            for t in (mp.mpf("0.2"), mp.mpf("0.1")):
                tau = 1j * t / (2 * mp.pi)
                vals.append(abs(D_values(ell, tau, prec)[j - 1]))
            order = mp.log(vals[0] / vals[1]) / mp.log(2)
            assert order >= (j - ell) - mp.mpf("0.5")


# The monomial expansion the recurrence replaced: [u^m] exp(A(u)) with
# A(u) = ell sum_k Ghat_{2k} u^{2k}/(2k), summed as sum_p A^p/p!, each
# coefficient a {monomial: rational} dict and a monomial a sorted tuple of
# (k2, multiplicity) pairs.

def _mono_mul(a, b):
    d = dict(a)
    for k2, m in b:
        d[k2] = d.get(k2, 0) + m
    return tuple(sorted(d.items()))


def monomial_expansion(ell):
    """[E_0, ..., E_{ell-1}], E_m = [u^m] exp(A(u)) as monomial dicts."""
    A = {k2: {((k2, 1),): Fraction(ell, k2)} for k2 in range(2, ell, 2)}
    E = [{} for _ in range(ell)]
    E[0] = {(): Fraction(1)}
    power = {0: {(): Fraction(1)}}  # A^p by u-degree
    for p in range(1, ell):
        nxt = {}
        for i, layer in power.items():
            for k2, term in A.items():
                if i + k2 >= ell:
                    continue
                tgt = nxt.setdefault(i + k2, {})
                for m1, c1 in layer.items():
                    for m2, c2 in term.items():
                        mono = _mono_mul(m1, m2)
                        tgt[mono] = tgt.get(mono, 0) + c1 * c2
        power = nxt
        for i, layer in power.items():
            for mono, c in layer.items():
                E[i][mono] = E[i].get(mono, 0) + c / factorial(p)
    return E


def expand_monomials(poly, ghat, one):
    acc = one * 0
    for mono, c in sorted(poly.items()):
        term = one * c
        for k2, m in mono:
            term = term * ghat(k2) ** m
        acc = acc + term
    return acc


@settings(max_examples=40)
@given(st.integers(1, 8), st.integers(1, 60))
def test_recurrence_matches_monomial_expansion_series(ell, T):
    one = ExactQSeries.one(T)
    ghat = partial(ghat_qseries, trunc=T)
    got = laurent_coefficients_D(ell, ghat, one)
    E = monomial_expansion(ell)
    for j in range(1, ell + 1):
        want = expand_monomials(E[ell - j], ghat, one)
        assert got[j - 1].trunc == want.trunc == T
        assert got[j - 1].coeffs == want.coeffs


@settings(max_examples=20)
@given(st.integers(1, 8), st.floats(-0.5, 0.5), st.floats(0.3, 1.6))
def test_recurrence_matches_monomial_expansion_values(ell, x, y):
    tau = mp.mpc(x, y)
    with mp.workprec(PREC + _GUARD_BITS):
        ghat = partial(ghat_value, tau=tau, prec=PREC)
        got = laurent_coefficients_D(ell, ghat, mp.mpc(1))
        E = monomial_expansion(ell)
        for j in range(1, ell + 1):
            want = expand_monomials(E[ell - j], ghat, mp.mpc(1))
            assert abs(got[j - 1] - want) <= TOL * max(1, abs(want))


def test_g_ell_near_pole_raises():
    with pytest.raises(NearPoleError):
        g_ell(mp.mpc(0), mp.mpc(0, 1), 3, 64)


def test_g_ell_guard_scales_with_theta_slope():
    # at tau = 0.01i, |theta(z)| = 3.8e-21 is far below 2^-(prec // 2) at a
    # z far from the lattice, because |eta|^3 is tiny; g_ell evaluates it
    z, tau = mp.mpc("0.104", "-0.0014"), mp.mpc(0, "0.01")
    th = theta(z, tau, 64)
    assert abs(th) < mp.mpf(2) ** -32
    got = g_ell(z, tau, 3, 64)
    want = eta(tau, 64) ** 9 / th ** 3
    assert abs(got - want) <= mp.mpf(2) ** -50 * abs(want)


def test_euler_phi_and_qpoch():
    with mp.workprec(PREC + 16):
        q = mp.mpf("0.3")
        tol = mp.mpf(2) ** (-PREC)
        phi = euler_phi_numeric(q, tol)
        series = eta_qseries(120)
        # eta q-series without its q^{1/24} prefactor is (q)_inf
        val = sum((mp.mpf(c.numerator) / c.denominator
                   * q ** (mp.mpf(e.numerator) / e.denominator
                           - mp.mpf(1) / 24)
                   for e, c in series.terms()), mp.mpf(0))
        assert abs(phi - val) <= mp.mpf("1e-25")
        assert abs(mp.qp(q, q) - phi) <= tol * 10


_parts = st.floats(-4, 4, allow_nan=False, allow_infinity=False)


@settings(max_examples=40)
@given(_parts, _parts, _parts, _parts, st.sampled_from((64, 200, 300)))
def test_fixed_point_helpers_against_mpc(xr, xi, yr, yi, wp):
    # every result within sqrt(2) 2^-wp of the exact value of its integer
    # inputs, checked in mpc arithmetic 64 bits finer
    with mp.workprec(wp + 64):
        # sqrt(2) ulps, and the rounding of this check's own mpc arithmetic
        err = mp.sqrt(2) * mp.mpf(2) ** -wp * (1 + mp.mpf(2) ** -32)
        x, y = mp.mpc(xr, xi), mp.mpc(yr, yi)
        X, Y = to_fixed(x, wp), to_fixed(y, wp)
        assert abs(from_fixed(X, wp) - x) <= err
        assert X[0] <= xr * 2 ** wp < X[0] + 1
        fx, fy = from_fixed(X, wp), from_fixed(Y, wp)
        assert abs(from_fixed(fixed_mul(X, Y, wp), wp) - fx * fy) <= err
        if abs(fy) > 1e-3:
            assert abs(from_fixed(fixed_div(X, Y, wp), wp) - fx / fy) \
                <= err


_P = partial_theta.PartialThetaParams(0, 1, 1)
_Z = mp.mpc(0.1, 0.1)
_TAU_ENTRY_POINTS = {
    "theta": lambda tau: theta(0.1, tau, 64),
    "eta": lambda tau: eta(tau, 64),
    "eisenstein_G2k": lambda tau: eisenstein_G2k(2, tau, 64),
    "ghat_value": lambda tau: ghat_value(4, tau, 64),
    "g_ell": lambda tau: g_ell(0.1, tau, 3, 64),
    "partial_theta": lambda tau: partial_theta.partial_theta(_P, 0.1, tau,
                                                             64),
    "H_value": lambda tau: characters.H_value(3, 1, tau, 64),
    "fourier_quadrature": lambda tau: characters.fourier_quadrature(
        3, 1, tau, prec=64),
    "fourier_coeff_by_quadrature":
        lambda tau: characters.fourier_coeff_by_quadrature(3, 1, tau,
                                                           prec=64),
    "MultivarPoint": lambda tau: decomposition.MultivarPoint((0.1j,), tau,
                                                             64),
    "F_ell_product": lambda tau: decomposition.F_ell_product(
        [0.1j, -0.1j], tau, 64),
    "random_admissible_point": lambda tau:
        decomposition.random_admissible_point(3, tau, random.Random(1), 64),
    "mordell_integral": lambda tau: modular_transform.mordell_integral(
        _P, _Z, tau, 0, modular_transform.S_MATRIX, 64),
    "verify_general_transform":
        lambda tau: modular_transform.verify_general_transform(
            _P, _Z, tau, modular_transform.S_MATRIX, 64),
    "verify_S_transform": lambda tau: modular_transform.verify_S_transform(
        3, 1, _Z, tau, 64),
    "half_index_identity_check":
        lambda tau: modular_transform.half_index_identity_check(0.1, tau, 64),
}


@pytest.mark.parametrize("tau", [mp.mpc(0, -1), mp.mpc(0.5, 0)])
@pytest.mark.parametrize("name", sorted(_TAU_ENTRY_POINTS))
def test_numeric_entry_points_refuse_tau_off_the_upper_half_plane(name, tau):
    with pytest.raises(InputError,
                       match="tau must lie in the upper half-plane"):
        _TAU_ENTRY_POINTS[name](tau)
