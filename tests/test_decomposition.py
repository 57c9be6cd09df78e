import importlib
import math
import pkgutil
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

import qchar
from qchar import certified, modular_objects, partial_theta
from qchar.certified import (_GUARD_BITS, NearPoleError, _coefficient_degree,
                             _coefficient_weight, _node_error,
                             _pair_coefficients, _pair_count, _pair_sum,
                             euler_phi, from_fixed, log_pair_lower)
from qchar.characters import fourier_coeff_by_quadrature, fourier_quadrature
from qchar.decomposition import (DegenerateWVectorError, F_ell_product,
                                 F_ls_decomposed, F_ls_multivar_quadrature,
                                 MultivarPoint, multivar_quadrature,
                                 random_admissible_point)
from qchar.modular_objects import _tol, cexp, eta, euler_phi_numeric, theta

PREC = 128


def F_ell_product_by_theta(zs_full, tau, prec):
    """The product by the triple product, (q)_inf prod_j 1/P(Z_j) with
    P(Z_j) = i q^{-1/8} e^{pi i x_j} theta(x_j)/(q)_inf, x_j = z_j + ... +
    z_ell: a reference that shares nothing with the pair kernel."""
    with mp.workprec(prec + _GUARD_BITS):
        phi = euler_phi_numeric(cexp(tau), _tol(prec))
        val = phi
        for j in range(len(zs_full)):
            x = sum(zs_full[j:], mp.mpc(0))
            val *= phi / (1j * cexp((4 * x - tau) / 8) * theta(x, tau, prec))
        return val


def periodic_trapezoid(f, N: int):
    """Mean of the 1-periodic f over [0, 1) by the trapezoid rule on the N
    nodes k/N, summed by one fsum: the doubled-rule test's reference rule."""
    return mp.fsum(f(mp.mpf(k) / N) for k in range(N)) / N


def strip_top(pt):
    """c_max = Im tau + min_j Im w_j, the top of the contour strip (0,
    c_max) for Im z_ell, at the point's working precision."""
    with mp.workprec(pt.prec + _GUARD_BITS):
        return mp.im(pt.tau) + min(mp.im(w) for w in pt.ws)


def fixture_point(ell=3, tau=None, prec=PREC):
    rng = random.Random(101)
    if tau is None:
        tau = mp.mpc(0, 1)
    return random_admissible_point(ell, tau, rng, prec)


def test_point_admissibility_enforced():
    tau = mp.mpc(0, 1)
    with pytest.raises(ValueError):
        MultivarPoint((mp.mpc("0.1", "0.5"), mp.mpc("0.1", "0.1")), tau, PREC)
    with pytest.raises(ValueError):
        MultivarPoint((mp.mpc("0.1", "-0.05"), mp.mpc("0.1", "0.1")), tau,
                      PREC)


def test_degenerate_w_vector_raises():
    # Im z_1 barely positive puts w_1 - w_2 = -z_1 at a theta zero: the
    # point is admissible, and the residue sum, which divides by
    # theta(w_1 - w_2), refuses it
    tau = mp.mpc(0, 1)
    pt = MultivarPoint((mp.mpc(0, mp.mpf("1e-30")), mp.mpc("0.1", "0.1")),
                       tau, PREC)
    with pytest.raises(DegenerateWVectorError, match="w_1 and w_2 collide"):
        F_ls_decomposed(3, 0, pt, PREC)


def _rebind(monkeypatch, replacements):
    """In every qchar module, rebind each name bound to a function whose id
    ``replacements`` maps to a replacement."""
    for info in pkgutil.iter_modules(qchar.__path__):
        module = importlib.import_module(f"qchar.{info.name}")
        for key, value in list(vars(module).items()):
            if id(value) in replacements:
                monkeypatch.setattr(module, key, replacements[id(value)])


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_theta_once_per_pair_and_none_for_the_point(monkeypatch, ell):
    # theta is odd, so the residue sum needs theta(w_a - w_b) for a < b only;
    # the sampler and the point evaluate none
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return theta(*args, **kwargs)

    _rebind(monkeypatch, {id(theta): counted})
    pt = random_admissible_point(ell, mp.mpc("0.1", "1.1"),
                                 random.Random(ell), PREC)
    assert calls == []
    F_ls_decomposed(ell, 1, pt, PREC)
    assert len(calls) == ell * (ell - 1) // 2


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_sampler_takes_one_draw(ell):
    # every draw is admissible, so the point is the first draw and the
    # sampler leaves the generator where one draw leaves it
    for seed, tau in enumerate((mp.mpc(0, 1), mp.mpc("0.3", "0.7"),
                                mp.mpc("-0.4", "2.5")) * 2):
        v = float(tau.imag)
        rng = random.Random(seed)
        pt = random_admissible_point(ell, tau, rng, PREC)
        fresh = random.Random(seed)
        want = tuple(mp.mpc(fresh.uniform(-0.45, 0.45),
                            fresh.uniform(0.08, 0.92) * v / ell)
                     for _ in range(ell - 1))
        assert pt.zs == want
        assert rng.getstate() == fresh.getstate()


def test_w_vector_structure():
    pt = fixture_point(4)
    assert pt.ell == 4
    assert pt.ws[-1] == 0
    for j in range(3):
        want = -sum(pt.zs[j:], mp.mpc(0))
        assert abs(pt.ws[j] - want) == 0
    assert max(mp.im(w) for w in pt.ws) == 0 and strip_top(pt) > 0


def test_product_is_one_periodic_in_last_variable():
    with mp.workprec(PREC + 16):
        pt = fixture_point(3)
        z = mp.mpc("0.2") + 1j * strip_top(pt) / 2
        a = F_ell_product(list(pt.zs) + [z], pt.tau, PREC)
        b = F_ell_product(list(pt.zs) + [z + 1], pt.tau, PREC)
        assert abs(a - b) <= mp.mpf("1e-30") * abs(a)


def test_product_matches_per_factor_oracle():
    prec = 256
    rng = random.Random(8)
    with mp.workprec(prec + 16):
        for ell in (2, 3, 4):
            for tau in (mp.mpc(0, 1), mp.mpc("0.3", "0.7")):
                pt = random_admissible_point(ell, tau, rng, prec)
                hi = strip_top(pt)
                for k in range(4):
                    z = mp.mpc(rng.uniform(0, 1), rng.uniform(0.05, 0.95)
                               * float(hi))
                    zs = list(pt.zs) + [z]
                    want = F_ell_product_by_theta(zs, tau, prec)
                    got = F_ell_product(zs, tau, prec)
                    assert abs(got - want) <= mp.mpf("1e-70") * abs(want)


def test_product_matches_oracle_off_the_strip():
    # |Z_2| > 1, |Z_2| < |q| and, for a real z_2, the factor 1 - Z_2 on the
    # unit circle away from 1: the product takes any z
    tau = mp.mpc("0.3", "0.7")
    with mp.workprec(256 + 16):
        z1 = mp.mpc("0.2", "0.1")
        for z2 in (mp.mpc("0.15", "-0.4"), mp.mpc("-0.35", "1.1"),
                   mp.mpc("0.3"), mp.mpc("-0.35")):
            want = F_ell_product_by_theta([z1, z2], tau, 256)
            got = F_ell_product([z1, z2], tau, 256)
            assert abs(got - want) <= mp.mpf("1e-70") * abs(want)


@settings(max_examples=30)
@given(st.integers(2, 5), st.sampled_from((128, 256, 384)),
       st.sampled_from(("1j", "0.3+0.7j")), st.integers(0, 10**6),
       st.integers(0, 96), st.integers(1, 19), st.sampled_from((1, 3)),
       st.integers(-2, 2))
@example(5, 384, "0.3+0.7j", 3, 40, 19, 3, 1)
@example(2, 256, "1j", 8, 5, 1, 3, -2)
def test_product_kernel_against_per_factor_oracle(ell, prec, tau, seed, x,
                                                  height, N, s):
    # the kernel's N nodes z_ell + n/N, z_ell = x/97 + i height c_max/20
    # strictly inside the strip, times (q)_inf, against the per-factor
    # product at 64 more bits; at N = 3 the nodes leave the real line, where
    # c_j = A_j W + B_j conj(W) needs the conjugate
    tau = mp.mpc(complex(tau))
    pt = random_admissible_point(ell, tau, random.Random(seed), prec)
    with mp.workprec(prec + 64 + _GUARD_BITS):
        z = mp.mpc(x / 97, 0) + 1j * strip_top(pt) * height / 20
        terms = [F_ell_product(list(pt.zs) + [z + mp.mpf(n) / N], tau,
                               prec + 64) * mp.expjpi(-2 * s * mp.mpf(n) / N)
                 for n in range(N)]
        want = mp.fsum(terms)
        scale = mp.fsum(abs(t) for t in terms)
    with mp.workprec(prec + _GUARD_BITS):
        args = [sum(pt.zs[j:], mp.mpc(0)) + z for j in range(ell - 1)] + [z]
        got = euler_phi(tau, prec)[0] * _pair_sum(tau, args, N, s, prec)
    with mp.workprec(prec + 64 + _GUARD_BITS):
        err = abs(got - want) / scale
    # the node error multivar_quadrature certifies
    assert err <= _node_error(ell, 1) * mp.mpf(2) ** -prec
    if prec >= 256:
        assert err <= mp.mpf("1e-70")


def test_product_raises_at_a_pole():
    # Z_2 = e^{2 pi i z_2}: z_2 = 0 zeroes (1 - Z_2), z_2 = 2 tau zeroes
    # (1 - Z_2^{-1} q^2) and z_2 = -2 tau zeroes (1 - Z_2 q^2); z_1 + z_2
    # does the same through Z_1
    tau = mp.mpc("0.1", "1")
    with mp.workprec(PREC + 16):
        z1 = mp.mpc("0.2", "0.1")
        for zs in ([z1, mp.mpc(0)], [z1, 2 * tau], [z1, -2 * tau],
                   [-z1 + tau, z1]):
            with pytest.raises(NearPoleError):
                F_ell_product(zs, tau, PREC)
        # a factor within 2^-(PREC/4) of zero whose f is not exactly 1
        eps = mp.mpf(2) ** (-PREC // 4 - 4)
        with pytest.raises(NearPoleError):
            F_ell_product([z1, mp.mpc(0, eps)], tau, PREC)


def test_quadrature_contour_independence():
    pt = fixture_point(3)
    hi = strip_top(pt)
    a = F_ls_multivar_quadrature(3, 1, pt, contour_imag=hi * mp.mpf("0.35"),
                                 prec=PREC)
    b = F_ls_multivar_quadrature(3, 1, pt, contour_imag=hi * mp.mpf("0.65"),
                                 prec=PREC)
    assert abs(a - b) <= mp.mpf("1e-30") * max(1, abs(a))


def test_script_F_residues_by_small_circle():
    # script_F(w) = (-1)^ell / prod_j theta(w_j - w) has residue
    # -1/(2 pi eta^3 prod_{j!=nu} theta) at w = w_nu
    pt = fixture_point(3)
    tau = pt.tau
    with mp.workprec(PREC + 16):
        r = mp.mpf("0.01")
        N = 128
        for nu in range(3):
            acc = mp.mpc(0)
            for k in range(N):
                w = pt.ws[nu] + r * mp.exp(2j * mp.pi * mp.mpf(k) / N)
                script_F = (-1) ** pt.ell / mp.fprod(
                    theta(wj - w, tau, PREC) for wj in pt.ws)
                acc += script_F * (w - pt.ws[nu])
            got = acc / N
            den = mp.mpc(1)
            for j in range(3):
                if j != nu:
                    den *= theta(pt.ws[nu] - pt.ws[j], tau, PREC)
            want = -1 / (2 * mp.pi * eta(tau, PREC) ** 3 * den)
            assert abs(got - want) <= mp.mpf("1e-12") * abs(want)


def test_decomposition_matches_quadrature():
    with mp.workprec(PREC + 16):
        for ell in (2, 3):
            pt = fixture_point(ell)
            for s in (0, 1):
                quad = F_ls_multivar_quadrature(ell, s, pt, prec=PREC)
                dec = F_ls_decomposed(ell, s, pt, PREC)
                assert abs(quad - dec) <= mp.mpf("1e-30") * abs(quad)


def test_random_points_are_deterministic():
    rng1 = random.Random(5)
    rng2 = random.Random(5)
    tau = mp.mpc(0, 1)
    p1 = random_admissible_point(3, tau, rng1, PREC)
    p2 = random_admissible_point(3, tau, rng2, PREC)
    assert p1.zs == p2.zs


@pytest.mark.parametrize("ell", [3, 4])
def test_point_built_at_default_precision(ell):
    # the w_j are summed at the point's precision, not mpmath's ambient one
    pt = random_admissible_point(ell, mp.mpc(0, 1), random.Random(5), 256)
    quad = F_ls_multivar_quadrature(ell, 0, pt, prec=256)
    dec = F_ls_decomposed(ell, 0, pt, 256)
    assert abs(quad - dec) <= mp.mpf("1e-60") * abs(quad)


# the triple-product reference costs about 2.5 ms a node at ell = 2 and 8 ms
# at ell = 5 (prec + 64 = 192), half the per-factor product's
@settings(max_examples=6)
@given(st.integers(2, 5), st.integers(0, 2),
       st.sampled_from(("1j", "0.3+0.7j")), st.sampled_from(("0.35", "0.65")),
       st.integers(0, 10**6))
@example(5, 2, "0.3+0.7j", "0.35", 7)
@example(3, 1, "1j", "0.65", 11)
def test_quadrature_certificate_bounds_doubled_rule(ell, s, tau, height, seed):
    # Q_N against the triple product's Q_2N at prec + 64: discretisation and
    # node error together, from a route that shares nothing with the kernel
    # under test
    prec = PREC
    tau = mp.mpc(complex(tau))
    pt = random_admissible_point(ell, tau, random.Random(seed), prec)
    with mp.workprec(prec + 64 + _GUARD_BITS):
        c = strip_top(pt) * mp.mpf(height)
        got, cert = multivar_quadrature(ell, s, pt, c, prec)

        def f(x):
            z = x + 1j * c
            return F_ell_product_by_theta(list(pt.zs) + [z], pt.tau,
                                          prec + 64) \
                * mp.exp(-2j * mp.pi * s * z)

        ref = periodic_trapezoid(f, 2 * cert.nodes)
    assert abs(got - ref) <= cert.bound <= mp.mpf(2) ** -prec
    assert abs(cert.h * cert.nodes - 1) < 1e-30 and cert.X == 1
    assert cert.prec >= prec and cert.seconds >= 0


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 2)])
def test_quadrature_refuses_a_half_integer_s(s):
    # the product is 1-periodic in z_ell, so with s in Z + 1/2 the integrand
    # is anti-periodic and no trapezoid bound holds: Q_N and Q_2N differed by
    # 0.02 to 0.07 where the plan certified 2e-39
    pt = fixture_point(3)
    with pytest.raises(ValueError):
        multivar_quadrature(3, s, pt, prec=PREC)
    with pytest.raises(ValueError):
        F_ls_multivar_quadrature(3, s, pt, prec=PREC)


def test_product_route_calls_no_theta_series(monkeypatch):
    # both quadratures check a theta/partial-theta sum (the multivariate one
    # the residue sum, the Fourier one H_value's Gaussian sum), so they must
    # not reach theta, eta, g_ell, partial_theta or any Gaussian sum but the
    # two halves of (q)_inf's pentagonal sum, which both routes share as
    # before; the point is built under the ban, since it is part of the
    # route's input
    gaussian_sum = certified.certified_gaussian_sum

    def forbidden(*args, **kwargs):
        raise AssertionError("the product route called a theta series")

    def pentagonal_only(*args, **kwargs):
        if sys._getframe(1).f_code is not certified.euler_phi.__code__:
            forbidden()
        return gaussian_sum(*args, **kwargs)

    _rebind(monkeypatch, {id(f): forbidden for f in (
        modular_objects.theta, modular_objects.eta, modular_objects.g_ell,
        partial_theta.partial_theta)})
    _rebind(monkeypatch, {id(gaussian_sum): pentagonal_only})
    pt = fixture_point(3, tau=mp.mpc("0.1", "1.1"))
    hi = strip_top(pt)
    assert abs(F_ls_multivar_quadrature(3, 1, pt, prec=PREC)) > 0
    assert abs(F_ell_product(list(pt.zs) + [mp.mpc("0.3") + 1j * hi / 3],
                             pt.tau, PREC)) > 0
    assert abs(fourier_coeff_by_quadrature(3, 1, pt.tau, prec=PREC)) > 0


@settings(max_examples=15)
@given(st.floats(min_value=0.2, max_value=1.5),
       st.floats(min_value=-0.5, max_value=0.5),
       st.sampled_from((64, 128, 256)), st.integers(0, 10**6))
def test_coefficient_truncation_within_its_bound(v, re_tau, bits, seed):
    # the first I + 1 coefficients against the full product of the m pairs,
    # prod_{k<m} (1 + q^{2k+1} - q^k c), at c on the circle |c| = 1 + |q|
    # that bounds c on the annulus |q| <= |Z| <= 1
    tau = mp.mpc(re_tau, v)
    log_q = -2 * math.pi * v
    m = _pair_count(log_q, bits)
    log_target = -bits * math.log(2)
    I = _coefficient_degree(log_q, m, log_target)
    wp = bits + 64
    coeffs = _pair_coefficients(tau, m, I, wp, _coefficient_weight(log_q, I))
    rng = random.Random(seed)
    with mp.workprec(wp + 32):
        q = modular_objects.cexp(tau)
        S = 1 + abs(q)
        a = [from_fixed(x, wp) for x in coeffs]
        # the coefficients' rounding, in the norm sum |e_i| S^i
        rounding = (1 + 2 * (I + 1) * S ** I) * mp.mpf(2) ** -wp
        for _ in range(4):
            c = S * mp.expjpi(rng.uniform(-1, 1))
            full = mp.mpc(1)
            for k in range(m):
                full *= 1 + q ** (2 * k + 1) - q ** k * c
            assert abs(mp.polyval(a, c) - full) <= \
                math.exp(log_target) + rounding


@pytest.mark.parametrize("v", [1, 5, 10, 40, 200])
def test_one_coefficient_weight_for_both_kernel_steps(monkeypatch, v):
    # sigma = sum_{i<=I} (1 + |q|)^i weighs the coefficients' rounding in
    # _pair_sum and in _pair_coefficients: one value, its series' sum even
    # where 1 + |q| == 1 or |q| underflows
    seen = []
    build = certified._pair_coefficients

    def spy(tau, m, I, wp, sigma):
        seen.append((I, sigma))
        return build(tau, m, I, wp, sigma)

    monkeypatch.setattr(certified, "_pair_coefficients", spy)
    tau = mp.mpc(0, v)
    _pair_sum(tau, [tau / 2], 3, 0, 128)
    ((I, sigma),) = seen
    Q = math.exp(-2 * math.pi * v)
    assert sigma == pytest.approx(
        math.fsum((1 + Q) ** i for i in range(I + 1)), rel=1e-12)


_phase = st.one_of(st.just(0.0), st.floats(0, 2 * math.pi))


@settings(max_examples=60)
@given(st.floats(0.05, 20), st.floats(0, 1, exclude_max=True), _phase,
       _phase)
@example(0.05, 0.5, 0.0, 0.0)
@example(20, 0.0, 1.0, 0.0)
def test_pair_bound_is_a_lower_bound(minus_log_q, frac, arg_z, arg_q):
    # log_pair_lower(log|Z|, log|q|) <= log|(Z;q)_inf (q/Z;q)_inf| for |q| <
    # |Z| <= 1, within the smallest margin a caller adds, 2^-40 (1 + |x|)
    # (F_ls_numeric's Phi); it is tightest at phase 0, where |1 - f| = 1 - |f|
    log_q = -minus_log_q
    log_z = frac * log_q
    x = log_pair_lower(log_z, log_q)
    if x == -math.inf:  # a factor of modulus 1
        assert log_z in (0, log_q)
        return
    with mp.workprec(200):
        lz, lq = mp.mpc(log_z, arg_z), mp.mpc(log_q, arg_q)
        q, Z = mp.exp(lq), mp.exp(lz)
        # the first factors 1 - Z and 1 - q/Z by expm1, without cancellation
        true = mp.log(abs(mp.expm1(lz) * mp.expm1(lq - lz)
                          * mp.qp(Z * q, q) * mp.qp(q * q / Z, q)))
        assert x <= true + 2.0 ** -40 * (1 + abs(x))


def test_quadrature_plan_raises_on_a_thin_strip():
    pt = fixture_point(3)
    hi = strip_top(pt)
    for c in (hi * mp.mpf("1e-9"), hi * (1 - mp.mpf("1e-9"))):
        with pytest.raises(NearPoleError):
            multivar_quadrature(3, 1, pt, c, PREC)


@pytest.mark.parametrize("prec", [53, 256])
def test_kernel_precondition_holds_before_any_node(monkeypatch, prec):
    # _pair_sum needs |q| < |Z_j| < 1 strictly; pair_trapezoid enforces it
    # before any node runs, for a height 2^-60 of the strip from either side
    # and for one inside the strip whose double is its top side
    def no_node(*args):
        raise AssertionError("the kernel ran on a contour next to a pole")

    monkeypatch.setattr(certified, "_pair_sum", no_node)
    pt = fixture_point(3, tau=mp.mpc("0.1", "1.1"), prec=prec)
    for top, run in (
            (strip_top(pt), lambda c: multivar_quadrature(3, 1, pt, c, prec)),
            (mp.im(pt.tau),
             lambda c: fourier_quadrature(3, 1, pt.tau, c, prec))):
        with mp.workprec(prec + _GUARD_BITS):
            edge = top - mp.ldexp(top, 2 - prec - _GUARD_BITS)
            heights = (top * mp.mpf(2) ** -60, top * (1 - mp.mpf(2) ** -60),
                       edge)
            assert edge < top and float(edge) == float(top)
        for c in heights:
            with pytest.raises(NearPoleError):
                run(c)


def test_quadrature_refuses_heights_off_the_strip():
    # pair_trapezoid checks 0 < c < c_max itself: off the strip is a
    # ValueError, not a NearPoleError from a plan that failed
    pt = fixture_point(3)
    hi = strip_top(pt)
    with mp.workprec(PREC + 64):
        heights = (mp.mpf(0), -hi / 10, hi, hi * 6 / 5)
    for c in heights:
        with pytest.raises(ValueError, match="admissible strip") as err:
            multivar_quadrature(3, 1, pt, c, PREC)
        assert not isinstance(err.value, NearPoleError)
