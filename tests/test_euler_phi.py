"""certified.euler_phi, the one (q)_inf core, and log_poch_lower.

The oracles are mpmath's own mp.qp at 64 more bits, an interval enclosure
(mp.iv) of the S step's factor, the walk log_poch_lower took before it had a
cap, and the Pochhammer sum taken term by term in mpmath.
"""

import math
import time

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qchar import certified
from qchar.certified import (_GUARD_BITS, InputError, _s_step, euler_phi,
                             log_poch_lower)
from qchar.modular_objects import cexp, eta


def check_against_qp(tau, prec):
    """The core's value, its bound and mp.qp at 64 more bits: observed
    error <= bound <= 2^-prec |value|."""
    value, cert = euler_phi(tau, prec)
    with mp.workprec(prec + 64 + _GUARD_BITS):
        want = mp.qp(cexp(mp.mpc(tau)))
        assert abs(value - want) <= cert.bound
        assert cert.bound <= mp.ldexp(abs(value), -prec)


@settings(max_examples=25)
@given(st.floats(-3, 1), st.sampled_from((53, 128, 256)))
@example(-3, 256)
@example(math.log10(0.5), 128)
def test_core_on_the_imaginary_axis(log10_y, prec):
    # down to Im tau = 1e-3, where mp.qp takes 0.04 s (5-17 s at 1e-4)
    with mp.workprec(prec + _GUARD_BITS):
        tau = mp.mpc(0, mp.mpf(10) ** log10_y)
    check_against_qp(tau, prec)


@settings(max_examples=25)
@given(st.floats(-3, 3), st.floats(-2, 1), st.sampled_from((53, 128, 256)))
@example(0.5, -2, 256)
@example(-2.5, -2, 128)
def test_core_off_the_axis(x, log10_y, prec):
    with mp.workprec(prec + _GUARD_BITS):
        tau = mp.mpc(x, mp.mpf(10) ** log10_y)
    check_against_qp(tau, prec)


def test_core_moves_re_tau_exactly():
    # rounded to the core's working precision before the shift, Re tau =
    # 1e20 + 0.3 at 200 bits kept 0.3 to about 2^-104 only, and the value
    # was off by 1.1e-29, relative, far past its bound
    with mp.workprec(200):
        tau = mp.mpc(mp.mpf(10) ** 20 + mp.mpf("0.3"), "0.05")
    value, cert = euler_phi(tau, 128)
    with mp.workprec(200):
        assert abs(value - mp.qp(cexp(tau - 10 ** 20))) <= cert.bound


def test_core_is_real_on_the_axis_and_refuses_the_lower_half_plane():
    value, _ = euler_phi(mp.mpc(0, "0.01"), 64)
    assert isinstance(value, mp.mpf) and value > 0
    with pytest.raises(InputError):
        euler_phi(mp.mpc(0.3, 0), 64)


def test_core_at_tiny_and_huge_im_tau():
    # past the S step Im tau' = 1e6, or Im tau is large itself: each half
    # sums one term (a half sums at least one, so 2 in all) at the bits of
    # a term of modulus 1, the lattice's largest; the halves' plan once
    # took the peak over real x, |q'|^{-1/24}, and 377,986 bits at 1e6
    for tau in (mp.mpc(0, "1e-6"), mp.mpc(0.25, 40), mp.mpc(0, 1e6)):
        start = time.perf_counter()
        value, cert = euler_phi(tau, 256)
        assert time.perf_counter() - start < 0.1
        assert cert.nodes == 2 and cert.prec <= 300
        assert cert.bound <= mp.ldexp(abs(value), -256)
    with mp.workprec(300):
        y = mp.mpf("1e-6")
        # c (q')_inf with (q')_inf = 1 to far below 2^-300
        want = mp.exp(-mp.pi * (1 / y - y) / 12) / mp.sqrt(y)
        value, cert = euler_phi(mp.mpc(0, y), 256)
        assert abs(value - want) <= cert.bound


def test_eta_at_small_im_tau_is_right_to_its_precision():
    # the pentagonal sum to an absolute 2^-256 made this off by a relative
    # 1.9e32, as eta(0.001i) is about e^{-262}
    got = eta(0.001j, 256)
    with mp.workprec(256 + 64 + _GUARD_BITS):
        tau = mp.mpc(0.001j)
        want = cexp(tau / 24) * mp.qp(cexp(tau))
        assert abs(got - want) <= mp.ldexp(abs(want), -256)


def _ends(x):
    """The (lo, hi) ends of an mp.iv real number, as mpfs."""
    return tuple(mp.make_mpf(e) for e in x._mpi_)


@pytest.mark.parametrize("tau", ["0.001j", "0.3j", "0.49j", "0.3+0.01j",
                                 "-0.5+0.2j", "0.45+0.001j", "0.1+0.4j"])
@pytest.mark.parametrize("wp", [100, 300])
def test_s_step_factor_against_interval_enclosure(tau, wp):
    # (-i tau)^{-1/2} e^{pi i (-1/tau - tau)/12} enclosed from the exact tau
    # (iv has complex exp and ** but no sqrt); the computed factor must lie
    # within the allowance of _s_step's docstring, which euler_phi's wp keeps
    # below a quarter of its 2^-(prec + _GUARD_BITS)
    tau = mp.mpc(complex(tau))
    with mp.workprec(wp):
        tau1, c = _s_step(tau)
    saved = mp.iv.prec
    mp.iv.prec = wp + 60
    try:
        t = mp.iv.mpc(tau.real, tau.imag)
        t1 = -1 / t
        box = (mp.iv.exp(mp.iv.pi * mp.iv.mpc(0, 1) * (t1 - t) / 12)
               * (mp.iv.mpc(0, -1) * t) ** mp.iv.mpf(-0.5))
    finally:
        mp.iv.prec = saved
    with mp.workprec(wp + 60):
        allowance = ((2 * (abs(tau) + abs(tau1)) + 9) * mp.ldexp(1, -wp)
                     * abs(c))
        gaps = [max(lo - v, v - hi, 0) for v, (lo, hi) in
                ((c.real, _ends(box.real)), (c.imag, _ends(box.imag)))]
        assert mp.hypot(*gaps) <= allowance
        assert max(hi - lo for lo, hi in (_ends(box.real), _ends(box.imag))) \
            < allowance / 1000


def walk(log_f0, log_q):
    """log_poch_lower as it was: the factors one at a time until L_k <= -40,
    with no cap."""
    total = 0.0
    k = 0
    while True:
        L = log_f0 + k * log_q
        if L > -40:
            x = -math.expm1(-abs(L))
            if x <= 0:
                return -math.inf
            total += math.log(x) + max(L, 0.0)
        else:
            x = math.exp(L)
            return total - x / ((1 - x) * -math.expm1(log_q))
        k += 1


@settings(max_examples=200)
@given(st.floats(-45, 5), st.floats(-8, -0.011))
@example(-0.0003821035955859047, -40 / (certified._POCH_WALK - 2))
@example(0.0, -0.5)
def test_walks_under_the_cap_as_before(log_f0, log_q):
    # the same doubles, summed in the same order; at log_q <= -0.011 every
    # walk from log_f0 <= 5 ends within 4,092 factors
    assert log_poch_lower(log_f0, log_q) == walk(log_f0, log_q)


def poch_log(log_f0, log_q):
    """sum_k log(1 - e^{L_k}) in mpmath at 80 bits, less a bound of the
    terms it drops, which are all below e^{-60}."""
    with mp.workprec(80):
        f0, q = mp.exp(log_f0), mp.exp(log_q)
        total, f, k = mp.mpf(0), f0, 0
        while f > mp.exp(-60):
            total += mp.log1p(-f)
            f *= q
            k += 1
        return total - 2 * f / (1 - q)


@settings(max_examples=60)
@given(st.floats(-12, -1e-4), st.floats(-2, -0.02),
       st.sampled_from((0, 1, 3, 40)))
def test_walks_past_the_cap_stay_below(log_f0, log_q, cap):
    # a cap lowered to a few factors puts these walks past it (a walk that
    # ends before it is the old one, which rounds in doubles)
    assume(log_f0 + cap * log_q > -40)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(certified, "_POCH_WALK", cap)
        got = log_poch_lower(log_f0, log_q)
    assert got <= poch_log(log_f0, log_q)


def test_a_walk_past_the_cap_stays_below():
    # 40/0.005 = 8,000 factors to L_k <= -40, past the cap of 4,096
    got = log_poch_lower(-0.01, -0.005)
    want = poch_log(-0.01, -0.005)
    assert got <= want and got >= want * (1 + 1e-6)
