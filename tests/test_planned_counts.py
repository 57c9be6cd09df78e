"""The term counts the numerics plan before they sum, against the trial
loops they replaced, which are kept here as oracles."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qchar import characters
from qchar.certified import _GUARD_BITS
from qchar.characters import _NUMERIC_REL_TOL, F_ls_numeric
from qchar.exact_series import euler_product_pow
from qchar.modular_objects import (_G2k_series_value, _G2k_terms, cexp,
                                   euler_phi_numeric)

PREC = 128

# |q| from 1e-150 (its square is below the doubles' range) to 0.89
_log10_q = st.floats(-150, -0.05)
_phase = st.floats(0, 2 * math.pi)
_prec = st.sampled_from((53, 128, 256, 600))


def _point(log10_r, phase):
    return mp.mpf(10) ** log10_r * mp.expj(phase)


def pentagonal_loop(q, tol):
    """euler_phi_numeric's old loop, which added pairs of terms until
    2|q|^{(k+1)(3k+2)/2}/(1 - |q|) < tol."""
    total, k, absq = mp.mpf(1), 1, abs(q)
    while True:
        total += (-1) ** k * (q ** (k * (3 * k - 1) // 2)
                              + q ** (k * (3 * k + 1) // 2))
        if 2 * absq ** ((k + 1) * (3 * k + 2) // 2) / (1 - absq) < tol:
            return total
        k += 1


@settings(max_examples=60)
@given(_log10_q, _phase, _prec)
def test_euler_phi_numeric_within_tol_of_the_loop(log10_q, phase, prec):
    with mp.workprec(prec + _GUARD_BITS):
        q, tol = _point(log10_q, phase), mp.mpf(2) ** -prec
        old = pentagonal_loop(q, tol)
        assert abs(euler_phi_numeric(q, tol) - old) <= tol


def test_euler_phi_numeric_at_zero():
    assert euler_phi_numeric(mp.mpf(0), mp.mpf(2) ** -PREC) == 1


def G2k_least_terms(k, tau, target):
    """The least N meeting both conditions of _G2k_series_value's old
    doubling loop at tail target ``target``, found by stepping N in mpf."""
    absq = abs(cexp(tau))
    c = 2 * (2 * mp.pi) ** (2 * k) / math.factorial(2 * k - 1)
    N = 0
    while not (c * mp.mpf(N + 1) ** (2 * k) * absq ** (N + 1)
               / (1 - mp.sqrt(absq)) < target
               and mp.exp(mp.mpf(2 * k) / (N + 1)) * absq <= mp.sqrt(absq)):
        N += 1
    return N


def G2k_doubling(k, tau, prec):
    """_G2k_series_value as it was: N doubled from 8 until both conditions
    held, then the series summed term by term."""
    q, absq = cexp(tau), abs(cexp(tau))
    c = 2 * (2 * mp.pi) ** (2 * k) / math.factorial(2 * k - 1)
    N = 8
    while not (c * mp.mpf(N + 1) ** (2 * k) * absq ** (N + 1)
               / (1 - mp.sqrt(absq)) < mp.mpf(2) ** -prec
               and mp.exp(mp.mpf(2 * k) / (N + 1)) * absq <= mp.sqrt(absq)):
        N *= 2
    sigma = [sum(d ** (2 * k - 1) for d in range(1, n + 1) if n % d == 0)
             for n in range(N + 1)]
    head = -mp.bernoulli(2 * k) / math.factorial(2 * k)
    acc = head + mp.fsum(2 * mp.mpf(sigma[n]) / math.factorial(2 * k - 1)
                         * q ** n for n in range(1, N + 1))
    return (2j * mp.pi) ** (2 * k) * acc


@settings(max_examples=40)
@given(st.integers(1, 4), st.floats(-0.5, 0.5), st.floats(0.45, 6),
       _prec)
def test_G2k_terms_least_that_meet_both_conditions(k, x, y, prec):
    # the old loop's conditions, with its tail target 2^-prec moved to the
    # 2^-(prec + _GUARD_BITS) of the other sums its callers add it to
    tau = mp.mpc(x, y)
    with mp.workprec(prec + _GUARD_BITS):
        least = G2k_least_terms(k, tau, mp.mpf(2) ** -(prec + _GUARD_BITS))
        assert least <= _G2k_terms(k, tau, prec) <= least + 1
        got = _G2k_series_value(k, tau, prec)
        want = G2k_doubling(k, tau, prec)
        assert abs(got - want) <= 4 * mp.mpf(2) ** -prec * max(1, abs(want))


def G_series(ell, s, T):
    """G_s = F_{ell,s}/(q)_inf^{ell^2} to q^T by the partial-theta route."""
    return (characters._F_ls_via_H_series(ell, s, T)
            * euler_product_pow(-ell * ell, T)).truncate(T)


@pytest.mark.parametrize("ell", range(2, 8))
def test_head_series_in_one_power_equals_the_product_of_two(ell):
    # F_ls_numeric's head raises (q)_inf to ell^2 - 2 ell - ell^2 once, in
    # place of F_{ell,s} times (q)_inf^{-ell^2}
    for s in range(5):
        for T in (1, 2, 7, 20, 133):
            got = characters._F_ls_via_H_series(ell, s, T, -ell * ell)
            want = G_series(ell, s, T)
            assert (got.D, got.trunc) == (want.D, want.trunc) == (1, T)
            assert got.coeffs == want.coeffs, (s, T)


def F_ls_doubling(ell, s, t, prec):
    """F_ls_numeric as it was: T doubled from max(40, 8/t), every series
    rebuilt each round, until the tail bound was 1e-12 of the value."""
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        q = mp.exp(-t)
        q1 = mp.sqrt(q)
        tol = mp.mpf(2) ** -prec
        phi = euler_phi_numeric(q, tol)
        Phi = mp.qp(q1 ** mp.mpf("0.5"), q1) ** (-2 * ell)
        T = max(40, int(8 / t))
        while True:
            G = G_series(ell, s, T)
            head = mp.fsum(mp.mpf(c.numerator) * q ** e
                           for e, c in sorted(G.coeffs.items()))
            tail = (q1 ** (-mp.mpf(s) / 2) * Phi * (q / q1) ** T
                    / (1 - q / q1))
            value, bound = phi ** (ell * ell) * head, phi ** (ell * ell) * tail
            if bound <= mp.mpf("1e-12") * abs(value):
                return value, bound
            T *= 2


def planned(ell, s, t, monkeypatch):
    """(value, bound, truncations built) of one F_ls_numeric call."""
    built = []
    series = characters._F_ls_via_H_series

    def record(ell, s, trunc, *rest):
        built.append(trunc)
        return series(ell, s, trunc, *rest)

    monkeypatch.setattr(characters, "_F_ls_via_H_series", record)
    value, bound = F_ls_numeric(ell, s, t, PREC)
    monkeypatch.undo()
    return value, bound, built


@settings(max_examples=10)
@given(st.integers(2, 5), st.integers(0, 3), st.floats(0.4, 2.5))
def test_F_ls_numeric_against_doubling(ell, s, t):
    with pytest.MonkeyPatch.context() as monkeypatch:
        value, bound, built = planned(ell, s, t, monkeypatch)
    old, old_bound = F_ls_doubling(ell, s, t, PREC)
    assert 1 <= len(built) <= 2
    assert abs(value - old) <= bound + old_bound
    assert bound <= _NUMERIC_REL_TOL * value


@pytest.mark.parametrize("ell,s,t", [(3, 0, "0.3"), (2, 1, "0.5"),
                                     (4, 2, "0.45"), (5, 0, "0.8"),
                                     (3, 3, "1.5")])
def test_F_ls_numeric_planned_T_near_least(ell, s, t, monkeypatch):
    # the least n whose tail bound meets 1e-12 head(n), head(n) the partial
    # sum of the final G to q^n: tail(n) = tail(T) e^{-t(n - T)/2}
    value, bound, built = planned(ell, s, t, monkeypatch)
    T = built[-1]
    with mp.workprec(PREC + _GUARD_BITS):
        t = mp.mpf(t)
        q = mp.exp(-t)
        G = G_series(ell, s, T)
        heads = [mp.mpf(0)]
        for n in range(T):
            heads.append(heads[-1] + G.coefficient(n) * q ** n)
        # value = phi^{ell^2} heads[T], bound = phi^{ell^2} tail(T)
        least = next(n for n in range(1, T + 1)
                     if bound * mp.exp(-t * (n - T) / 2) * heads[T]
                     <= _NUMERIC_REL_TOL * value * heads[n])
    assert T <= 1.15 * least


def test_F_ls_numeric_builds_twice_at_most(monkeypatch):
    # t = 0.1: T0 = 493 for the head, then the planned T, below 3000
    value, bound, built = planned(3, 0, "0.1", monkeypatch)
    assert len(built) == 2 and built[0] < built[1] <= 3000
    assert bound <= _NUMERIC_REL_TOL * value


def test_F_ls_numeric_builds_each_order_through_one_power(monkeypatch):
    # t = 0.3: a head to T0 = 54, then the planned order; each build raises
    # (q)_inf to one power, not to two that cancel in part, at the order
    # the lattice's least exponent, -s, asks for: T + s = T at s = 0
    powers = []
    power = characters.euler_product_pow

    def count(p, trunc):
        powers.append((p, trunc))
        return power(p, trunc)

    monkeypatch.setattr(characters, "euler_product_pow", count)
    value, bound, built = planned(3, 0, "0.3", monkeypatch)
    assert len(built) == 2
    assert powers == [(-6, T) for T in built]
