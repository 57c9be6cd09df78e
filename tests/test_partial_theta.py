import random
from fractions import Fraction

import mpmath as mp
import pytest

from qchar import partial_theta as partial_theta_module
from qchar.partial_theta import (GradedCoeff, PartialThetaParams,
                                 partial_theta, script_F, script_F_expansion,
                                 script_FG_halving_orders, script_G,
                                 script_G_expansion, script_G_integral)

PREC = 128


def two_sided_theta(r, eps, M, z, tau, n_max=200):
    """Oracle: the full bilateral sum, truncated far past convergence."""
    total = mp.mpc(0)
    for n in range(-n_max, n_max + 1):
        a = 2 * Fraction(M) * n - Fraction(r)
        af = mp.mpf(a.numerator) / a.denominator
        Mf = mp.mpf(Fraction(M).numerator) / Fraction(M).denominator
        total += (-1) ** (n * eps) * mp.exp(
            2j * mp.pi * z * af + 2j * mp.pi * tau * af * af / (4 * Mf))
    return total


def test_params_validation():
    with pytest.raises(ValueError):
        PartialThetaParams(Fraction(1), 0, Fraction(-1, 2))
    with pytest.raises(ValueError):
        PartialThetaParams(Fraction(1), 0, Fraction(1, 3))
    with pytest.raises(ValueError):
        PartialThetaParams(Fraction(1), 2, Fraction(3, 2))


def test_completion_identity_random_points():
    # one-sided sums over n >= 0 and n < 0 reassemble the bilateral theta
    rng = random.Random(23)
    with mp.workprec(PREC + 16):
        for _ in range(20):
            tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
            z = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            r = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))
            M = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
            eps = rng.randrange(2)
            plus = partial_theta(PartialThetaParams(r, eps, M), z, tau, PREC)
            minus = partial_theta(
                PartialThetaParams(-r - 2 * M, eps, M), -z, tau, PREC)
            full = two_sided_theta(r, eps, M, z, tau)
            got = plus + (-1) ** eps * minus
            assert abs(got - full) <= mp.mpf("1e-20") * max(1, abs(full))


def test_leading_monomial():
    # for Im tau large the n = 0 term dominates: zeta^{-r} q^{r^2/(4M)}
    with mp.workprec(PREC + 16):
        tau = mp.mpc(0, 40)
        z = mp.mpc("0.1", "0.05")
        params = PartialThetaParams(Fraction(1, 2), 1, Fraction(3, 2))
        lead = mp.exp(-2j * mp.pi * z / 2
                      + 2j * mp.pi * tau * Fraction(1, 4) / 6)
        got = partial_theta(params, z, tau, PREC)
        assert abs(got - lead) <= mp.mpf("1e-20") * abs(lead)


def test_script_G_integral():
    assert script_G_integral(1) == Fraction(1, 2)
    assert script_G_integral(3) == Fraction(1)
    assert script_G_integral(5) == Fraction(12)


def test_script_F_expansion_orders():
    # error after truncation at N behaves like t^{N + j + 1}:
    # halving t divides the error by about 2^{N+j+1}
    with mp.workprec(PREC + 16):
        t1, t2 = mp.mpf("0.1"), mp.mpf("0.05")
        for j in (1, 2, 3):
            for N in (0, 1, 2):
                e = script_F_expansion(j, Fraction(1, 3), N)
                d1 = abs(script_F(j, Fraction(1, 3), t1, PREC)
                         - e.evaluate(t1, PREC))
                d2 = abs(script_F(j, Fraction(1, 3), t2, PREC)
                         - e.evaluate(t2, PREC))
                order = mp.log(d1 / d2) / mp.log(2)
                assert abs(order - (N + j + 1)) <= mp.mpf("0.3")


def test_script_G_expansion_orders():
    # half-integer order (2(j + N) + 1)/2 via the sqrt(t) prefactor
    with mp.workprec(PREC + 16):
        t1, t2 = mp.mpf("0.1"), mp.mpf("0.05")
        for j in (1, 2):
            for N in (0, 1, 2):
                e = script_G_expansion(j, Fraction(1, 3), N)
                d1 = abs(script_G(j, Fraction(1, 3), t1, PREC)
                         - e.evaluate(t1, PREC))
                d2 = abs(script_G(j, Fraction(1, 3), t2, PREC)
                         - e.evaluate(t2, PREC))
                order = mp.log(d1 / d2) / mp.log(2)
                assert abs(order - (j + N + mp.mpf("0.5"))) <= mp.mpf("0.3")


def test_halving_orders_sum_each_direct_value_once(monkeypatch):
    # 2 families x 2 j x 2 t; the three N of a (family, j) share them
    calls = []
    gaussian_sum = partial_theta_module.certified_gaussian_sum

    def count(*args):
        calls.append(args)
        return gaussian_sum(*args)

    monkeypatch.setattr(partial_theta_module, "certified_gaussian_sum", count)
    rows = script_FG_halving_orders(PREC)
    assert len(calls) == 8
    assert len(rows) == 12


def test_script_G_leading_term():
    # G_{j,r}(t) -> (j-1)!/(2 sqrt(t)) as t -> 0
    with mp.workprec(PREC + 16):
        t = mp.mpf("1e-6")
        for j in (1, 2, 3):
            got = script_G(j, Fraction(2, 5), t, PREC)
            want = mp.factorial(j - 1) / (2 * mp.sqrt(t))
            assert abs(got / want - 1) < mp.mpf("0.01")


def test_asymp_expansion_api():
    e = script_F_expansion(2, Fraction(1, 2), 1)
    assert e.coefficient(Fraction(10)) == ()
    assert e == script_F_expansion(2, Fraction(1, 2), 1)
    assert e != script_F_expansion(2, Fraction(1, 3), 1)


def test_graded_coeff_value():
    with mp.workprec(64):
        c = GradedCoeff(Fraction(3), Fraction(-1), Fraction(2))
        assert abs(c.value(53) - 3 * mp.pi ** 2 / 2) < mp.mpf("1e-12")
