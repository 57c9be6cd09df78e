from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

from qchar import asymptotics, characters
from qchar.asymptotics import (C_ell, C_ell_star,
                               binomial_reciprocal_identity, exp_pole_residue,
                               exp_pole_residue_I, first_correction_F,
                               full_expansion_sl3, leading_asym_F,
                               leading_asym_ch, qdim_ratio, qdim_slope_exact,
                               qdim_slope_report, sl3_bracket_expansion, sl3_bracket_value,
                               verify_appendix)
from qchar.certified import _GUARD_BITS
from qchar.characters import F_ls_numeric, H_value
from qchar.partial_theta import GradedCoeff

PREC = 128


def test_C_ell_small_values():
    assert C_ell(1) == GradedCoeff(Fraction(1, 2))
    assert C_ell(3) == GradedCoeff(Fraction(1, 16))
    # 1/(12 pi)
    assert C_ell(4) == GradedCoeff(Fraction(1, 12), Fraction(0), Fraction(-1))


def test_C_star_equality_and_recurrence():
    for ell in range(1, 21):
        assert C_ell(ell) == C_ell_star(ell)
    for ell in range(1, 19):
        C = C_ell(ell)
        assert C_ell(ell + 2) == GradedCoeff(
            C.rat * Fraction(ell, 4 * (ell + 1)), C.two_pow, C.pi_pow)


def test_binomial_identity_spot():
    assert binomial_reciprocal_identity(0, 1)
    assert binomial_reciprocal_identity(5, 3)
    assert binomial_reciprocal_identity(20, 20)


def binomial_identity_in_fractions(n, c):
    """binomial_reciprocal_identity as it was: both sides as Fractions."""
    lhs = sum((Fraction(comb(n, k) * (-1) ** k, k + c)
               for k in range(n + 1)), Fraction(0))
    return lhs == Fraction(factorial(n) * factorial(c - 1), factorial(n + c))


def test_binomial_identity_in_ints_against_fractions():
    for n in range(31):
        for c in range(1, 31):
            assert binomial_reciprocal_identity(n, c) == \
                binomial_identity_in_fractions(n, c), (n, c)


def test_binomial_identity_needs_positive_c():
    for n, c in ((0, 0), (3, 0), (4, -2)):
        with pytest.raises(ValueError):
            binomial_reciprocal_identity(n, c)


def test_verify_appendix_computes_each_residue_once(monkeypatch):
    # C_ell_star needs one residue per ell in 1..20; the residue loop
    # (ell 2..20) reads the same ones from the cache
    calls = []
    poly = asymptotics.higher_bernoulli_poly

    def count(*args):
        calls.append(args)
        return poly(*args)

    monkeypatch.setattr(asymptotics, "higher_bernoulli_poly", count)
    exp_pole_residue.cache_clear()
    exp_pole_residue_I.cache_clear()
    verify_appendix(20)
    assert len(calls) == len(set(calls)) == 20
    for cached in (exp_pole_residue, exp_pole_residue_I):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_residue_values():
    # ell = 3: residue of e^{3z/2}/(e^z-1)^3 is C(1/2, 2) = -1/8
    assert exp_pole_residue(3) == Fraction(-1, 8)
    # ell = 2: residue of z e^{z}/(e^z-1)^2 is +1
    assert exp_pole_residue_I(2) == 1


def test_verify_appendix_runs_clean():
    report = verify_appendix(20)
    assert report["equal"] == list(range(1, 21))


def test_leading_asym_is_s_independent():
    assert leading_asym_F(3, 0) == leading_asym_F(3, 2)
    assert leading_asym_ch(4, 1) == leading_asym_ch(4, 3)


def test_leading_asym_F_converges():
    # the one-term model captures F to a relative error that shrinks with t
    with mp.workprec(PREC + 16):
        model = leading_asym_F(3, 0)
        devs = []
        for t in (mp.mpf("0.5"), mp.mpf("0.25")):
            val, _ = F_ls_numeric(3, 0, t, PREC)
            devs.append(abs(val / model.evaluate(t, PREC) - 1))
        assert devs[1] < devs[0]
        assert devs[1] < mp.mpf("0.5")


def test_first_correction_closed_form():
    # built from h_s, c and the bracket; must equal 7/8 + s/2 - 3/pi^2
    for s in (0, 1, 2):
        rat, inv_pi2 = first_correction_F(3, s)
        assert rat == GradedCoeff(Fraction(7, 8) + Fraction(s, 2))
        assert inv_pi2 == GradedCoeff(Fraction(-3), Fraction(0),
                                      Fraction(-2))
    for ell in (2, 4, 5):
        with pytest.raises(ValueError):
            first_correction_F(ell, 0)


def test_qdim_slope_exact_closed_form():
    # built from the bracket coefficients; must equal -pi s^2/3
    assert qdim_slope_exact(3, 0) == ()
    for s in (1, 2, 3):
        assert qdim_slope_exact(3, s) == (
            GradedCoeff(Fraction(-s * s, 3), Fraction(0), Fraction(1)),)
    with mp.workprec(PREC):
        report = qdim_slope_report(3, 1, prec=PREC)
        assert abs(report["exact_slope"] + mp.pi / 3) < mp.mpf(10) ** -30
    for ell in (2, 4, 5):
        with pytest.raises(ValueError):
            qdim_slope_exact(ell, 1)


def test_sl3_bracket_expansion_orders():
    # truncation at t^N leaves an O(t^{N+1}) error
    with mp.workprec(PREC + 16):
        t1, t2 = mp.mpf("0.1"), mp.mpf("0.05")
        for s in (0, 1):
            for N in (0, 2, 4):
                e = sl3_bracket_expansion(s, N)
                d1 = abs(sl3_bracket_value(s, t1, PREC)
                         - e.evaluate(t1, PREC))
                d2 = abs(sl3_bracket_value(s, t2, PREC)
                         - e.evaluate(t2, PREC))
                order = mp.log(d1 / d2) / mp.log(2)
                assert abs(order - (N + 1)) <= mp.mpf("0.3")


def test_full_expansion_sl3_prefactors():
    # full expansion = e^{5 pi^2/(6 t)} (t/(2 pi))^{5/2} * bracket expansion
    with mp.workprec(PREC + 16):
        t = mp.mpf("0.3")
        s, N = 1, 3
        full = full_expansion_sl3(s, N).evaluate(t, PREC)
        bracket = sl3_bracket_expansion(s, N).evaluate(t, PREC)
        pref = mp.exp(5 * mp.pi ** 2 / (6 * t)) \
            * (t / (2 * mp.pi)) ** mp.mpf("2.5")
        assert abs(full - pref * bracket) <= mp.mpf("1e-25") * abs(full)


def test_qdim_ratio_builds_one_laurent_polynomial(monkeypatch):
    # H_value for s and for 0 share D; the ratio is the same number as the
    # quotient of the two H_value calls it replaced
    calls = []
    laurent = characters.laurent_coefficients_D

    def count(*args):
        calls.append(args)
        return laurent(*args)

    monkeypatch.setattr(characters, "laurent_coefficients_D", count)
    for ell, s, t in ((3, 1, "0.1"), (4, 2, "0.3"), (5, 1, "0.05")):
        calls.clear()
        got = qdim_ratio(ell, s, t, PREC)
        assert len(calls) == 1
        with mp.workprec(PREC + _GUARD_BITS):
            tau = 1j * mp.mpf(t)
            assert got == mp.re(H_value(ell, s, tau, PREC)
                                / H_value(ell, 0, tau, PREC))


def test_qdim_ratio_basics():
    with mp.workprec(PREC + 16):
        assert qdim_ratio(3, 0, mp.mpf("0.1"), PREC) == 1
        r1 = qdim_ratio(3, 1, mp.mpf("0.2"), PREC)
        r2 = qdim_ratio(3, 1, mp.mpf("0.1"), PREC)
        # ratios approach 1 from below as t shrinks
        assert 0 < r1 < r2 < 1
