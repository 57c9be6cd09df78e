import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qchar import characters
from qchar.certified import _GUARD_BITS, NearPoleError
from qchar.characters import (CharacterParams, F_ls_exact, F_ls_numeric,
                              F_ls_via_H, F_ls_via_H_value, H_value,
                              central_charge, character_ch,
                              coeff_series_exact,
                              fourier_coeff_by_quadrature,
                              fourier_quadrature, h_s)
from qchar.cli import main
from qchar.exact_series import ExactQSeries
from qchar.modular_objects import cexp, eta, euler_phi_numeric

PREC = 128


def test_params_validation():
    with pytest.raises(ValueError):
        CharacterParams(1, 0, 10)
    with pytest.raises(ValueError):
        CharacterParams(3, -1, 10)
    with pytest.raises(ValueError):
        CharacterParams(3, 0, 0)


def test_weights_and_charge():
    assert h_s(3, 0) == 0
    assert h_s(3, 1) == Fraction(1, 6) + Fraction(1, 2)
    assert h_s(4, 3) == Fraction(9, 8) + Fraction(3, 2)
    assert central_charge(3) == -4


def test_route_equivalence_small_sweep():
    for ell in (3, 4):
        for s in (0, 1, 2):
            params = CharacterParams(ell, s, 25)
            assert F_ls_via_H(params) == F_ls_exact(params)


@settings(max_examples=60)
@given(st.integers(2, 7), st.integers(0, 40), st.integers(1, 60),
       st.booleans())
def test_route_two_reaches_the_requested_order(ell, s, trunc, head):
    # the lattice exponent (ell n - 2s)(n + 1)/2 falls to about -(2s +
    # ell)^2/(8 ell), and that valuation caps the products' order: route 2
    # sized its inputs by s + 1 and stopped short once s was large against
    # ell (order 42 of 50 at ell = 5, s = 12).  With euler = -ell^2 it is
    # F_ls_numeric's head, the extraction series alone
    if head:
        got = characters._F_ls_via_H_series(ell, s, trunc, -ell * ell)
        want = coeff_series_exact(ell, s, trunc)
    else:
        got = characters._F_ls_via_H_series(ell, s, trunc)
        want = F_ls_exact(CharacterParams(ell, s, trunc))
    assert got.trunc == trunc
    assert got.coeffs == want.coeffs


def test_constant_term():
    for ell in (2, 3, 4, 5):
        for s in (0, 1, 2, 3):
            f = F_ls_exact(CharacterParams(ell, s, 6))
            assert f.coefficient(0) == comb(s + ell - 1, ell - 1)


def test_extraction_series_nonnegative_integers():
    g = coeff_series_exact(3, 2, 30)
    for e, c in g.terms():
        assert c.denominator == 1 and c >= 0


def test_character_leading_and_positivity():
    for ell, s in ((3, 0), (3, 2), (4, 1)):
        ch = character_ch(CharacterParams(ell, s, 20))
        lead = h_s(ell, s) - Fraction(central_charge(ell), 24)
        assert ch.min_exp == lead * ch.D
        assert ch.coefficient(lead) == comb(s + ell - 1, ell - 1)
        for _, c in ch.terms():
            assert c.denominator == 1 and c >= 0


@pytest.mark.parametrize("bad", (-1, Fraction(1, 2)))
def test_F_numeric_refuses_a_head_off_the_nonnegative_integers(monkeypatch,
                                                                 bad):
    # the tail bound rests on b_n >= 0, so a route-2 head with one -1 or 1/2
    # coefficient must raise, not be summed
    real = characters._F_ls_via_H_series

    def spoiled(ell, s, trunc, euler=0):
        series = real(ell, s, trunc, euler)
        return ExactQSeries(1, {**series.coeffs, 3: bad}, series.trunc)

    monkeypatch.setattr(characters, "_F_ls_via_H_series", spoiled)
    with pytest.raises(AssertionError, match="route-2 head.*q\\^3"):
        F_ls_numeric(3, 0, 0.5, 64)


def test_character_refuses_a_negative_multiplicity(monkeypatch, capsys):
    # graded multiplicities are checked where the signed (q)_inf enters: a
    # negated Euler product makes character_ch raise AssertionError, and the
    # CLI exit 1
    real = characters.euler_product
    monkeypatch.setattr(characters, "euler_product", lambda t: -real(t))
    with pytest.raises(AssertionError, match="the character"):
        character_ch(CharacterParams(3, 0, 10))
    assert main(["char", "--ell", "3", "--s", "0"]) == 1
    assert '"ok": false' in capsys.readouterr().out


def test_character_checks_its_leading_coefficient(monkeypatch):
    # doubling the extraction series keeps the character's coefficients
    # nonnegative integers and makes its leading one 2 binomial(4, 2) = 12
    real = characters.coeff_series_exact
    monkeypatch.setattr(characters, "coeff_series_exact",
                        lambda ell, s, trunc: real(ell, s, trunc) * 2)
    with pytest.raises(AssertionError, match=r"ell = 3, s = 2 has leading "
                       r"coefficient 12 at q\^11/6"):
        character_ch(CharacterParams(3, 2, 10))


def test_character_checks_its_leading_coefficient_under_python_O():
    # the same spoiled series in python -O, which drops a bare assert
    script = ("from qchar import characters as c\n"
              "real = c.coeff_series_exact\n"
              "c.coeff_series_exact = lambda *args: real(*args) * 2\n"
              "try:\n"
              "    c.character_ch(c.CharacterParams(3, 2, 10))\n"
              "except AssertionError as err:\n"
              "    print(err)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(characters.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert "leading coefficient 12" in done.stdout


def test_H_value_matches_quadrature():
    with mp.workprec(PREC + 16):
        tau = mp.mpc("0.1", "0.9")
        for s in (0, 1):
            a = H_value(3, s, tau, PREC)
            b = fourier_coeff_by_quadrature(3, s, tau, prec=PREC)
            assert abs(a - b) <= mp.mpf("1e-30") * max(1, abs(a))


@settings(max_examples=6)
@given(st.integers(2, 4), st.integers(0, 2), st.sampled_from(("0.35", "0.65")),
       st.sampled_from(((0, 1), ("0.3", "0.9"))))
def test_fourier_certificate_bounds_observed_error(ell, s, height, tau):
    tau = mp.mpc(*tau)
    with mp.workprec(PREC + 64 + _GUARD_BITS):
        y0 = mp.im(tau) * mp.mpf(height)
        got, cert = fourier_quadrature(ell, s, tau, y0, PREC)
        want = H_value(ell, s, tau, PREC + 64)
    assert abs(got - want) <= cert.bound <= mp.mpf(2) ** -(PREC + _GUARD_BITS)
    assert abs(cert.h * cert.nodes - 1) < 1e-30 and cert.prec >= PREC


def test_fourier_quadrature_where_q_underflows_the_doubles():
    tau = mp.mpc(0, 200)
    got, cert = fourier_quadrature(3, 1, tau, prec=PREC)
    assert abs(got - H_value(3, 1, tau, PREC)) <= \
        cert.bound + mp.mpf(2) ** -PREC


def test_fourier_plan_raises_on_a_thin_strip():
    with pytest.raises(NearPoleError):
        fourier_quadrature(3, 0, mp.mpc(0, 1), mp.mpf("1e-9"), PREC)


def test_fourier_refuses_heights_off_the_strip():
    # pair_trapezoid checks 0 < y0 < Im tau itself: off the strip is a
    # ValueError, not a NearPoleError from a plan that failed
    for y0 in ("0", "-0.1", "1", "1.2"):
        with pytest.raises(ValueError, match="admissible strip") as err:
            fourier_quadrature(3, 0, mp.mpc(0, 1), mp.mpf(y0), PREC)
        assert not isinstance(err.value, NearPoleError)


def test_character_value_equals_H_over_eta5():
    # degree 3: ch = i H_{s+3/2} / eta^5, checked numerically at tau = i
    with mp.workprec(PREC + 16):
        tau = mp.mpc(0, 1)
        for s in (0, 1):
            ch = character_ch(CharacterParams(3, s, 60))
            val = sum((mp.mpf(c.numerator) * cexp(tau * e)
                       for e, c in ch.terms()), mp.mpc(0))
            ref = 1j * H_value(3, s, tau, PREC) / eta(tau, PREC) ** 5
            assert abs(val - ref) <= mp.mpf("1e-25") * abs(ref)


def test_F_numeric_certified_against_series():
    with mp.workprec(PREC + 16):
        t = mp.mpf("1.0")
        q = mp.exp(-t)
        for s in (0, 1):
            f = F_ls_exact(CharacterParams(3, s, 100))
            direct = sum((mp.mpf(c.numerator) * q ** e
                          for e, c in f.terms()), mp.mpf(0))
            value, bound = F_ls_numeric(3, s, t, PREC)
            # the dropped exact-series tail at trunc 100 is below e^{-90}
            assert abs(value - direct) <= bound + mp.mpf("1e-38")
            assert bound <= mp.mpf("1e-12") * abs(value)


def F_by_H(ell, s, t, prec):
    """F_{ell,s}(e^{-t}) = (-i)^ell q^{-h_s - ell/8} (q)_inf^{ell^2 - 2 ell}
    H_{s+ell/2}(i t/(2 pi)), q = e^{-t}: the partial-theta route."""
    with mp.workprec(prec + _GUARD_BITS):
        h = h_s(ell, s)
        phi = euler_phi_numeric(mp.exp(-t), mp.mpf(2) ** -(prec + 8))
        H = H_value(ell, s, 1j * t / (2 * mp.pi), prec)
        return ((-1j) ** ell * phi ** (ell * ell - 2 * ell) * H
                * mp.exp(t * (mp.mpf(h.numerator) / h.denominator
                              + mp.mpf(ell) / 8)))


@pytest.mark.parametrize("ell", [3, 4])
def test_F_numeric_bound_holds_at_low_precision(ell):
    # at 53 bits the pentagonal sum of the small (q)_inf ~ e^{-pi^2/(6t)}
    # cancels, and its ell^2-th power multiplies the digits lost: these cost
    # more than the dropped tail unless (q)_inf is summed at more bits
    with mp.workprec(53):
        t = mp.mpf("0.2")
    value, bound = F_ls_numeric(ell, 0, t, 53)
    with mp.workprec(400 + _GUARD_BITS):
        assert abs(value - F_by_H(ell, 0, t, 400)) <= bound
    assert bound <= mp.mpf("1e-12") * value


@settings(max_examples=30)
@given(st.integers(3, 7), st.integers(0, 17), st.floats(0.5, 0.9))
def test_F_via_H_value_within_the_numeric_bound(ell, s, t):
    # the two numeric forms of route 2: the H route against F_ls_numeric's
    # certified head and tail, where the latter is fast
    s = s % (2 * ell + 4)
    value, bound = F_ls_numeric(ell, s, t, PREC)
    assert abs(F_ls_via_H_value(ell, s, t, PREC) - value) <= bound


@pytest.mark.parametrize("ell", [4, 5])
@pytest.mark.parametrize("t", ["0.001", "0.01", "0.1", "0.5"])
def test_F_via_H_value_right_to_its_precision(ell, t):
    # without the e_min bits a draft lost 8 bits at (4, 21, 0.5) and 41 at
    # (5, 27, 0.6), at prec 128
    for s in (0, 1, ell, 2 * ell + 1, 20, 4 * ell + 5):
        got = F_ls_via_H_value(ell, s, t, PREC)
        with mp.workprec(PREC + 64 + _GUARD_BITS):
            want = F_ls_via_H_value(ell, s, t, PREC + 64)
            assert want > 0
            assert abs(got - want) <= mp.ldexp(want, -PREC), s


class _FirstBuild(Exception):
    """Raised in place of F_ls_numeric's first series build."""


def padded_Phi(ell, t, prec, monkeypatch):
    """The Phi(q1) of F_ls_numeric(ell, 0, t, prec), read from its frame at
    its first series build, which is stopped there."""
    def stop(*args):
        raise _FirstBuild

    monkeypatch.setattr(characters, "_F_ls_via_H_series", stop)
    with pytest.raises(_FirstBuild) as info:
        F_ls_numeric(ell, 0, t, prec)
    monkeypatch.undo()
    tb = info.tb
    while tb.tb_frame.f_code is not F_ls_numeric.__code__:
        tb = tb.tb_next
    return tb.tb_frame.f_locals["Phi"]


def test_F_numeric_Phi_is_an_upper_bound(monkeypatch):
    # the doubles' log_poch_lower alone fell up to 4.4e-12 below the true
    # Phi; its margin must lift it to or above, by at most 1e-8
    for t in (0.05, 0.1, 0.2, 0.5, 0.9, 2, 5):
        with mp.workprec(256 + 64):
            q1 = mp.exp(-mp.mpf(t) / 2)
            poch = mp.qp(mp.sqrt(q1), q1)
        for ell in (3, 4, 5, 6):
            for prec in (53, 128, 256):
                Phi = padded_Phi(ell, t, prec, monkeypatch)
                with mp.workprec(256 + 64):
                    ratio = Phi * poch ** (2 * ell)
                assert 1 <= ratio <= 1 + mp.mpf("1e-8"), (ell, t, prec)


def test_F_numeric_refuses_an_order_above_its_cap_before_building(
        monkeypatch):
    # at t = 0.01 the first head alone needs T0 = 82,246 terms, O(T0^2)
    # work; at t = 0.0001 it needs 657,973,626: both are refused before any
    # evaluation
    def build(*args):
        raise AssertionError("a series was built")

    def evaluate(*args):
        raise AssertionError("(q)_inf was evaluated")

    monkeypatch.setattr(characters, "_F_ls_via_H_series", build)
    monkeypatch.setattr(characters, "euler_phi", evaluate)
    with pytest.raises(RuntimeError, match="needs order 82246 > 20000"):
        F_ls_numeric(5, 0, 0.01)
    with pytest.raises(RuntimeError, match="needs order 657973626 > 20000"):
        F_ls_numeric(4, 0, 0.0001)


def test_lattice_exponent_closed_form():
    # _F_ls_via_H_series takes the exponent of q in q^{-h_s - ell/8}
    # q^{a^2/(2 ell)}, a = ell n + ell/2 - s, as the integer (ell n - 2s)(n
    # + 1)/2
    for ell in range(2, 9):
        for s in range(7):
            for n in range(41):
                a = Fraction(2 * ell * n + ell - 2 * s, 2)
                e = a * a / (2 * ell) - h_s(ell, s) - Fraction(ell, 8)
                assert e == Fraction((ell * n - 2 * s) * (n + 1), 2)
                assert e.denominator == 1
