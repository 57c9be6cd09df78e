"""Modular transformation laws for partial theta functions.

The transformed partial theta equals a sum of Mordell-type integrals
(Gaussian against a trigonometric kernel) plus, when Im z < 0, explicit
theta-function correction terms.  Each law is one verify_* function that
sums the left side directly at the transformed argument and builds the
right side in place, its integrals by the certified real-line trapezoid
rule certified.line_trapezoid, which also refuses a kernel pole within
0.01 of the path (certified.PoleNearContourError, an InputError).
SL2Matrix admits only c > 0, which every law here needs for a convergent
Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .certified import _GUARD_BITS, InputError, fraction_mpf, line_trapezoid
from .modular_objects import (DEFAULT_PREC, _require_upper_half, _theta_cert,
                              cexp, theta)
from .partial_theta import PartialThetaParams, _partial_theta_cert


@dataclass(frozen=True)
class SL2Matrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise InputError("determinant must be 1")
        if self.c <= 0:
            raise InputError("need c > 0 for a convergent Gaussian")

    def act(self, tau):
        return (self.a * tau + self.b) / (self.c * tau + self.d)


S_MATRIX = SL2Matrix(0, -1, 1, 0)


def mordell_integral(params: PartialThetaParams, z, tau, j: int,
                     gamma: SL2Matrix, prec: int = DEFAULT_PREC):
    """(integral over R of

        e^{pi i (c tau + d) x^2/2 - (pi i/sqrt(cM)) (r - 2Mj) x}
        / (1 - e^{2 pi i z 4cM} e^{4 pi i sqrt(cM) x}) dx,  Certificate).

    Denominator zeros sit at Im x = -2 sqrt(cM) Im z, so z off the real
    axis keeps the path clear; line_trapezoid refuses them within 0.01.

    line_trapezoid certifies the integral of the Gaussian's A, B and the
    kernel's zeta as passed, so they are formed at prec + 2 _GUARD_BITS
    bits: to first order their relative rounding u =
    2^(1 - prec - 2 _GUARD_BITS) moves the integral by at most u (|A| int
    x^2 |f| + |B| int |x| |f| + |zeta| int |f|/L), f the integrand and L =
    |1 - |zeta||: 2^-_GUARD_BITS of the shift at prec + _GUARD_BITS bits,
    which exceeded the certificate.
    """
    _require_upper_half(tau)
    r, M, c = params.r, params.M, gamma.c
    with mp.workprec(prec + 2 * _GUARD_BITS):
        cM = fraction_mpf(c * M)
        scM = mp.sqrt(cM)
        ctd = gamma.c * tau + gamma.d
        rjf = fraction_mpf(Fraction(r) - 2 * Fraction(M) * j)
        return line_trapezoid(mp.pi * 1j * ctd / 2, -mp.pi * 1j / scM * rjf,
                              cexp(4 * z * cM), 4 * mp.pi * scM, prec)


def _root_of_unity(exponent: Fraction):
    """e^{2 pi i exponent} with the rational exponent reduced mod 1 first."""
    return cexp(fraction_mpf(Fraction(exponent) % 1))


def _rounding(moduli) -> float:
    """In u = 2^(1 - prec - _GUARD_BITS), the first-order error radius 8
    moduli of a value the laws form at prec + _GUARD_BITS bits: mpmath
    rounds each operation within u/2 of its result, each value below takes
    at most 16 roundings along any path, and moduli is the value computed
    with every operand replaced by its modulus (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed. 2002, ch. 3); for a quotient
    N/D, the numerator's plus |N/D| times the denominator's, over |D|.  For
    an exponent w it is also the relative error it gives e^w."""
    return 8 * float(moduli)


# the relative rounding of _root_of_unity, in u: its exponent, at most 2 pi
# on moduli, and the exp itself
_ROOT = 1 + _rounding(2 * math.pi)


def verify_general_transform(params: PartialThetaParams, z, tau,
                             gamma: SL2Matrix,
                             prec: int = DEFAULT_PREC) -> dict:
    """Compare direct summation at gamma(tau) with the right side of the
    general transformation law:

    sqrt(-i (c tau + d)/2) * sum_{j=0}^{2c-1} (-1)^{j eps}
      e^{2 pi i a (2Mj - r)^2/(4cM)} *
      ( e^{2 pi i z(2Mj - r)} * mordell_integral(j)
        + [Im z < 0] * (1/(2 sqrt(cM))) * e^{2 pi i (2Mj - r)/(8cM)}
          * e^{2 pi i cM (c tau + d)(z - 1/(8cM))^2}
          * theta((c tau+d)/2 (z - 1/(8cM)) - 1/2 + (r-2Mj)/(4cM);
                  (c tau+d)/(8cM)) ).

    ``nodes`` counts the trapezoid nodes.  ``bound`` bounds ``abs_err``.
    It adds every part's certificate times the modulus of its factor: the
    integrals', and, from their cores, the left side's partial theta's and
    each theta's for arguments known within _rounding's radius.  To that it
    adds, doubled, the first-order rounding 2 u sum_P |P| (e_P + 4c + 2 + 4
    m_D/|c tau + d|), u = 2^(1 - prec - _GUARD_BITS) and m_D = c |tau| +
    |d|, over the right side's parts P: in u, e_P counts _ROOT for each
    root of unity, 1 plus _rounding of its exponent for each other exp, 2
    for 1/(2 sqrt(cM)) and 1 for each product; the sum over parts adds at
    most (4c - 1)/2, and sqrt(-i (c tau + d)/2) 4 m_D/|c tau + d| + 3/2.
    The integrals' inputs are formed as mordell_integral states.
    """
    r, eps, M = params.r, params.epsilon, params.M
    c = gamma.c
    with mp.workprec(prec + _GUARD_BITS):
        ctd = c * tau + gamma.d
        m_D = c * abs(tau) + abs(gamma.d)  # c tau + d on moduli
        tau_g = gamma.act(tau)
        lhs, cert = _partial_theta_cert(params, z, tau_g, prec, _rounding(
            (abs(gamma.a * tau) + abs(gamma.b) + abs(tau_g) * m_D)
            / abs(ctd)))
        bound = cert.bound
        wall = mp.im(z) < 0
        cM = Fraction(c) * M
        cMf = fraction_mpf(cM)
        scM = mp.sqrt(cMf)
        pref = mp.sqrt(-1j * ctd / 2)
        common = 4 * c + 2 + 4 * m_D / abs(ctd)
        total = mp.mpc(0)
        nodes, weighted = 0, mp.mpf(0)
        for j in range(2 * c):
            mj = 2 * M * j - Fraction(r)  # 2Mj - r
            mjf = fraction_mpf(mj)
            phase = (-1) ** (j * eps) * _root_of_unity(
                gamma.a * mj * mj / (4 * cM))
            weight = mp.exp(2j * mp.pi * z * mjf)
            integral, cert = mordell_integral(params, z, tau, j, gamma, prec)
            nodes += cert.nodes
            bound += abs(pref * weight) * cert.bound
            term = weight * integral
            weighted += abs(term) * (
                _ROOT + 3 + _rounding(2 * mp.pi * abs(z * mjf)) + common)
            if wall:
                shift = 1 / (8 * cMf)
                arg = ctd / 2 * (z - shift) - mp.mpf(1) / 2 - mjf / (4 * cMf)
                th, cert = _theta_cert(
                    arg, ctd / (8 * cMf), prec,
                    _rounding(m_D * (abs(z) + shift) / 2 + mp.mpf(1) / 2
                              + abs(mjf) / (4 * cMf)),
                    _rounding(2 * m_D / (8 * cMf)))
                factor = (1 / (2 * scM) * _root_of_unity(mj / (8 * cM))
                          * mp.exp(2j * mp.pi * cMf * ctd * (z - shift) ** 2))
                bound += abs(pref * factor) * cert.bound
                term += factor * th
                weighted += abs(factor * th) * (
                    2 * _ROOT + 7 + common + _rounding(
                        2 * mp.pi * cMf * m_D * (abs(z) + shift) ** 2))
            total += phase * term
        rhs = pref * total
        return {"lhs": lhs, "rhs": rhs, "abs_err": abs(lhs - rhs),
                "nodes": nodes, "bound": bound + mp.ldexp(
                    2 * abs(pref) * weighted, 1 - prec - _GUARD_BITS)}


def verify_S_transform(ell: int, s: int, z, tau,
                       prec: int = DEFAULT_PREC) -> dict:
    """Compare both sides of the S-transform specialization

    (-i tau)^{-1/2} theta_plus_{s+ell/2, eps, ell/2}(z; -1/tau) = ...

    odd ell (cosine kernel):
        (1/2) int e^{pi i tau x^2}
              e^{(2 pi i/sqrt(ell))(s+ell)(x - sqrt(ell) z)}
              / cos(sqrt(ell) pi (x - sqrt(ell) z)) dx

    even ell (sine kernel):
        -(i/2) int (same numerator)/sin(...) dx

    plus, for either parity, with e = 1 - ell mod 2 and z_s = z - e/(2 ell),

        [Im z < 0] ((-i)^e/sqrt(ell)) e^{-pi i s e/ell}
              e^{pi i ell tau z_s^2} theta(tau z_s + s/ell; tau/ell)

    with eps = ell mod 2 on the partial-theta side (the odd case uses the
    alternating sum).  With u = sqrt(ell) pi (x - sqrt(ell) z), 1/cos u =
    2 e^{iu}/(1 + e^{2iu}) and 1/sin u = -2i e^{iu}/(1 - e^{2iu}), so either
    integral is +-e^{C} times a Mordell-type integral with kernel
    1/(1 -+ e^{-2 pi i ell z} e^{2 pi i sqrt(ell) x}).

    ``nodes`` counts the trapezoid nodes.  ``bound`` bounds ``abs_err`` as
    in verify_general_transform: the certificates of the integral, of the
    left side's partial theta and of the theta, each times its factor's
    modulus, plus 2 u sum_P |P| e_P over the three parts, e_P counted by
    the same rule (3 for (-i tau)^{-1/2} and its product, and 1 for the sum
    of the right side).  The integral comes first, from coefficients formed
    at prec + 2 _GUARD_BITS bits as in mordell_integral, so that a pole
    near the path is refused before the left side is summed.
    """
    _require_upper_half(tau)
    with mp.workprec(prec + 2 * _GUARD_BITS):
        sl = mp.sqrt(mp.mpf(ell))
        integral, cert = line_trapezoid(
            mp.pi * 1j * tau, 2j * mp.pi / sl * (s + ell) + 1j * mp.pi * sl,
            (-1) ** ell * cexp(-ell * z), 2 * mp.pi * sl, prec)
    with mp.workprec(prec + _GUARD_BITS):
        params = PartialThetaParams(Fraction(s) + Fraction(ell, 2), ell % 2,
                                    Fraction(ell, 2))
        f_lhs = (-1j * tau) ** (-mp.mpf(1) / 2)
        pt, pt_cert = _partial_theta_cert(params, z, -1 / tau, prec,
                                          _rounding(2 / abs(tau)))
        lhs = f_lhs * pt
        wall = mp.im(z) < 0
        # e^{C} collects the x-free parts of the numerator and of e^{iu}
        pref = (-1) ** (ell + 1) * mp.exp(-2j * mp.pi * (s + ell) * z
                                          - 1j * mp.pi * ell * z)
        rhs = pref * integral
        bound = abs(f_lhs) * pt_cert.bound + abs(pref) * cert.bound
        weighted = 3 * abs(lhs) + abs(rhs) * (
            4 + _rounding(mp.pi * (2 * s + 3 * ell) * abs(z)))
        if wall:
            e = 1 - ell % 2
            zs = z - mp.mpf(e) / (2 * ell)
            m_zs = abs(z) + mp.mpf(e) / (2 * ell)  # z_s on moduli
            th, th_cert = _theta_cert(
                tau * zs + mp.mpf(s) / ell, tau / ell, prec,
                _rounding(abs(tau) * m_zs + mp.mpf(s) / ell),
                _rounding(2 * abs(tau) / ell))
            factor = ((-1j) ** e / sl * mp.exp(-mp.pi * 1j * s * e / ell)
                      * mp.exp(mp.pi * 1j * ell * tau * zs * zs))
            rhs += factor * th
            bound += abs(factor) * th_cert.bound
            weighted += abs(factor * th) * (8 + _rounding(
                mp.pi * (s * e / ell + ell * abs(tau) * m_zs ** 2)))
        return {"lhs": lhs, "rhs": rhs, "abs_err": abs(lhs - rhs),
                "nodes": cert.nodes, "bound": bound + mp.ldexp(
                    2 * weighted, 1 - prec - _GUARD_BITS)}


def half_index_identity_check(z, tau, prec: int = DEFAULT_PREC):
    """|(1/2) e^{-pi i z/2 - pi i/4 + pi i tau/16}
        (theta(z/2 - tau/8 - 1/4; tau/4) + i theta(z/2 - tau/8 + 1/4; tau/4))
        - theta(z; tau)|."""
    with mp.workprec(prec + _GUARD_BITS):
        pref = mp.exp(-mp.pi * 1j * z / 2 - mp.pi * 1j / 4
                      + mp.pi * 1j * tau / 16) / 2
        lhs = pref * (theta(z / 2 - tau / 8 - mp.mpf(1) / 4, tau / 4, prec)
                      + 1j * theta(z / 2 - tau / 8 + mp.mpf(1) / 4, tau / 4,
                                   prec))
        return abs(lhs - theta(z, tau, prec))
