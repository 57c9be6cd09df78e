"""Leading asymptotics, the constant families C_ell and C*_ell, the exact
residue/binomial identity suite, the full degree-3 expansion, and quantum
dimension ratios.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath as mp

from .bernoulli_euler import euler_poly, higher_bernoulli_poly
from .certified import _GUARD_BITS
from .characters import H_value, _H_poly, _H_sum, central_charge, h_s
from .modular_objects import DEFAULT_PREC
from .partial_theta import AsympExpansion, GradedCoeff

__all__ = [
    "C_ell", "C_ell_star", "binomial_reciprocal_identity", "exp_pole_residue",
    "exp_pole_residue_I", "verify_appendix",
    "leading_asym_F", "first_correction_F", "leading_asym_ch",
    "sl3_bracket_coefficient", "sl3_bracket_expansion", "full_expansion_sl3",
    "sl3_bracket_value", "qdim_ratio", "qdim_slope_exact", "qdim_slope_report",
]


def C_ell(ell: int) -> GradedCoeff:
    """2^{1-2 ell} (ell-1)! / Gamma((ell+1)/2)^2, kept exact.

    Odd ell: Gamma((ell+1)/2) is an integer factorial, so the value is a
    plain rational.  Even ell: Gamma((ell+1)/2)^2 = pi * (odd factorial
    ratio)^2, so the value carries pi^{-1}.  The grade of 2 stays 0 and pi
    is transcendental, so equal constants have equal fields.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    base = Fraction(factorial(ell - 1), 2 ** (2 * ell - 1))
    if ell % 2:
        m = (ell - 1) // 2
        return GradedCoeff(base / Fraction(factorial(m)) ** 2)
    m = ell // 2
    # Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
    g = Fraction(factorial(2 * m), 4 ** m * factorial(m))
    return GradedCoeff(base / g ** 2, Fraction(0), Fraction(-1))


def C_ell_star(ell: int) -> GradedCoeff:
    """Higher-order-Bernoulli form of the same constant, from the residues
    of :func:`exp_pole_residue` and :func:`exp_pole_residue_I`:

    odd ell:  (-1)^{(ell-1)/2} B^{(ell)}_{ell-1}(ell/2) / (2 (ell-1)!),
    even ell: (-1)^{ell/2+1} (1/(2 pi)) B^{(ell)}_{ell-2}(ell/2) / (ell-2)!.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell % 2:
        return GradedCoeff((-1) ** ((ell - 1) // 2) * exp_pole_residue(ell)
                           / 2)
    return GradedCoeff(Fraction((-1) ** (ell // 2 + 1), 2)
                       * exp_pole_residue_I(ell), Fraction(0), Fraction(-1))


def binomial_reciprocal_identity(n: int, c: int) -> bool:
    """sum_{k=0}^{n} C(n,k) (-1)^k / (k+c) = n! (c-1)! / (n+c)!, exactly,
    for c >= 1: both sides times L = (n+c)!/(c-1)! = c (c+1) ... (n+c), of
    which every k + c is a factor, compared as ints."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    L = factorial(n + c) // factorial(c - 1)
    lhs = sum(comb(n, k) * (-1) ** k * (L // (k + c)) for k in range(n + 1))
    return lhs == factorial(n)


def _binom_general(top: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= top - i
    return out / factorial(k)


@lru_cache(maxsize=64)
def exp_pole_residue(ell: int) -> Fraction:
    """Residue at z=0 of e^{ell z/2}/(e^z - 1)^ell, via exact series:
    coefficient of z^{ell-1} in e^{ell z/2} (z/(e^z-1))^ell,
    i.e. B^{(ell)}_{ell-1}(ell/2)/(ell-1)!."""
    return higher_bernoulli_poly(ell - 1, ell, Fraction(ell, 2)) \
        / factorial(ell - 1)


@lru_cache(maxsize=64)
def exp_pole_residue_I(ell: int) -> Fraction:
    """Residue at z=0 of z e^{ell z/2}/(e^z - 1)^ell (nonzero for even ell):
    B^{(ell)}_{ell-2}(ell/2)/(ell-2)!."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return higher_bernoulli_poly(ell - 2, ell, Fraction(ell, 2)) \
        / factorial(ell - 2)


def verify_appendix(ell_max: int = 20) -> dict:
    """Exact identity suite for the constants; raises on any failure."""
    report = {"ell_max": ell_max, "equal": [], "recurrence": [],
              "binomial": True, "residues": []}
    for ell in range(1, ell_max + 1):
        if C_ell(ell) != C_ell_star(ell):
            raise AssertionError(f"C_ell != C_ell_star at ell={ell}")
        report["equal"].append(ell)
    for ell in range(1, ell_max - 1):
        C = C_ell(ell)
        rhs = GradedCoeff(C.rat * Fraction(ell, 4 * (ell + 1)), C.two_pow,
                          C.pi_pow)
        if C_ell(ell + 2) != rhs:
            raise AssertionError(f"recurrence fails at ell={ell}")
        report["recurrence"].append(ell)
    for n in range(0, 21):
        for c in range(1, 21):
            if not binomial_reciprocal_identity(n, c):
                raise AssertionError(f"binomial identity fails at n={n}, c={c}")
    for ell in range(2, ell_max + 1):
        if ell % 2:
            # closed form: generalized binomial C(ell/2 - 1, ell - 1)
            want = _binom_general(Fraction(ell, 2) - 1, ell - 1)
            got = exp_pole_residue(ell)
        else:
            half = ell // 2
            want = Fraction((-1) ** (half + 1)
                            * factorial(half - 1) ** 2, factorial(ell - 1))
            got = exp_pole_residue_I(ell)
        if want != got:
            raise AssertionError(f"residue closed form fails at ell={ell}")
        report["residues"].append(ell)
    return report


def _one_term_model(ell: int, a_rat: Fraction, p: Fraction) -> AsympExpansion:
    """C_ell (t/2pi)^p e^{a_rat pi^2/t}, for ell >= 3 (else ValueError)."""
    if ell < 3:
        raise ValueError("ell must be >= 3")
    C = C_ell(ell)
    coeff = GradedCoeff(C.rat, C.two_pow - p, C.pi_pow - p)
    return AsympExpansion(a_rat=a_rat, terms={p: (coeff,)}, order=p + 1)


def leading_asym_F(ell: int, s: int) -> AsympExpansion:
    """One-term model C_ell (t/2pi)^{1 - ell^2/2} e^{-pi^2 (ell^2-2 ell)/(6t)}
    for F_{ell,s}(e^{-t}).

    The model is independent of s by construction, but its relative error
    is not: F/model = 1 + c1(s) t + O(t^2), with the slope c1(s) given by
    :func:`first_correction_F` (7/8 + s/2 - 3/pi^2 for ell = 3)."""
    return _one_term_model(ell, -Fraction(ell * ell - 2 * ell, 6),
                           Fraction(2 - ell * ell, 2))


def first_correction_F(ell: int, s: int) -> tuple:
    """Exact slope c1(s) of the relative error of :func:`leading_asym_F`,

        F_{ell,s}(e^{-t}) / model(t) = 1 + c1(s) t + O(t^2),
        c1(s) = (h_s - c/24) + (ell^2 - 1)/24 + x_{-1}/x_{-2},

    where x_m are the bracket coefficients of :func:`sl3_bracket_coefficient`
    (F/model = e^{(h_s - c/24 + (ell^2-1)/24) t} t^2 X(t) / x_{-2}).  For
    ell = 3 this is 7/8 + s/2 - 3/pi^2.  Returned as a tuple of
    :class:`GradedCoeff` (a rational part and a pi^{-2} part).  Only
    ell = 3 has a bracket expansion here, so other ell raise ValueError.
    """
    if ell != 3:
        raise ValueError("first_correction_F is known for ell == 3 only")
    alpha = (h_s(ell, s) - Fraction(central_charge(ell), 24)
             + Fraction(ell * ell - 1, 24))
    return _by_grade({(Fraction(0), Fraction(0)): alpha}, [(1, s)], 0)


def leading_asym_ch(ell: int, s: int) -> AsympExpansion:
    """One-term model C_ell sqrt(t/2pi) e^{pi^2 (2 ell - 1)/(6t)} for the
    character value at q = e^{-t}; independent of s."""
    return _one_term_model(ell, Fraction(2 * ell - 1, 6), Fraction(1, 2))


def _by_grade(parts: dict, weighted, pi_shift: int) -> tuple:
    """The nonzero GradedCoeff of parts + sum_(w, s) w x_{-1}(s)/x_{-2}, x_m
    from :func:`sl3_bracket_coefficient`, keyed by the grades of 2 and pi,
    the latter raised by pi_shift, in the order they first appear; x_{-2} =
    pi^2/4 at every s."""
    (lead,) = sl3_bracket_coefficient(0, -2)
    for w, s in weighted:
        for c in sl3_bracket_coefficient(s, -1):
            grade = (c.two_pow - lead.two_pow,
                     c.pi_pow - lead.pi_pow + pi_shift)
            parts[grade] = parts.get(grade, Fraction(0)) + w * c.rat / lead.rat
    return tuple(GradedCoeff(r, *grade) for grade, r in parts.items() if r)


def sl3_bracket_coefficient(s: int, m: int) -> tuple:
    """Collected t^m coefficient (m >= -2) of the bracket

        X(t) = (pi^2/(4 t^2) - 3/(4 t)) sum_n E_{2n}(x_s)/n! (-3t/2)^n
               + (9/4) sum_n E_{2n+2}(x_s)/n! (-3t/2)^n,

    with x_s = 1/2 - s/3; returned as a tuple of :class:`GradedCoeff`
    (a pi^2 part and a rational part)."""
    if m < -2:
        raise ValueError("m must be >= -2")
    x_s = Fraction(1, 2) - Fraction(s, 3)
    pi2 = Fraction(0)
    rat = Fraction(0)
    if m + 2 >= 0:
        pi2 += Fraction(1, 4) * euler_poly(2 * m + 4, x_s) \
            * Fraction(-3, 2) ** (m + 2) / factorial(m + 2)
    if m + 1 >= 0:
        rat -= Fraction(3, 4) * euler_poly(2 * m + 2, x_s) \
            * Fraction(-3, 2) ** (m + 1) / factorial(m + 1)
    if m >= 0:
        rat += Fraction(9, 4) * euler_poly(2 * m + 2, x_s) \
            * Fraction(-3, 2) ** m / factorial(m)
    return tuple(c for c in (GradedCoeff(pi2, Fraction(0), Fraction(2)),
                             GradedCoeff(rat)) if c.rat)


def sl3_bracket_expansion(s: int, N: int) -> AsympExpansion:
    """sum_{m=-2}^{N} x_m t^m with the collected coefficients above;
    error O(t^{N+1})."""
    terms = {Fraction(m): sl3_bracket_coefficient(s, m)
             for m in range(-2, N + 1)}
    return AsympExpansion(terms=terms, order=Fraction(N + 1))


def full_expansion_sl3(s: int, N: int) -> AsympExpansion:
    """Character expansion at q = e^{-t} for degree 3:

        ch = e^{5 pi^2/(6t)} (t/2pi)^{5/2} [ sum_{m=-2}^{N} x_m t^m
                                             + O(t^{N+1}) ].
    """
    shift = Fraction(5, 2)
    terms = {m + shift: tuple(GradedCoeff(c.rat, c.two_pow - shift,
                                          c.pi_pow - shift) for c in cs)
             for m, cs in sl3_bracket_expansion(s, N).terms.items()}
    return AsympExpansion(a_rat=Fraction(5, 6), terms=terms,
                          order=shift + N + 1)


def sl3_bracket_value(s: int, t, prec: int = DEFAULT_PREC):
    """Numeric bracket X(t) = i * H_{s+3/2}(i t / (2 pi)); real up to
    exponentially small error."""
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        tau = 1j * t / (2 * mp.pi)
        return mp.re(1j * H_value(3, s, tau, prec))


def qdim_ratio(ell: int, s: int, t, prec: int = DEFAULT_PREC):
    """ch[V_s]/ch[V_0] at tau = i t; the eta factors cancel, leaving
    H_{s+ell/2}(it)/H_{ell/2}(it), two Gaussian sums over the one
    polynomial P of characters._H_poly."""
    if s == 0:
        return mp.mpf(1)
    with mp.workprec(prec + _GUARD_BITS):
        tau = 1j * mp.mpf(t)
        poly = _H_poly(ell, tau, prec)
        num = _H_sum(ell, s, tau, poly, prec)
        den = _H_sum(ell, 0, tau, poly, prec)
        return mp.re(num / den)


def qdim_slope_exact(ell: int, s: int) -> tuple:
    """Exact small-t slope of :func:`qdim_ratio`,

        qdim_ratio(ell, s, t) = 1 + slope t + O(t^2),
        slope = 2 pi (x_{-1}(s) - x_{-1}(0)) / x_{-2},

    since the ratio is X_s(2 pi t) / X_0(2 pi t) for the bracket X of
    :func:`sl3_bracket_coefficient`, whose x_{-2} = pi^2/4 does not depend
    on s.  For ell = 3 this is -pi s^2/3.  Returned as a tuple of
    :class:`GradedCoeff`; only ell = 3 has a bracket expansion here, so other
    ell raise ValueError.
    """
    if ell != 3:
        raise ValueError("qdim_slope_exact is known for ell == 3 only")
    return _by_grade({}, [(2, s), (-2, 0)], 1)


# the two t of the Richardson slope estimate in qdim_slope_report
_SLOPE_T_PAIR = ("0.02", "0.01")


def qdim_slope_report(ell: int = 3, s: int = 1,
                      prec: int = DEFAULT_PREC) -> dict:
    """Richardson estimate of the small-t slope of the quantum-dimension
    ratio at the t of _SLOPE_T_PAIR, compared against the reference value
    -s^2 (pi^2 - 1)/(3 pi).

    For ell = 3 the report also holds ``exact_slope`` from
    :func:`qdim_slope_exact` (-pi s^2/3).  The comparison with the reference
    is reported, not asserted.  At s = 0, where the reference is 0 (the
    ratio is identically 1), ``relative_deviation`` is the absolute one.
    """
    with mp.workprec(prec + _GUARD_BITS):
        t1, t2 = (mp.mpf(x) for x in _SLOPE_T_PAIR)
        s1 = (qdim_ratio(ell, s, t1, prec) - 1) / t1
        s2 = (qdim_ratio(ell, s, t2, prec) - 1) / t2
        # slope(t) = a + b t + ...; eliminate b with the two-point rule
        richardson = (t1 * s2 - t2 * s1) / (t1 - t2)
        reference = -s * s * (mp.pi ** 2 - 1) / (3 * mp.pi)
        rel_dev = abs(richardson - reference) / (abs(reference) or 1)
        report = {
            "measured_slope": richardson,
            "reference_slope": reference,
            "relative_deviation": rel_dev,
            "within_5_percent": bool(rel_dev <= mp.mpf("0.05")),
        }
        if ell == 3:
            report["exact_slope"] = mp.fsum(
                c.value(prec) for c in qdim_slope_exact(ell, s))
        return report
