"""Partial (false) theta functions and the script-F/G sum families.

The one-sided theta sum

    theta_plus_{r,eps,M}(z; tau) = sum_{n>=0} (-1)^{n eps}
        zeta^{2Mn - r} q^{(2Mn - r)^2 / (4M)}

and the small-t families F_{j,r}(t) and G_{j,r}(t) are Gaussian sums,
evaluated by the certified summation of ``certified_gaussian_sum``.  The
small-t expansions of F and G are Euler--Maclaurin expansions whose exact
coefficients are Bernoulli-polynomial values, written out in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from .bernoulli_euler import bernoulli_poly
from .certified import (_GUARD_BITS, InputError, certified_gaussian_sum,
                        fraction_mpf)
from .modular_objects import DEFAULT_PREC, _require_upper_half


@dataclass(frozen=True)
class PartialThetaParams:
    """Indices (r, epsilon, M): M a positive half-integer, r rational.

    The canonical uses have r - M integral (r = s - M or s + M with s a
    nonnegative integer), but the sum itself is well-defined for any
    rational r, and the completion identity is exercised off the integral
    lattice too, so only M is constrained here.
    """
    r: Fraction
    epsilon: int
    M: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "M", Fraction(self.M))
        if self.epsilon not in (0, 1):
            raise InputError("epsilon must be 0 or 1")
        if self.M <= 0 or (2 * self.M).denominator != 1:
            raise InputError("M must be a positive half-integer")


def partial_theta(params: PartialThetaParams, z, tau,
                  prec: int = DEFAULT_PREC):
    """Direct summation of theta_plus with a certified tail cutoff: with
    x = n - r/(2M), term n is (-1)^{n eps} e^{2 pi i tau M x^2 + 4 pi i M z x}.

    Exponentials are built from tau and z directly; no fractional powers of
    a complex q are ever taken.
    """
    return _partial_theta_cert(params, z, tau, prec)[0]


def _partial_theta_cert(params: PartialThetaParams, z, tau, prec: int,
                        dtau=None):
    """(partial_theta's value, Certificate): its Gaussian sum over x = n +
    r, alpha = 2 pi i M tau and beta = 4 pi i M z formed at prec +
    _GUARD_BITS bits; with dtau, for tau known within dtau u, u = 2^(1 -
    prec - _GUARD_BITS), by the radius 2 pi M (dtau + 3|tau|) and 12 pi M
    |z|, which counts alpha's and beta's own rounding."""
    _require_upper_half(tau)
    radius = None if dtau is None else (
        2 * math.pi * float(params.M) * (dtau + 3 * abs(complex(tau))),
        12 * math.pi * float(params.M) * abs(complex(z)))
    with mp.workprec(prec + _GUARD_BITS):
        M = fraction_mpf(params.M)
        return certified_gaussian_sum(
            2j * mp.pi * tau * M, 4j * mp.pi * M * z,
            -params.r / (2 * params.M), (-1) ** params.epsilon, (1,), prec,
            radius)


# ------------------------------------------------------- graded constants


@dataclass(frozen=True)
class GradedCoeff:
    """Exact constant rat * 2^two_pow * pi^pi_pow with fractional grades
    (two_pow and pi_pow may be half-integers, e.g. from (2 pi)^{-5/2})."""
    rat: Fraction
    two_pow: Fraction = Fraction(0)
    pi_pow: Fraction = Fraction(0)

    def value(self, prec: int = DEFAULT_PREC):
        with mp.workprec(prec + _GUARD_BITS):
            v = fraction_mpf(self.rat)
            if self.two_pow:
                v *= mp.mpf(2) ** fraction_mpf(self.two_pow)
            if self.pi_pow:
                v *= mp.pi ** fraction_mpf(self.pi_pow)
            return v


class AsympExpansion:
    """e^{a/t} * sum over terms c * t^e, valid up to O(t^order).

    The exponential rate a = a_rat * pi^2 is exact.  Each term coefficient
    is a sum of :class:`GradedCoeff` values, so mixed constants like
    (2 pi)^{-5/2} pi^2 / 4 stay exact until final evaluation.
    """

    def __init__(self, terms: dict, order, a_rat=0):
        self.a_rat = Fraction(a_rat)
        # terms: dict Fraction exponent -> tuple of GradedCoeff
        self.terms: dict[Fraction, tuple] = {}
        for e, cs in terms.items():
            cs = tuple(c for c in cs if c.rat != 0)
            if cs:
                self.terms[Fraction(e)] = cs
        self.order = Fraction(order)

    def coefficient(self, exponent) -> tuple:
        return self.terms.get(Fraction(exponent), ())

    def evaluate(self, t, prec: int = DEFAULT_PREC):
        with mp.workprec(prec + _GUARD_BITS):
            t = mp.mpf(t)
            acc = mp.mpf(0)
            for e, cs in sorted(self.terms.items()):
                c = mp.fsum(c.value(prec) for c in cs)
                acc += c * t ** fraction_mpf(e)
            if self.a_rat:
                acc *= mp.exp(fraction_mpf(self.a_rat) * mp.pi ** 2 / t)
            return acc

    def __eq__(self, other):
        if not isinstance(other, AsympExpansion):
            return NotImplemented
        return (self.a_rat == other.a_rat and self.order == other.order
                and self.terms == other.terms)


# ----------------------------------------------- the script-F/G sum families


def script_F(j: int, r, t, prec: int = DEFAULT_PREC):
    """2^{-2j} t^j sum_{n>=0} (-1)^n (n+r)^{2j} e^{-(n+r)^2 t/4}, t > 0."""
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        acc, _ = certified_gaussian_sum(-t / 4, 0, r, -1,
                                        (0,) * (2 * j) + (1,), prec)
        return mp.mpf(2) ** (-2 * j) * t ** j * acc


def script_F_expansion(j: int, r, N: int) -> AsympExpansion:
    """Small-t expansion of script_F with exact Bernoulli coefficients:

        -sum_{n=0}^{N} [B_{2n+2j+1}(r/2) - B_{2n+2j+1}((r+1)/2)]
                        / ((2n+2j+1) n!) * (-1)^n t^{n+j} + O(t^{N+j+1}).
    """
    r = Fraction(r)
    terms = {}
    for n in range(N + 1):
        k = 2 * n + 2 * j + 1
        c = -Fraction((-1) ** n, (k) * factorial(n)) * (
            bernoulli_poly(k, r / 2) - bernoulli_poly(k, (r + 1) / 2))
        terms[Fraction(n + j)] = (GradedCoeff(c),)
    return AsympExpansion(terms=terms, order=Fraction(N + j + 1))


def script_G(j: int, r, t, prec: int = DEFAULT_PREC):
    """t^{j-1/2} sum_{n>=0} (n+r)^{2j-1} e^{-(n+r)^2 t}, for t > 0."""
    if j < 1:
        raise ValueError("j must be >= 1")
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        acc, _ = certified_gaussian_sum(-t, 0, r, 1,
                                        (0,) * (2 * j - 1) + (1,), prec)
        return t ** (j - mp.mpf(1) / 2) * acc


def script_G_integral(j: int) -> Fraction:
    """Integral over [0, inf) of x^{2j-1} e^{-x^2}: (j-1)!/2."""
    return Fraction(factorial(j - 1), 2)


def script_G_expansion(j: int, r, N: int) -> AsympExpansion:
    """Small-t expansion of script_G via Euler--Maclaurin:

        (j-1)!/(2 sqrt t)
        - sum_{m=0}^{N} B_{2j+2m}(r) (-1)^m / ((2j+2m) m!) t^{j+m-1/2}
        + O(t^{N+j+1/2}).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    r = Fraction(r)
    terms = {Fraction(-1, 2): (GradedCoeff(script_G_integral(j)),)}
    for m in range(N + 1):
        k = 2 * j + 2 * m
        c = -Fraction((-1) ** m, k * factorial(m)) * bernoulli_poly(k, r)
        terms[Fraction(2 * (j + m) - 1, 2)] = (GradedCoeff(c),)
    return AsympExpansion(terms=terms, order=Fraction(2 * (j + N) + 1, 2))


def script_FG_halving_orders(prec: int = DEFAULT_PREC) -> list[dict]:
    """Measured orders of the truncated script-F/G expansions.

    For j in (1, 2) and N in (0, 1, 2) at r = 1/3, the order is
    log2(d(0.1)/d(0.05)) with d the error of the expansion at t; each row
    also holds the order the expansion claims: N + j + 1 for F and
    N + j + 1/2 for G.  The direct sums do not depend on N, so each (family,
    j) evaluates them once per t.
    """
    rows = []
    r = Fraction(1, 3)
    with mp.workprec(prec + 16):
        t1, t2 = mp.mpf("0.1"), mp.mpf("0.05")
        for family, direct, expand in (("F", script_F, script_F_expansion),
                                       ("G", script_G, script_G_expansion)):
            for j in (1, 2):
                v1, v2 = direct(j, r, t1, prec), direct(j, r, t2, prec)
                for N in (0, 1, 2):
                    e = expand(j, r, N)
                    d1 = abs(v1 - e.evaluate(t1, prec))
                    d2 = abs(v2 - e.evaluate(t2, prec))
                    rows.append({"family": family, "j": j, "N": N,
                                 "order": mp.log(d1 / d2) / mp.log(2),
                                 "expected": fraction_mpf(e.order)})
    return rows
