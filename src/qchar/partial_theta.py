"""Partial (false) theta functions and the Euler--Maclaurin expansion engine.

The one-sided theta sum

    theta_plus_{r,eps,M}(z; tau) = sum_{n>=0} (-1)^{n eps}
        zeta^{2Mn - r} q^{(2Mn - r)^2 / (4M)}

is evaluated by direct summation with a certified Gaussian tail bound.  The
small-t expansion families F_{j,r}(t) and G_{j,r}(t) are driven by an exact
Euler--Maclaurin formula whose coefficients are Bernoulli-polynomial values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from .bernoulli_euler import bernoulli_poly
from .modular_objects import (DEFAULT_PREC, _GUARD_BITS, _require_upper_half,
                              _tol, fraction_mpf)


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
            raise ValueError("epsilon must be 0 or 1")
        if self.M <= 0 or (2 * self.M).denominator != 1:
            raise ValueError("M must be a positive half-integer")


def partial_theta(params: PartialThetaParams, z, tau,
                  prec: int = DEFAULT_PREC):
    """Direct summation of theta_plus with a certified tail cutoff.

    Exponentials are built from tau and z directly; no fractional powers of
    a complex q are ever taken.
    """
    _require_upper_half(tau)
    r, eps, M = params.r, params.epsilon, params.M
    with mp.workprec(prec + _GUARD_BITS):
        v = mp.im(tau)
        y = mp.im(z)
        log_tol = -(prec + 8) * mp.log(2)
        M4 = 4 * fraction_mpf(M)
        total = mp.mpc(0)
        n = 0
        prev_log_bound = mp.inf
        while True:
            a = 2 * M * n - r  # rational
            af = fraction_mpf(a)
            total += (-1) ** (n * eps) * mp.exp(
                2j * mp.pi * z * af + 2j * mp.pi * tau * af * af / M4)
            # log|term| = -2 pi y a - 2 pi v a^2/(4M); quadratic wins
            log_bound = -2 * mp.pi * y * af - 2 * mp.pi * v * af * af / M4
            if af > 0 and log_bound < log_tol and \
                    log_bound < prev_log_bound - mp.log(2):
                # bounds now halve (at least) per step: remaining sum is
                # below twice the next bound, i.e. below tolerance
                return total
            prev_log_bound = log_bound
            n += 1
            if n > 10_000_000:
                raise RuntimeError("partial theta not converging")


def euler_maclaurin_sum(derivs_at_0, I_f, alpha, t, N: int):
    """Truncated expansion of sum_{n>=0} f((n+alpha)t):

        I_f / t - sum_{n=0}^{N} B_{n+1}(alpha)/(n+1)! f^(n)(0) t^n.

    ``derivs_at_0[n]`` must be f^(n)(0) for n = 0..N (rationals or floats);
    ``I_f`` is the integral of f over [0, infinity).
    """
    if len(derivs_at_0) < N + 1:
        raise ValueError("need derivatives up to order N")
    alpha = Fraction(alpha)
    t = mp.mpf(t)
    acc = mp.mpf(I_f) / t
    for n in range(N + 1):
        b = bernoulli_poly(n + 1, alpha) / factorial(n + 1)
        d = derivs_at_0[n]
        if isinstance(d, Fraction):
            d = fraction_mpf(d)
        acc -= fraction_mpf(b) * d * t ** n
    return acc


def gaussian_monomial_derivs(k: int, N: int) -> list[Fraction]:
    """Exact derivatives at 0 of x^k e^{-x^2}, orders 0..N."""
    out = []
    for n in range(N + 1):
        # coefficient of x^n in x^k sum (-x^2)^m/m!
        if n < k or (n - k) % 2:
            out.append(Fraction(0))
        else:
            m = (n - k) // 2
            out.append(Fraction((-1) ** m * factorial(n), factorial(m)))
    return out


# ------------------------------------------------------- pi-graded constants


@dataclass(frozen=True)
class PiGradedRational:
    """Exact constant rat * pi^pi_pow; arithmetic stays in one grade."""
    rat: Fraction
    pi_pow: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rat", Fraction(self.rat))

    def __mul__(self, other):
        if isinstance(other, PiGradedRational):
            return PiGradedRational(self.rat * other.rat,
                                    self.pi_pow + other.pi_pow)
        return PiGradedRational(self.rat * Fraction(other), self.pi_pow)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, PiGradedRational):
            other = PiGradedRational(Fraction(other))
        if self.rat == 0:
            return other
        if other.rat == 0:
            return self
        if self.pi_pow != other.pi_pow:
            raise ValueError(
                f"cannot add pi^{self.pi_pow} and pi^{other.pi_pow} terms "
                "exactly")
        return PiGradedRational(self.rat + other.rat, self.pi_pow)

    def __eq__(self, other):
        if not isinstance(other, PiGradedRational):
            return NotImplemented
        if self.rat == 0 and other.rat == 0:
            return True
        return self.rat == other.rat and self.pi_pow == other.pi_pow

    def value(self, prec: int = DEFAULT_PREC):
        with mp.workprec(prec + _GUARD_BITS):
            return fraction_mpf(self.rat) * mp.pi ** self.pi_pow

    def __repr__(self):
        if self.pi_pow == 0:
            return f"{self.rat}"
        return f"{self.rat}*pi^{self.pi_pow}"


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

    The exponential rate a is exact: a = a_rat * pi^a_pi_pow.  Each term
    coefficient is a sum of :class:`GradedCoeff` values, so mixed constants
    like (2 pi)^{-5/2} pi^2 / 4 stay exact until final evaluation.
    """

    def __init__(self, a_rat=Fraction(0), a_pi_pow: int = 0, terms=None,
                 order=None):
        self.a_rat = Fraction(a_rat)
        self.a_pi_pow = int(a_pi_pow)
        # terms: dict Fraction exponent -> tuple of GradedCoeff
        self.terms: dict[Fraction, tuple] = {}
        for e, cs in (terms or {}).items():
            e = Fraction(e)
            if isinstance(cs, GradedCoeff):
                cs = (cs,)
            cs = tuple(c for c in cs if c.rat != 0)
            if cs:
                self.terms[e] = cs
        self.order = None if order is None else Fraction(order)

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
                acc *= mp.exp(fraction_mpf(self.a_rat)
                              * mp.pi ** self.a_pi_pow / t)
            return acc

    def __eq__(self, other):
        if not isinstance(other, AsympExpansion):
            return NotImplemented
        return (self.a_rat == other.a_rat
                and (self.a_rat == 0 or self.a_pi_pow == other.a_pi_pow)
                and self.order == other.order
                and self.terms == other.terms)

    def to_json(self) -> dict:
        def frac(f):
            return f"{f.numerator}/{f.denominator}"
        return {
            "a": {"rat": frac(self.a_rat), "pi_pow": self.a_pi_pow},
            "order": None if self.order is None else frac(self.order),
            "terms": [
                {"t_pow": frac(e),
                 "coeffs": [{"rat": frac(c.rat), "two_pow": frac(c.two_pow),
                             "pi_pow": frac(c.pi_pow)} for c in cs]}
                for e, cs in sorted(self.terms.items())],
        }


# ----------------------------------------------- the script-F/G sum families


def script_F(j: int, r, t, prec: int = DEFAULT_PREC):
    """2^{-2j} t^j sum_{n>=0} (-1)^n (n+r)^{2j} e^{-(n+r)^2 t/4}."""
    r = Fraction(r)
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        rf = fraction_mpf(r)
        cutoff = (prec + 8) * mp.log(2)
        acc = mp.mpf(0)
        n = 0
        while True:
            x = n + rf
            expo = x * x * t / 4
            acc += (-1) ** n * x ** (2 * j) * mp.exp(-expo)
            if x > 0 and expo > cutoff + 2 * j * mp.log(abs(x) + 2):
                break
            n += 1
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
        terms[Fraction(n + j)] = GradedCoeff(c)
    return AsympExpansion(terms=terms, order=Fraction(N + j + 1))


def script_G(j: int, r, t, prec: int = DEFAULT_PREC):
    """t^{j-1/2} sum_{n>=0} (n+r)^{2j-1} e^{-(n+r)^2 t}."""
    if j < 1:
        raise ValueError("j must be >= 1")
    r = Fraction(r)
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        rf = fraction_mpf(r)
        cutoff = (prec + 8) * mp.log(2)
        acc = mp.mpf(0)
        n = 0
        while True:
            x = n + rf
            expo = x * x * t
            acc += x ** (2 * j - 1) * mp.exp(-expo)
            if x > 0 and expo > cutoff + 2 * j * mp.log(abs(x) + 2):
                break
            n += 1
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
    terms = {Fraction(-1, 2): GradedCoeff(script_G_integral(j))}
    for m in range(N + 1):
        k = 2 * j + 2 * m
        c = -Fraction((-1) ** m, k * factorial(m)) * bernoulli_poly(k, r)
        terms[Fraction(2 * (j + m) - 1, 2)] = GradedCoeff(c)
    return AsympExpansion(terms=terms, order=Fraction(2 * (j + N) + 1, 2))


def script_FG_halving_orders(prec: int = DEFAULT_PREC) -> list[dict]:
    """Measured orders of the truncated script-F/G expansions.

    For j in (1, 2) and N in (0, 1, 2) at r = 1/3, the order is
    log2(d(0.1)/d(0.05)) with d the error of the expansion at t; each row
    also holds the order the expansion claims: N + j + 1 for F and
    N + j + 1/2 for G.
    """
    rows = []
    r = Fraction(1, 3)
    with mp.workprec(prec + 16):
        t1, t2 = mp.mpf("0.1"), mp.mpf("0.05")
        for family, direct, expand in (("F", script_F, script_F_expansion),
                                       ("G", script_G, script_G_expansion)):
            for j in (1, 2):
                for N in (0, 1, 2):
                    e = expand(j, r, N)
                    d1 = abs(direct(j, r, t1, prec) - e.evaluate(t1, prec))
                    d2 = abs(direct(j, r, t2, prec) - e.evaluate(t2, prec))
                    rows.append({"family": family, "j": j, "N": N,
                                 "order": mp.log(d1 / d2) / mp.log(2),
                                 "expected": fraction_mpf(e.order)})
    return rows
