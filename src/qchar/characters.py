"""Exact character series and their two computation routes.

F_{ell,s}(q) is defined by coefficient extraction from an infinite
Pochhammer ratio:

    F_{ell,s}(q) = (q)_inf^{ell^2} * coeff_{zeta^s}
                   [ 1 / ((zeta)_inf^ell (zeta^{-1} q)_inf^ell) ],

and independently by a partial-theta / quasimodular sum.  Exact agreement of
the two routes is the primary correctness alarm of the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count, takewhile
from math import comb, factorial

import mpmath as mp

from .exact_series import (ExactQSeries, euler_product, euler_product_pow,
                           poch_ratio_bivariate)
from .certified import (_GUARD_BITS, InputError, certified_gaussian_sum,
                        euler_phi, fraction_mpf, log_pair_lower,
                        pair_trapezoid)
from .modular_objects import (DEFAULT_PREC, _require_upper_half, cexp,
                              ghat_qseries, ghat_value, laurent_coefficients_D)


@dataclass(frozen=True)
class CharacterParams:
    ell: int
    s: int
    trunc: int

    def __post_init__(self):
        if self.ell < 2:
            raise InputError("ell must be >= 2")
        if self.s < 0:
            raise InputError("s must be >= 0")
        if self.trunc < 1:
            raise InputError("trunc must be >= 1")


def h_s(ell: int, s: int) -> Fraction:
    """Conformal weight s^2/(2 ell) + s/2."""
    return Fraction(s * s, 2 * ell) + Fraction(s, 2)


def central_charge(ell: int) -> int:
    return -(ell + 1)


# ------------------------------------------------ route 1: extraction


@lru_cache(maxsize=64)
def _zeta_coefficient(ell: int, s: int, trunc: int) -> tuple:
    """Integer coefficients of coeff_{zeta^s} below q^trunc; a bounded cache
    of O(trunc) immutable tuples."""
    series = poch_ratio_bivariate(ell, s, trunc).zeta_coefficient(s)
    return tuple(series.coeffs.get(n, 0) for n in range(trunc))


def coeff_series_exact(ell: int, s: int, trunc: int) -> ExactQSeries:
    """coeff_{zeta^s} [1/((zeta)_inf^ell (zeta^{-1}q)_inf^ell)] to q^trunc.

    All coefficients are nonnegative integers (the ratio is a product of
    geometric series with nonnegative coefficients): each is a masked slot
    of ZetaQSeries' packed rows.
    """
    return ExactQSeries(1, dict(enumerate(_zeta_coefficient(ell, s, trunc))),
                        trunc)


def F_ls_exact(params: CharacterParams) -> ExactQSeries:
    """F_{ell,s} by coefficient extraction: a product of two int series."""
    ell, s, trunc = params.ell, params.s, params.trunc
    series = coeff_series_exact(ell, s, trunc)
    return (euler_product_pow(ell * ell, trunc) * series).truncate(trunc)


def _nonnegative_ints(series: ExactQSeries, what: str) -> ExactQSeries:
    """series, once every coefficient is checked to be an int >= 0 (else
    AssertionError, naming what and the lowest such exponent)."""
    bad = [e for e, c in series.coeffs.items() if type(c) is not int or c < 0]
    if bad:
        raise AssertionError(f"{what} has a coefficient that is not a "
                             f"nonnegative integer at "
                             f"q^{Fraction(min(bad), series.D)}")
    return series


# ------------------------------------- route 2: partial theta / quasimodular


def _lattice_exponent(ell: int, s: int, n: int) -> int:
    """The exponent of q in q^{-h_s - ell/8} q^{a^2/(2 ell)}, a = ell n +
    ell/2 - s: (ell n - 2s)(n + 1)/2, an integer, as (ell n - 2s) and (n +
    1) are never both odd."""
    return (ell * n - 2 * s) * (n + 1) // 2


def _least_lattice_exponent(ell: int, s: int) -> int:
    """min(0, the least lattice exponent over n >= 0): _lattice_exponent is
    convex in n, least at floor((2s - ell)/(2 ell)) or the next n."""
    n0 = max(0, (2 * s - ell) // (2 * ell))
    return min(0, *(_lattice_exponent(ell, s, n) for n in (n0, n0 + 1)))


def _F_ls_via_H_series(ell: int, s: int, trunc: int,
                       euler: int = 0) -> ExactQSeries:
    """F_{ell,s} (q)_inf^euler by the partial-theta route (see F_ls_via_H):
    the lattice sum times one power (q)_inf^{ell^2 - 2 ell + euler}."""
    exponent = partial(_lattice_exponent, ell, s)
    # the lattice's least exponent caps the products' order
    T2 = trunc - _least_lattice_exponent(ell, s)
    # (e, sign, a) with a = ell n + ell/2 - s, for every n with e < T2
    lattice = [(exponent(n), (-1) ** (n * ell),
                Fraction(2 * ell * n + ell - 2 * s, 2))
               for n in takewhile(lambda n: exponent(n) < T2, count())]
    # i^ell D_{-j}, rational: the phases cancel exactly
    D = laurent_coefficients_D(ell, partial(ghat_qseries, trunc=T2),
                               ExactQSeries.one(T2))
    total = ExactQSeries.zero(trunc)
    # D_{-j} vanishes unless j = ell (mod 2); its weight 1/(j - 1)! goes into
    # the sparse lattice sum, so each j costs one product
    for j in range(2 - ell % 2, ell + 1, 2):
        inner = {}
        for e, sign, a in lattice:
            inner[e] = inner.get(e, 0) + sign * a ** (j - 1) / factorial(j - 1)
        total = total + D[j - 1] * ExactQSeries(1, inner, T2)
    out = total * euler_product_pow(ell * ell - 2 * ell + euler, T2)
    return out.truncate(trunc)


def F_ls_via_H(params: CharacterParams) -> ExactQSeries:
    """F_{ell,s} via the quasimodular/partial-theta representation, an
    independent check of F_ls_exact: callers compare the two."""
    return _F_ls_via_H_series(params.ell, params.s, params.trunc)


# ----------------------------------------------------------------- character


def character_ch(params: CharacterParams) -> ExactQSeries:
    """Character series q^{h_s - c/24} (q)_inf * coeff_{zeta^s}[...].

    Coefficients are nonnegative integers (graded multiplicities; checked,
    as (q)_inf has negative ones); the leading term is binomial(s+ell-1,
    ell-1) q^{h_s - c/24}.
    """
    ell, s, trunc = params.ell, params.s, params.trunc
    series = coeff_series_exact(ell, s, trunc)
    ch = _nonnegative_ints((euler_product(trunc) * series).truncate(trunc),
                           "the character")
    lead = h_s(ell, s) - Fraction(central_charge(ell), 24)
    ch = ch.shift(lead)
    found = ch.coefficient(lead)
    if found != comb(s + ell - 1, ell - 1):
        raise AssertionError(f"the character at ell = {ell}, s = {s} has "
                             f"leading coefficient {found} at q^{lead}, not "
                             f"binomial(s + ell - 1, ell - 1)")
    return ch


# ------------------------------------------------------------ numeric routes


def H_value(ell: int, s: int, tau, prec: int = DEFAULT_PREC):
    """H_{s + ell/2}(tau) = (-1)^ell sum_{j = ell (mod 2)} D_{-j}(tau)/(j-1)!
    * sum_{n>=0} (-1)^{n eps} (ell n + ell/2 - s)^{j-1}
      e^{2 pi i tau (ell n + ell/2 - s)^2 / (2 ell)},  eps = ell mod 2.

    As one Gaussian sum in x = n + 1/2 - s/ell: (-1)^ell sum_n (-1)^{n eps}
    P(x) e^{pi i tau ell x^2}, P(x) = sum_j D_{-j} (ell x)^{j-1}/(j-1)!."""
    return _H_sum(ell, s, tau, _H_poly(ell, tau, prec), prec)


def _H_poly(ell: int, tau, prec: int) -> list:
    """H_value's P, as coefficients of x^k: i^ell D_{-k-1} ell^k / k!; it does
    not depend on s, so the callers that need several s share it."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        D = laurent_coefficients_D(
            ell, partial(ghat_value, tau=tau, prec=prec), mp.mpc(1))
        return [d * mp.mpf(ell) ** k / factorial(k) for k, d in enumerate(D)]


def _H_sum(ell: int, s: int, tau, poly: list, prec: int):
    """H_value's Gaussian sum over P = poly (from _H_poly(ell, tau, prec))."""
    with mp.workprec(prec + _GUARD_BITS):
        acc, _ = certified_gaussian_sum(
            mp.pi * 1j * tau * ell, 0, Fraction(1, 2) - Fraction(s, ell),
            (-1) ** (ell % 2), poly, prec)
        # (-1)^ell times the phase (-i)^ell the D_{-j} share
        return (1j) ** ell * acc


def fourier_quadrature(ell: int, s: int, tau, z0_imag=None,
                       prec: int = DEFAULT_PREC):
    """(value, Certificate) of q^{r^2/(2 ell)} * integral over [z0, z0+1] of
    g_ell(z) e^{-2 pi i r z} dz with r = s + ell/2, along Im z = z0_imag
    (pair_trapezoid checks 0 < z0_imag < Im tau, between theta's zeros, and
    takes Im(tau)/2 for None); the bound is below 2^-(prec + _GUARD_BITS).

    By the triple product, g_ell(z) e^{-2 pi i r z} = i^ell (q)_inf^{2 ell}
    zeta^{-s} / P(zeta)^ell (certified._pair_sum's P, zeta = e^{2 pi i z}),
    so the integral is certified.pair_trapezoid's mean with k = 2 ell and
    every w_j = 0, at a target that leaves room for the factor
    |q^{r^2/(2 ell)}|.  No theta or eta is evaluated.
    """
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        r = mp.mpf(2 * s + ell) / 2
        log_pref = -math.pi * float(mp.im(tau) * r * r) / ell
        mean, cert = pair_trapezoid(
            tau, [0] * ell, z0_imag, s, 2 * ell,
            prec + _GUARD_BITS + log_pref / math.log(2))
    with mp.workprec(cert.prec + _GUARD_BITS):
        value = cexp(tau * r * r / (2 * ell)) * (1j) ** ell * mean
    return value, replace(cert, bound=cert.bound * mp.exp(log_pref))


def fourier_coeff_by_quadrature(ell: int, s: int, tau, z0_imag=None,
                                prec: int = DEFAULT_PREC):
    """fourier_quadrature's value alone."""
    return fourier_quadrature(ell, s, tau, z0_imag, prec)[0]


# F_ls_numeric plans its truncation so that the certified tail bound is at
# most this fraction of the value
_NUMERIC_REL_TOL = mp.mpf("1e-12")
# the largest truncation order F_ls_numeric builds: a build costs O(T^2)
# integer products, a minute or more near this order (F_ls_numeric(6, 0,
# 0.05) builds 18,738 terms and took 91 s, in qchar asym, on a 2-vCPU Xeon)
_MAX_ORDER = 20_000


def F_ls_numeric(ell: int, s: int, t, prec: int = DEFAULT_PREC):
    """Certified numeric value of F_{ell,s}(e^{-t}) for real t > 0, as
    (value, absolute error bound), the bound at most _NUMERIC_REL_TOL value.

    F = (q)_inf^{ell^2} G_s, G_s = sum b_n q^n with integers b_n >= 0 (both
    asserted) summed exactly to q^T.  The head G_s to q^T is the partial-theta
    route's lattice sum times (q)_inf^{-2 ell}, one power
    (_F_ls_via_H_series with euler = -ell^2).  The dropped tail is bounded by

        sum_{n>=T} b_n q^n <= q1^{-s/2} Phi(q1) (q/q1)^T / (1 - q/q1),

    with q1 = sqrt(q) and Phi(q1) = (q1^{1/2}; q1)_inf^{-2 ell}, valid
    because b_n <= x^{-s} q1^{-n} * [value of the bivariate product at
    (x, q1)] for any admissible x; x = q1^{1/2} keeps every factor
    convergent, and the product is then Phi(q1), the pair (Z; q1)_inf (q1/Z;
    q1)_inf at Z = q1^{1/2} to the power -ell.  Phi = e^{-ell (P - m)} with
    P = log_pair_lower(-t/4, -t/2) and m = 2^-40 (2 + |P|) covering the
    doubles' rounding, so Phi stays an upper bound.

    The bound adds the rounding, rho value.  The ell^2-th power of (q)_inf
    multiplies its relative error by ell^2, so certified.euler_phi gives it
    within 2^-prec/(2 ell^2), relative, at tau = i t/(2 pi).  As t d/dt log
    (q)_inf <= pi^2/(6t), tau, formed at ceil(log2(2 ell^2 (1 + 2/t))) more
    bits, moves the power by less than 2^-(prec + _GUARD_BITS).  At u =
    2^(1 - prec - _GUARD_BITS), q^n is within (n + 1) u of e^{-tn} and each
    head term within (n + 3) u, and the exact fsum of positive terms rounds
    once, so to first order the value is within rho = (1 + (T + 6) 2^(2 -
    _GUARD_BITS)) 2^-prec, relative, the factors 2 covering higher orders.

    T is planned before the sum: as b_n >= 0, the head to q^T0, T0 = max(40,
    ell pi^2/(6 t^2)), half the saddle point of b_n e^{-tn} (G_s grows like
    e^{ell pi^2/(3t)}), is below every longer head, so the least T whose
    tail bound is _NUMERIC_REL_TOL less rho (at T = _MAX_ORDER, the largest
    T built) times it, less 2^-32 for its rounding, meets the target.  The
    head is reused when T <= T0.  A T0 or T above _MAX_ORDER raises
    RuntimeError before anything is built, a T0 before anything is
    evaluated.
    """
    def rho(T):
        return (1 + (T + 6) * mp.mpf(2) ** (2 - _GUARD_BITS)) \
            * mp.mpf(2) ** -prec

    def capped(T):
        if T > _MAX_ORDER:
            raise RuntimeError(f"F_ls_numeric needs order {T} > {_MAX_ORDER}")
        return T

    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
        if t <= 0:
            raise ValueError("t must be positive")
        T0 = capped(max(40, int(ell * mp.pi ** 2 / (6 * t * t))))
        bits = math.log2(2 * ell * ell)
        with mp.workprec(prec + _GUARD_BITS
                         + math.ceil(bits + math.log2(1 + 2 / float(t)))):
            tau = 1j * t / (2 * mp.pi)
        phi, _ = euler_phi(tau, prec + math.ceil(bits))
        q = mp.exp(-t)
        q1 = mp.sqrt(q)
        P = log_pair_lower(-float(t) / 4, -float(t) / 2)
        Phi = mp.exp(-ell * (P - 2.0 ** -40 * (2 + abs(P))))
        pref = q1 ** (-mp.mpf(s) / 2) * Phi / (1 - q / q1)  # tail / (q/q1)^T

        def head(T):  # sum_{n<T} b_n q^n
            G = _nonnegative_ints(_F_ls_via_H_series(ell, s, T, -ell * ell),
                                  "the route-2 head")
            return mp.fsum(mp.mpf(c) * q ** e
                           for e, c in sorted(G.coeffs.items()))

        total = head(T0)
        target = ((_NUMERIC_REL_TOL - rho(_MAX_ORDER)) * total
                  * (1 - mp.mpf(2) ** -32))
        T = int(mp.ceil(mp.log(pref / target) / (t / 2)))  # q/q1 = e^{-t/2}
        if T > T0:
            total = head(capped(T))
        T = max(T, T0)
        value = phi ** (ell * ell) * total
        bound = phi ** (ell * ell) * pref * (q / q1) ** T + rho(T) * value
        if not bound <= _NUMERIC_REL_TOL * value:
            raise AssertionError("planned truncation missed its tail target")
        return value, bound


def F_ls_via_H_value(ell: int, s: int, t, prec: int = DEFAULT_PREC):
    """F_{ell,s}(e^{-t}) for real t > 0 by the numeric partial-theta route,

        Re(i^-ell q^{-h_s - ell/8} (q)_inf^{ell^2 - 2 ell} H_{s+ell/2}(tau)),

    q = e^{-t}, tau = i t/(2 pi) (InputError for t <= 0): F_ls_numeric is
    its independent check.  Evaluated at ceil(t |e_min|/log 2) + ceil(log2
    ell^2) more bits: H's Gaussian sum is summed to an absolute error, and
    its prefactor q^{-h_s - ell/8} lifts that error by up to e^{t |e_min|},
    e_min the least lattice exponent (_least_lattice_exponent); the power
    of (q)_inf, from certified.euler_phi, lifts (q)_inf's relative error by
    less than ell^2."""
    with mp.workprec(prec + _GUARD_BITS):
        t = mp.mpf(t)
    p = (prec + math.ceil(-float(t) * _least_lattice_exponent(ell, s)
                          / math.log(2)) + math.ceil(math.log2(ell * ell)))
    with mp.workprec(p + _GUARD_BITS):
        tau = 1j * t / (2 * mp.pi)
        pref = mp.exp(t * fraction_mpf(h_s(ell, s) + Fraction(ell, 8)))
        return mp.re((-1j) ** ell * pref * H_value(ell, s, tau, p)
                     * euler_phi(tau, p)[0] ** (ell * ell - 2 * ell))
