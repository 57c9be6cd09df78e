"""Numeric eta/theta/Eisenstein evaluation and quasimodular Laurent data.

Numeric routines work at a caller-chosen binary precision (default 256 bits)
and plan each series before they sum it, in doubles, from a certified tail
bound: (q)_inf by certified.euler_phi's core, one S step and the pentagonal
sum's two Gaussian halves, and theta by certified.certified_gaussian_sum.

Branch rule used throughout: powers q^x with non-integer x are never formed
from a complex q; exponentials are always assembled as e^{2*pi*i*tau*x}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

import mpmath as mp

from .bernoulli_euler import bernoulli_number
from .certified import (_GUARD_BITS, Certificate, InputError, NearPoleError,
                        certified_gaussian_sum, euler_phi)
from .exact_series import ExactQSeries, divisor_sigma_list

DEFAULT_PREC = 256


def cexp(w):
    """e^{2 pi i w}."""
    return mp.exp(2j * mp.pi * w)


def _require_upper_half(tau):
    if not mp.im(tau) > 0:
        raise InputError("tau must lie in the upper half-plane")


def _tol(prec: int):
    return mp.mpf(2) ** (-prec)


def euler_phi_numeric(q, tol):
    """(q)_infty to within tol for |q| < 1 (else ValueError; 1 at q = 0):
    certified.euler_phi at tau = log q/(2 pi i).  With x = |q|, |(q)_inf| <=
    e^{x/(1-x)}, and the core runs at p bits, 2^-p e^{x/(1-x)} <= (1-x)^3
    tol/2, so it is within tol/2.  tau, formed at p + _GUARD_BITS bits
    (fewer than the core's), is within 4 |tau| 2^-(p + _GUARD_BITS), |tau|
    x < 0.6, and |d (q)_inf/d tau| <= 2 pi x/(1-x)^3 e^{x/(1-x)}, so its
    rounding adds less than tol/4."""
    if q == 0:
        return mp.mpf(1)
    x = float(abs(q))
    if not x < 1:
        raise ValueError("need |q| < 1")
    p = math.ceil(-float(mp.log(tol, 2)) + x / (1 - x) / math.log(2)
                  - 3 * math.log2(1 - x)) + 1
    with mp.workprec(p + _GUARD_BITS):
        return euler_phi(mp.log(q) / (2j * mp.pi), p)[0]


def eta(tau, prec: int = DEFAULT_PREC):
    """Dedekind eta, q^{1/24}(q)_infty, within a relative 2^-prec or
    less."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        return cexp(mp.mpc(tau) / 24) * euler_phi(tau, prec)[0]


def theta(z, tau, prec: int = DEFAULT_PREC):
    """Odd Jacobi theta, sum over n in 1/2+Z of q^{n^2/2} e^{2 pi i n(z+1/2)}."""
    return _theta_cert(z, tau, prec)[0]


def _theta_cert(z, tau, prec: int, dz=None, dtau=None):
    """(theta's value, Certificate) from its two Gaussian sums, over x = n +
    1/2 and x = -n - 1/2, with alpha = pi i tau and beta = 2 pi i (z + 1/2)
    formed at prec + _GUARD_BITS bits; with dz and dtau (both or neither),
    for z and tau known within dz u and dtau u, u = 2^(1 - prec -
    _GUARD_BITS).

    Its bound adds the two sums' and u |theta| for their sum at prec +
    _GUARD_BITS bits.  With dz and dtau, each sum's certificate has the
    radius pi (dtau + 2|tau|) and 2 pi (dz + 2|z + 1/2|), which counts
    alpha's and beta's own rounding."""
    _require_upper_half(tau)
    radius = None if dz is None else (
        math.pi * (dtau + 2 * abs(complex(tau))),
        2 * math.pi * (dz + 2 * abs(complex(z) + 0.5)))
    with mp.workprec(prec + _GUARD_BITS):
        alpha = mp.pi * 1j * tau
        beta = 2j * mp.pi * (z + mp.mpf(1) / 2)
        (plus, c1), (minus, c2) = (
            certified_gaussian_sum(alpha, b, Fraction(1, 2), 1, (1,), prec,
                                   radius) for b in (beta, -beta))
        value = plus + minus
        bound = c1.bound + c2.bound + mp.ldexp(abs(value),
                                               1 - prec - _GUARD_BITS)
    return value, Certificate(c1.nodes + c2.nodes, 1, max(c1.X, c2.X), bound,
                              max(c1.prec, c2.prec), c1.seconds + c2.seconds)


def _G2k_terms(k: int, tau, prec: int) -> int:
    """The least N with N + 1 > 4k/L, L = -log|q|, and c (N+1)^{2k} |q|^{N+1}
    /(1 - sqrt|q|) < 2^-(prec + _GUARD_BITS)/2, c = 2 (2 pi)^{2k}/(2k-1)!,
    planned in doubles (the 2 absorbs their rounding).  As sigma_{2k-1}(n)
    <= n^{2k}, the terms _G2k_series_value drops are below c (n+1)^{2k}
    |q|^{n+1}, in ratio below sqrt|q| past 4k/L, where the bound falls with
    N; it needs (N+1) L > log(c 2^(prec + _GUARD_BITS)) first."""
    L = 2 * math.pi * float(mp.im(tau))
    log_c = (math.log(4) + 2 * k * math.log(2 * math.pi)
             - math.lgamma(2 * k) - math.log(-math.expm1(-L / 2)))
    log_tol = -(prec + _GUARD_BITS) * math.log(2)
    N = max(math.floor(4 * k / L), math.ceil((log_c - log_tol) / L) - 1)
    if N > 60_000_000:
        raise RuntimeError("Eisenstein series not converging; transform tau")
    while log_c + 2 * k * math.log(N + 1) - (N + 1) * L >= log_tol:
        N += 1
    return N


def _G2k_series_value(k: int, tau, prec: int):
    """(2 pi i)^{2k} times ghat_qseries(2k) summed to q^N, N from
    _G2k_terms, by Horner's rule on its coefficients over their common
    denominator."""
    N = _G2k_terms(k, tau, prec)
    ghat = ghat_qseries(2 * k, N + 1).coeffs
    den = math.lcm(*(Fraction(c).denominator for c in ghat.values()))
    acc = mp.polyval([int(ghat.get(n, 0) * den) for n in range(N, -1, -1)],
                     cexp(tau))
    return (2j * mp.pi) ** (2 * k) * acc / den


def eisenstein_G2k(k: int, tau, prec: int = DEFAULT_PREC):
    """G_{2k}(tau), summed at tau - round(Re tau) (G_{2k} has period 1) or,
    when that point has Im tau < 1/2, at -1/tau of it.

    G_{2k}(tau) = tau^{-2k} G_{2k}(-1/tau), with the extra 2*pi*i/tau
    anomaly for k = 1.  As S^2 = 1, one S step is all that can help.  With
    |Re tau| <= 1/2 and Im tau < 1/2, |tau|^2 < 1/2, so Im(-1/tau) = Im
    tau/|tau|^2 is more than twice Im tau.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        tau = tau - round(mp.re(tau))
        if mp.im(tau) < mp.mpf(1) / 2:
            val = tau ** (-2 * k) * _G2k_series_value(k, -1 / tau, prec)
            if k == 1:
                val += 2j * mp.pi / tau
            return val
        return _G2k_series_value(k, tau, prec)


def ghat_value(k2: int, tau, prec: int = DEFAULT_PREC):
    """G_{2k}/(2 pi i)^{2k} for even k2 = 2k."""
    if k2 % 2:
        raise ValueError("k2 must be even")
    with mp.workprec(prec + _GUARD_BITS):
        return eisenstein_G2k(k2 // 2, tau, prec) / (2j * mp.pi) ** k2


def ghat_qseries(k2: int, trunc: int) -> ExactQSeries:
    """Exact q-expansion of G_{2k}/(2 pi i)^{2k}:
    -B_{2k}/(2k)! + (2/(2k-1)!) sum sigma_{2k-1}(n) q^n."""
    if k2 % 2 or k2 < 2:
        raise ValueError("k2 must be a positive even integer")
    sig = divisor_sigma_list(k2 - 1, max(trunc - 1, 0))
    coeffs = {0: -bernoulli_number(k2) / factorial(k2)}
    for n in range(1, trunc):
        coeffs[n] = Fraction(2 * sig[n], factorial(k2 - 1))
    return ExactQSeries(1, coeffs, trunc)


def laurent_coefficients_D(ell: int, ghat, one) -> tuple:
    """(i^ell D_{-1}, ..., i^ell D_{-ell}) for g_ell(z) = sum_j D_{-j}/(2 pi i
    z)^j + O(1), in the ring of ``one``: ``ghat(k2)`` is Ghat_{k2} =
    G_{k2}/(2 pi i)^{k2} there, an exact q-series or a number.

    From theta(z) = -2 pi z eta^3 exp(-sum G_{2k}/(2k) z^{2k}): D_{-j} =
    (-i)^ell E_{ell-j} with E(u) = exp(ell sum_k Ghat_{2k} u^{2k}/(2k)), whose
    logarithmic derivative gives m E_m = ell sum_{k2 = 2, 4, ...} Ghat_{k2}
    E_{m-k2} (Knuth, TAOCP Vol. 2, 4.7).  So E_{ell-j} is a rational
    polynomial in the Ghat's, homogeneous of weight ell - j, and vanishes
    unless j = ell (mod 2).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    G = {k2: ghat(k2) for k2 in range(2, ell, 2)}
    zero = one * 0
    E = {0: one}
    for m in range(2, ell, 2):
        E[m] = sum((G[k2] * E[m - k2] for k2 in range(2, m + 1, 2)),
                   zero) * Fraction(ell, m)
    return tuple(E.get(ell - j, zero) for j in range(1, ell + 1))


def g_ell(z, tau, ell: int, prec: int = DEFAULT_PREC):
    """eta(tau)^{3 ell} / theta(z; tau)^ell; errors out near theta zeros,
    where |theta(z)| < 2^(-prec // 2) 2 pi |eta|^3: near the lattice
    theta(z) ~ -2 pi eta^3 z, so this measures z's distance from it."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        th = theta(z, tau, prec)
        et = eta(tau, prec)
        if abs(th) < mp.mpf(2) ** (-prec // 2) * 2 * mp.pi * abs(et) ** 3:
            raise NearPoleError("z too close to a lattice point of theta")
        return et ** (3 * ell) / th ** ell
