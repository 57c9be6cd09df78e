"""Multivariate Fourier coefficients of the Pochhammer product and their
theta/partial-theta decomposition.

Two independent routes to the same number:

* contour quadrature of the product
  F_ell(zeta_1,...,zeta_ell) = (q)_inf * prod_{j=1}^{ell} prod_{k>=1}
      1/((1 - Z_j^{-1} q^k)(1 - Z_j q^{k-1})),   Z_j = zeta_j ... zeta_ell,
  against e^{-2 pi i s z_ell} along a horizontal contour, and

* the residue-sum decomposition into partial theta over theta quotients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .characters import central_charge, h_s
from .certified import (_GUARD_BITS, InputError, NearPoleError, euler_phi,
                        fraction_mpf, pair_trapezoid)
from .modular_objects import (DEFAULT_PREC, _require_upper_half, _tol, cexp,
                              eta, theta)
from .partial_theta import PartialThetaParams, partial_theta


class DegenerateWVectorError(ValueError):
    """Two of the w_j coincide (mod the lattice); the simple-pole residue
    formula does not apply."""


@dataclass
class MultivarPoint:
    """Evaluation data (z_1, ..., z_{ell-1}; tau) with the derived vector
    w_j = -(z_j + ... + z_{ell-1}) for j < ell and w_ell = 0.

    Admissibility: 0 < Im z_j < Im(tau)/ell for every j (equivalent to
    |q| < |zeta_j|^ell < 1), which keeps each w_a - w_b off the lattice.
    No theta is evaluated: F_ls_decomposed checks the w_j for collisions.
    """
    zs: tuple
    tau: complex
    prec: int = DEFAULT_PREC
    ws: tuple = field(init=False)

    def __post_init__(self):
        with mp.workprec(self.prec + _GUARD_BITS):
            self.zs = tuple(mp.mpc(z) for z in self.zs)
            self.tau = mp.mpc(self.tau)
            _require_upper_half(self.tau)
            ell = len(self.zs) + 1
            v = mp.im(self.tau)
            for j, z in enumerate(self.zs, start=1):
                if not 0 < mp.im(z) < v / ell:
                    raise InputError(
                        f"z_{j} violates 0 < Im z < Im(tau)/ell")
            ws = [-sum(self.zs[j:], mp.mpc(0)) for j in range(ell - 1)]
            ws.append(mp.mpc(0))
            self.ws = tuple(ws)

    @property
    def ell(self) -> int:
        return len(self.zs) + 1


def F_ell_product(zs_full, tau, prec: int = DEFAULT_PREC):
    """(q)_inf prod_{j=1}^{ell} prod_{k>=0} 1/((1 - q^{k+1}/Z_j)(1 - Z_j
    q^k)), Z_j = e^{2 pi i (z_j + ... + z_ell)}, factor by factor on mpmath
    for any z (on the quadrature's strip, off it or real): the reference
    the quadrature's kernel, _pair_sum, is tested against.  Each pair is
    guarded (NearPoleError within 2^-(prec//4) of 0) and divided out until
    the next has |f1| + |f2| < 2^-prec (1 - |q|), so the factors dropped
    move the product by a relative 2^-prec, to first order.
    """
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        tol = _tol(prec)
        q = cexp(tau)
        thresh = mp.mpf(2) ** -(prec // 4)
        val, _ = euler_phi(tau, prec)
        for j in range(len(zs_full)):
            Z = cexp(sum(zs_full[j:], mp.mpc(0)))
            f1, f2 = q / Z, Z  # q^{k+1}/Z_j and Z_j q^k at k = 0
            while True:
                d1, d2 = 1 - f1, 1 - f2
                if abs(d1) < thresh or abs(d2) < thresh:
                    raise NearPoleError(
                        f"Pochhammer factor for j={j+1} vanishes to working "
                        "precision")
                val /= d1 * d2
                f1 *= q
                f2 *= q
                if abs(f1) + abs(f2) < tol * (1 - abs(q)):
                    break
        return val


def multivar_quadrature(ell: int, s, point: MultivarPoint,
                        contour_imag=None, prec: int = DEFAULT_PREC):
    """(value, Certificate): the Fourier coefficient at zeta_ell^s (s an
    integer) of the product, by the trapezoid rule over z_ell = x + i c, x
    in [0, 1), certified to within 2^-prec: pair_trapezoid's mean with k =
    1, as Z_j = e^{2 pi i (z_ell - w_j)} on that line; it checks 0 < c <
    c_max = Im(tau) + min_j Im w_j and takes c_max/2 for c None.  s must be
    an integer: the product is 1-periodic in z_ell, and for any other s the
    integrand is not, so no trapezoid bound holds.
    """
    if point.ell != ell:
        raise ValueError("point dimension does not match ell")
    with mp.workprec(prec + _GUARD_BITS):
        return pair_trapezoid(point.tau, point.ws, contour_imag, s, 1, prec)


def F_ls_multivar_quadrature(ell: int, s, point: MultivarPoint,
                             contour_imag=None, prec: int = DEFAULT_PREC):
    """multivar_quadrature's value alone."""
    return multivar_quadrature(ell, s, point, contour_imag, prec)[0]


def F_ls_decomposed(ell: int, s: int, point: MultivarPoint,
                    prec: int = DEFAULT_PREC):
    """Residue-sum value

        -i^{ell+1} q^{-h_s + c/24} eta^{ell-2} prod_j zeta_j^{j s/ell}
          * sum_{nu=1}^{ell} theta_plus_{s-ell/2, eps, ell/2}
                (w_nu - (1/ell) sum_j w_j) / prod_{j != nu} theta(w_nu - w_j),

    with eps = ell mod 2 and zeta_j^{j s/ell} := e^{2 pi i z_j j s/ell}
    (branch fixed through z_j, not through a root of zeta_j).

    theta(w_a - w_b) is evaluated once per pair a < b (theta is odd); one
    below 2^(-prec // 4) 2 pi |eta|^3 raises DegenerateWVectorError.  Near
    the lattice theta(w) ~ theta'(0) w = -2 pi eta^3 w, so the threshold
    measures w_a - w_b, not |eta|^3, which is exponentially small at small
    Im tau.
    """
    if point.ell != ell:
        raise ValueError("point dimension does not match ell")
    with mp.workprec(prec + _GUARD_BITS):
        tau = point.tau
        et = eta(tau, prec)
        thresh = mp.mpf(2) ** (-prec // 4) * 2 * mp.pi * abs(et) ** 3
        th = {}
        for a in range(ell):
            for b in range(a + 1, ell):
                t = theta(point.ws[a] - point.ws[b], tau, prec)
                if abs(t) < thresh:
                    raise DegenerateWVectorError(
                        f"w_{a+1} and w_{b+1} collide in the theta metric")
                th[a, b], th[b, a] = t, -t
        eps = ell % 2
        params = PartialThetaParams(Fraction(s) - Fraction(ell, 2), eps,
                                    Fraction(ell, 2))
        exp_pref = -h_s(ell, s) + Fraction(central_charge(ell), 24)
        pref = -(1j) ** (ell + 1) * cexp(tau * fraction_mpf(exp_pref)) \
            * et ** (ell - 2)
        for j, z in enumerate(point.zs, start=1):
            pref *= cexp(z * mp.mpf(j * s) / ell)
        wm = sum(point.ws, mp.mpc(0)) / ell
        total = mp.mpc(0)
        for nu in range(ell):
            num = partial_theta(params, point.ws[nu] - wm, tau, prec)
            den = mp.mpc(1)
            for j in range(ell):
                if j != nu:
                    den *= th[nu, j]
            total += num / den
        return pref * total


def random_admissible_point(ell: int, tau, rng: random.Random,
                            prec: int = DEFAULT_PREC) -> MultivarPoint:
    """One admissible point, deterministically from ``rng``: x_j uniform on
    [-0.45, 0.45] and Im z_j uniform on [0.08, 0.92] Im(tau)/ell, so every
    draw lies inside 0 < Im z_j < Im(tau)/ell and none is redrawn."""
    v = float(mp.im(tau))
    zs = [mp.mpc(rng.uniform(-0.45, 0.45), rng.uniform(0.08, 0.92) * v / ell)
          for _ in range(ell - 1)]
    return MultivarPoint(tuple(zs), tau, prec)
