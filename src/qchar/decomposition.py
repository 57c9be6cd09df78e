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

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .characters import central_charge, h_s
from .modular_objects import (DEFAULT_PREC, _GUARD_BITS, Certificate,
                              NearPoleError, _require_upper_half, _tol, cexp,
                              eta, euler_phi_numeric, fraction_mpf,
                              log_poch_lower, periodic_trapezoid,
                              plan_periodic_trapezoid, theta)
from .partial_theta import PartialThetaParams, partial_theta


class DegenerateWVectorError(ValueError):
    """Two of the w_j coincide (mod the lattice); the simple-pole residue
    formula does not apply."""


@dataclass
class MultivarPoint:
    """Evaluation data (z_1, ..., z_{ell-1}; tau) with the derived vector
    w_j = -(z_j + ... + z_{ell-1}) for j < ell and w_ell = 0.

    Admissibility: 0 < Im z_j < Im(tau)/ell for every j (equivalent to
    |q| < |zeta_j|^ell < 1), and the w_j pairwise distinct in the
    theta-metric.
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
                    raise ValueError(
                        f"z_{j} violates 0 < Im z < Im(tau)/ell")
            ws = [-sum(self.zs[j:], mp.mpc(0)) for j in range(ell - 1)]
            ws.append(mp.mpc(0))
            self.ws = tuple(ws)
            thresh = mp.mpf(2) ** (-self.prec // 4)
            for a in range(ell):
                for b in range(a + 1, ell):
                    if abs(theta(self.ws[a] - self.ws[b], self.tau,
                                 self.prec)) < thresh:
                        raise DegenerateWVectorError(
                            f"w_{a+1} and w_{b+1} collide in the theta "
                            "metric")

    @property
    def ell(self) -> int:
        return len(self.zs) + 1

    def contour_height_range(self):
        """Admissible strip (0, c_max) for Im z_ell: the integrand's poles
        sit at Im z_ell = Im w_j - k Im(tau) (k >= 0, below 0) and at
        Im w_j + k Im(tau) (k >= 1, at or above c_max)."""
        with mp.workprec(self.prec + _GUARD_BITS):
            v = mp.im(self.tau)
            c_max = v + min(mp.im(w) for w in self.ws)
            return mp.mpf(0), c_max


def _unit_modulus_range(log_f0, log_q, slack):
    """A range holding every k with |log_f0 + k log_q| < slack (log_q < 0):
    the factors f_k = f_0 q^k whose modulus may lie near 1."""
    lo = int(mp.floor((log_f0 - slack) / -log_q))
    hi = int(mp.ceil((log_f0 + slack) / -log_q))
    return range(lo, hi + 1)


@lru_cache(maxsize=16)
def _q_powers(tau, prec: int):
    """(q, (q)_inf, ((q^k, 1 + q^{2k+1}) for k < m)) at tau, with m the
    tail length F_ell_product needs for every |q| <= |Z| <= 1."""
    with mp.workprec(prec + _GUARD_BITS):
        tol = _tol(prec)
        q = cexp(tau)
        absq = abs(q)
        m = max(1, int(mp.floor(
            mp.log(tol * (1 - absq) / (1 + absq)) / mp.log(absq))) + 1)
        q2 = q * q
        qk, q2k1 = mp.mpc(1), q
        pows = []
        for _ in range(m):
            pows.append((qk, 1 + q2k1))
            qk *= q
            q2k1 *= q2
        return q, euler_phi_numeric(q, tol), tuple(pows)


def F_ell_product(zs_full, tau, prec: int = DEFAULT_PREC):
    """(q)_inf prod_{j=1}^{ell} prod_{k>=1}
    1/((1 - Z_j^{-1} q^k)(1 - Z_j q^{k-1})) with Z_j = e^{2 pi i
    (z_j + ... + z_ell)}; certified tails, pole-proximity guarded.

    Each j keeps the first m factor pairs, m the least with
    (|q|^{m+1}/|Z_j| + |Z_j| |q|^m)/(1 - |q|) < 2^-prec, read off from
    log|q| and log|Z_j|.  A pair is one term,
    (1 - Z q^k)(1 - q^{k+1}/Z) = 1 - c q^k + q^{2k+1} with c = Z + q/Z, over
    the cached powers of q.  The guard |1 - f| >= 2^-(prec//4) holds
    wherever ||f| - 1| >= 2^-(prec//4), since |1 - f| >= |1 - |f||; only
    factors with log|f| near 0 are checked, and multiplied, one by one.
    """
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        tol = _tol(prec)
        q, phi, pows = _q_powers(mp.mpc(tau), prec)
        log_q = -2 * mp.pi * mp.im(tau)
        absq = mp.exp(log_q)
        thresh = mp.mpf(2) ** (-prec // 4)
        # ||f| - 1| < thresh <= 1/2 implies |log|f|| < 2 thresh
        slack = 4 * thresh
        den = mp.mpc(1)
        for j in range(len(zs_full)):
            w = sum(zs_full[j:], mp.mpc(0))
            Z = cexp(w)
            log_Z = -2 * mp.pi * mp.im(w)
            absZ = mp.exp(log_Z)
            m = max(1, int(mp.floor(
                mp.log(tol * (1 - absq) / (absq / absZ + absZ)) / log_q)) + 1)
            near = set(_unit_modulus_range(log_q - log_Z, log_q, slack))
            near.update(_unit_modulus_range(log_Z, log_q, slack))
            qZ = q / Z
            c = Z + qZ
            for k in range(m):
                if k < len(pows):
                    qk, one_q2k1 = pows[k]
                else:  # |Z| outside [|q|, 1]: powers past the cached ones
                    qk *= q
                    one_q2k1 = 1 + qk * qk * q
                if k in near:
                    d1, d2 = 1 - qZ * qk, 1 - Z * qk
                    if abs(d1) < thresh or abs(d2) < thresh:
                        raise NearPoleError(
                            f"Pochhammer factor for j={j+1} vanishes to "
                            "working precision")
                    den *= d1 * d2
                else:
                    den *= one_q2k1 - c * qk
        return phi / den


def _contour_height(point: MultivarPoint, contour_imag):
    """(c, c_max): the contour height, c_max / 2 unless given, checked
    against the admissible strip (0, c_max)."""
    lo, hi = point.contour_height_range()
    c = mp.mpf(contour_imag) if contour_imag is not None else hi / 2
    if not lo < c < hi:
        raise ValueError("contour height outside the admissible strip")
    return c, hi


def multivar_quadrature_plan(ell: int, s, point: MultivarPoint,
                             contour_imag=None,
                             prec: int = DEFAULT_PREC) -> Certificate:
    """Certificate of the trapezoid rule F_ls_multivar_quadrature runs: its
    node count, node precision and an absolute error bound below 2^-prec,
    planned from the strip 0 < Im z_ell < c_max without evaluating the
    product.

    On Im z_ell = y every |Z_j| = e^{-2 pi (y - Im w_j)} is fixed, so
    |(q)_inf| <= prod (1 + |q|^n), |1 - f| >= |1 - |f|| for each factor and
    |e^{-2 pi i s z}| = e^{2 pi s y} bound log|integrand| on that line.  A
    node at p bits has relative error at most (2 ell + 2/prod(1 - |q|^n)
    + 1) 2^-p: each tail of F_ell_product and of (q)_inf is below 2^-p, and
    the guard bits absorb the rounding.
    """
    if point.ell != ell:
        raise ValueError("point dimension does not match ell")
    with mp.workprec(prec + _GUARD_BITS):
        c, hi = _contour_height(point, contour_imag)
        c, d_hi = float(c), float(hi - c)
        log_q = -2 * math.pi * float(mp.im(point.tau))
        im_ws = [float(mp.im(w)) for w in point.ws]
        sf = float(Fraction(s))

        def log_bound(dy):
            y = c + dy
            out = (math.exp(log_q) / -math.expm1(log_q)
                   + 2 * math.pi * sf * y)
            for im_w in im_ws:
                log_Z = -2 * math.pi * (y - im_w)
                out -= (log_poch_lower(log_q - log_Z, log_q)
                        + log_poch_lower(log_Z, log_q))
            return out

        node_err = 2 * ell + 2 * math.exp(-log_poch_lower(log_q, log_q)) + 1
        return plan_periodic_trapezoid(c, d_hi, log_bound, prec, node_err)


def F_ls_multivar_quadrature(ell: int, s, point: MultivarPoint,
                             contour_imag=None, prec: int = DEFAULT_PREC):
    """Fourier coefficient at zeta_ell^s of the product, by the trapezoid
    rule over z_ell = x + i c, x in [0, 1), on the nodes and at the node
    precision multivar_quadrature_plan certifies to within 2^-prec.

    ``s`` may be a half-integer (the proof route uses indices in
    Z + ell/2); the integrand is then anti-periodic-compensated by the
    e^{-2 pi i s z} factor which is still well-defined via s as a number.
    """
    cert = multivar_quadrature_plan(ell, s, point, contour_imag, prec)
    with mp.workprec(cert.prec + _GUARD_BITS):
        c, _ = _contour_height(point, contour_imag)
        sf = fraction_mpf(Fraction(s))

        def f(x):
            z = x + 1j * c
            return F_ell_product(list(point.zs) + [z], point.tau, cert.prec) \
                * mp.exp(-2j * mp.pi * sf * z)

        return periodic_trapezoid(f, cert.nodes)


def script_F_value(w, point: MultivarPoint, prec: int = DEFAULT_PREC):
    """(-1)^ell / prod_{j=1}^{ell} theta(w_j - w); simple poles at w = w_j."""
    with mp.workprec(prec + _GUARD_BITS):
        den = mp.mpc(1)
        for wj in point.ws:
            den *= theta(wj - w, point.tau, prec)
        if abs(den) < mp.mpf(2) ** (-prec // 2):
            raise NearPoleError("w too close to one of the w_j")
        return (-1) ** point.ell / den


def F_ls_decomposed(ell: int, s: int, point: MultivarPoint,
                    prec: int = DEFAULT_PREC):
    """Residue-sum value

        -i^{ell+1} q^{-h_s + c/24} eta^{ell-2} prod_j zeta_j^{j s/ell}
          * sum_{nu=1}^{ell} theta_plus_{s-ell/2, eps, ell/2}
                (w_nu - (1/ell) sum_j w_j) / prod_{j != nu} theta(w_nu - w_j),

    with eps = ell mod 2 and zeta_j^{j s/ell} := e^{2 pi i z_j j s/ell}
    (branch fixed through z_j, not through a root of zeta_j).
    """
    if point.ell != ell:
        raise ValueError("point dimension does not match ell")
    with mp.workprec(prec + _GUARD_BITS):
        tau = point.tau
        eps = ell % 2
        params = PartialThetaParams(Fraction(s) - Fraction(ell, 2), eps,
                                    Fraction(ell, 2))
        exp_pref = -h_s(ell, s) + Fraction(central_charge(ell), 24)
        pref = -(1j) ** (ell + 1) * cexp(tau * fraction_mpf(exp_pref)) \
            * eta(tau, prec) ** (ell - 2)
        for j, z in enumerate(point.zs, start=1):
            pref *= cexp(z * mp.mpf(j * s) / ell)
        wm = sum(point.ws, mp.mpc(0)) / ell
        total = mp.mpc(0)
        for nu in range(ell):
            num = partial_theta(params, point.ws[nu] - wm, tau, prec)
            den = mp.mpc(1)
            for j in range(ell):
                if j != nu:
                    den *= theta(point.ws[nu] - point.ws[j], tau, prec)
            total += num / den
        return pref * total


def random_admissible_point(ell: int, tau, rng: random.Random,
                            prec: int = DEFAULT_PREC,
                            max_tries: int = 200) -> MultivarPoint:
    """Rejection-sample z_j with 0 < Im z_j < Im(tau)/ell and
    non-degenerate w-vector, deterministically from ``rng``."""
    v = float(mp.im(tau))
    for _ in range(max_tries):
        zs = [mp.mpc(rng.uniform(-0.45, 0.45),
                     rng.uniform(0.08, 0.92) * v / ell)
              for _ in range(ell - 1)]
        try:
            return MultivarPoint(tuple(zs), tau, prec)
        except (ValueError, DegenerateWVectorError):
            continue
    raise RuntimeError("could not sample an admissible point")
