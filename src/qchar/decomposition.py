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
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .characters import central_charge, h_s
from .certified import (_GUARD_BITS, Certificate, NearPoleError, fixed_mul,
                        fraction_mpf, from_fixed, log_poch_lower,
                        periodic_trapezoid, plan_periodic_trapezoid, to_fixed)
from .modular_objects import (DEFAULT_PREC, _require_upper_half, _tol, cexp,
                              eta, euler_phi_numeric, theta)
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


# F_ell_product runs its loop on the grid 2^-(prec + _PRODUCT_BITS); the
# rounding that adds, bounded by _product_rounding, enters the node error of
# multivar_quadrature_plan.
_PRODUCT_BITS = 32


def _pair_count(log_Z: float, log_q: float, prec: int) -> int:
    """The least m >= 1 with (|q|^{m+1}/|Z| + |Z| |q|^m)/(1 - |q|) < 2^-prec,
    from doubles; the 1e-6 margin covers their rounding."""
    lo, hi = sorted((log_Z, log_q - log_Z))
    log_lead = hi + math.log1p(math.exp(lo - hi))  # log(|Z| + |q|/|Z|)
    need = -prec * math.log(2) + math.log1p(-math.exp(log_q)) - log_lead
    return max(1, math.floor((need - 1e-6) / log_q) + 1)


def _near_unit(log_f0: float, log_q: float, m: int, width: float):
    """The k < m with |log_f0 + k log_q| < width (log_q < 0): the factors
    f_k = f_0 q^k whose modulus may lie near 1."""
    lo = max(0, math.floor((log_f0 - width) / -log_q))
    hi = min(m - 1, math.ceil((log_f0 + width) / -log_q))
    return [k for k in range(lo, hi + 1)
            if abs(log_f0 + k * log_q) < width]


def _product_rounding(log_Zs, log_q: float, prec: int) -> float:
    """Bound, in units of 2^-(prec + _PRODUCT_BITS), on the relative error
    the fixed-point loop of F_ell_product adds at a node whose |Z_j| are
    e^{log_Zs}: twice the sum over its factor pairs of
    (2 (|Z| + |q|/|Z|) + 10)/|t_k| + 3, with |t_k| at least
    |1 - |Z q^k|| |1 - |q^{k+1}/Z||.  Doubles; F_ell_product derives it."""
    total = 0.0
    for log_Z in log_Zs:
        size = 2 * (math.exp(log_Z) + math.exp(log_q - log_Z)) + 10
        for k in range(_pair_count(log_Z, log_q, prec)):
            low = (abs(math.expm1(log_Z + k * log_q))
                   * abs(math.expm1((k + 1) * log_q - log_Z)))
            if low == 0:
                return math.inf
            total += size / low + 3
    return 2 * total


def _power_table(q, m: int, wp: int):
    """((q^k, 1 + q^{2k+1}) for k < m) on the grid 2^-wp, from mpmath
    products at wp + 16 bits."""
    with mp.workprec(wp + 16):
        q2 = q * q
        qk, q2k1 = mp.mpc(1), q
        pows = []
        for _ in range(m):
            pows.append((to_fixed(qk, wp), to_fixed(1 + q2k1, wp)))
            qk *= q
            q2k1 *= q2
        return tuple(pows)


@lru_cache(maxsize=16)
def _q_powers(tau, prec: int):
    """(q, (q)_inf, _power_table) at tau, with as many pairs as
    F_ell_product needs for every |q| <= |Z| <= 1."""
    wp = prec + _PRODUCT_BITS
    with mp.workprec(wp + 16):
        q = cexp(tau)
        m = _pair_count(0.0, -2 * math.pi * float(mp.im(tau)), prec)
        return q, euler_phi_numeric(q, _tol(prec)), _power_table(q, m, wp)


@lru_cache(maxsize=16)
def _prefix_exps(head, prec: int):
    """Per j, (P_j, 1/P_j, log|P_j|) with P_j = e^{2 pi i (z_j + ... +
    z_{ell-1})} for head = (z_1, ..., z_{ell-1}), and (1, 1, 0) for
    j = ell: Z_j = P_j e^{2 pi i z_ell}, so the nodes of one point share
    them."""
    with mp.workprec(prec + _PRODUCT_BITS + 16):
        out = [(mp.mpc(1), mp.mpc(1), 0.0)]
        w = mp.mpc(0)
        for z in reversed(head):
            w += z
            out.append((cexp(w), cexp(-w), -2 * math.pi * float(mp.im(w))))
        return tuple(reversed(out))


def F_ell_product(zs_full, tau, prec: int = DEFAULT_PREC):
    """(q)_inf prod_{j=1}^{ell} prod_{k>=1}
    1/((1 - Z_j^{-1} q^k)(1 - Z_j q^{k-1})) with Z_j = e^{2 pi i
    (z_j + ... + z_ell)}; certified tails, pole-proximity guarded.

    Each j keeps the first m factor pairs (_pair_count), m the least with
    (|q|^{m+1}/|Z_j| + |Z_j| |q|^m)/(1 - |q|) < 2^-prec.  A pair is one term,
    t_k = (1 - Z q^k)(1 - q^{k+1}/Z) = 1 - c q^k + q^{2k+1} with
    c = Z + q/Z, over the cached powers of q.  The guard |1 - f| >=
    2^-(prec//4) holds wherever ||f| - 1| >= 2^-(prec//4), since |1 - f| >=
    |1 - |f||; only the factors with log|f| near 0, found from doubles, are
    checked, and multiplied on mpmath one by one.

    The other pairs are multiplied in fixed point on the grid u = 2^-wp,
    wp = prec + _PRODUCT_BITS, into a running product D kept normalised
    (larger part in [2^(wp-1), 2^wp) units, exponent apart).  In units u,
    with S = |Z| + |q/Z|: Z, q/Z, c and the cached q^k, 1 + q^{2k+1} come
    from mpmath at wp + 16 bits (relative error below 2^-(wp+4) while
    |z_j + ... + z_ell| < 600), so each enters within 1.5 + |v|/16 and c
    within 1.5 + S/16; the truncated product c q^k is then within
    1.7 S + 3, and t_k within 1.7 S + 4.6.  The shift of D t_k errs by
    sqrt(2) units on a product of modulus at least 2^(wp-1) |t_k|, and
    renormalising by sqrt(2) on at least 2^(wp-1).  So pair k has relative
    error e_k <= ((2 S + 10)/|t_k| + 3) u, and as prod(1 + e_k) - 1 <=
    2 sum e_k while sum e_k <= 1, the loop errs by at most _product_rounding
    units u.  The near pairs, on mpmath, err by less than their share.
    """
    _require_upper_half(tau)
    wp = prec + _PRODUCT_BITS
    with mp.workprec(wp + 16):
        tau = mp.mpc(tau)
        q, phi, pows = _q_powers(tau, prec)
        log_q = -2 * math.pi * float(tau.imag)
        z = mp.mpc(zs_full[-1])
        Zl, iZl = cexp(z), cexp(-z)
        log_Zl = -2 * math.pi * float(z.imag)
        thresh = mp.mpf(2) ** (-prec // 4)
        # ||f| - 1| < thresh <= 1/2 implies |log|f|| < 2 thresh; 1e-9 covers
        # the doubles
        width = 4 * 2.0 ** (-(prec // 4)) + 1e-9
        D, shift = (1 << wp, 0), 0
        near_den = mp.mpc(1)
        prefix = _prefix_exps(tuple(zs_full[:-1]), prec)
        for j, (P, iP, log_P) in enumerate(prefix):
            Z, qZ = P * Zl, q * iP * iZl
            log_Z = log_P + log_Zl
            m = _pair_count(log_Z, log_q, prec)
            if m > len(pows):  # |Z| outside [|q|, 1]
                pows = _power_table(q, m, wp)
            near = _near_unit(log_Z, log_q, m, width) \
                + _near_unit(log_q - log_Z, log_q, m, width)
            c = to_fixed(Z + qZ, wp)
            for k in range(m):
                if near and k in near:
                    qk = q ** k
                    d1, d2 = 1 - qZ * qk, 1 - Z * qk
                    if abs(d1) < thresh or abs(d2) < thresh:
                        raise NearPoleError(
                            f"Pochhammer factor for j={j+1} vanishes to "
                            "working precision")
                    near_den *= d1 * d2
                    continue
                qk, (one_r, one_i) = pows[k]
                cq = fixed_mul(c, qk, wp)
                D = fixed_mul(D, (one_r - cq[0], one_i - cq[1]), wp)
                e = (abs(D[0]) | abs(D[1])).bit_length() - wp
                if e > 0:
                    D = D[0] >> e, D[1] >> e
                elif e < 0:
                    D = D[0] << -e, D[1] << -e
                shift += e
        return phi / (from_fixed(D, wp, shift) * near_den)


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
    node at p bits has relative error at most node_err 2^-p with

        node_err = 2 ell + 2/prod(1 - |q|^n) + 1 + R 2^-_PRODUCT_BITS:

    each tail of F_ell_product and of (q)_inf is below 2^-p, the guard bits
    absorb the rounding of its mpmath steps, and its fixed-point loop adds at
    most R = _product_rounding(log|Z_j| on the contour, log|q|, p) units of
    2^-(p + _PRODUCT_BITS).  R grows with p through the pair counts, so the
    plan is repeated until the R it assumed covers the R at the precision it
    chose (twice in practice).
    """
    if point.ell != ell:
        raise ValueError("point dimension does not match ell")
    start = time.perf_counter()
    with mp.workprec(prec + _GUARD_BITS):
        c, hi = _contour_height(point, contour_imag)
        c, d_hi = float(c), float(hi - c)
        log_q = -2 * math.pi * float(mp.im(point.tau))
        im_ws = [float(mp.im(w)) for w in point.ws]
        log_Zs = [-2 * math.pi * (c - im_w) for im_w in im_ws]
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
        rounding = 0.0
        while True:
            cert = plan_periodic_trapezoid(c, d_hi, log_bound, prec,
                                           node_err + rounding)
            need = (_product_rounding(log_Zs, log_q, cert.prec)
                    * 2.0 ** -_PRODUCT_BITS)
            if need <= rounding:
                return replace(cert, seconds=time.perf_counter() - start)
            rounding = need


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


_MAX_POINT_TRIES = 200


def random_admissible_point(ell: int, tau, rng: random.Random,
                            prec: int = DEFAULT_PREC) -> MultivarPoint:
    """Rejection-sample z_j with 0 < Im z_j < Im(tau)/ell and
    non-degenerate w-vector, deterministically from ``rng``, in at most
    _MAX_POINT_TRIES draws."""
    v = float(mp.im(tau))
    for _ in range(_MAX_POINT_TRIES):
        zs = [mp.mpc(rng.uniform(-0.45, 0.45),
                     rng.uniform(0.08, 0.92) * v / ell)
              for _ in range(ell - 1)]
        try:
            return MultivarPoint(tuple(zs), tau, prec)
        except (ValueError, DegenerateWVectorError):
            continue
    raise RuntimeError("could not sample an admissible point")
