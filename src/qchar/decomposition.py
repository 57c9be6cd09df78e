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

import mpmath as mp

from .characters import central_charge, h_s
from .certified import (_GUARD_BITS, Certificate, NearPoleError, fixed_div,
                        fixed_mul, fraction_mpf, from_fixed, log_poch_lower,
                        plan_periodic_trapezoid, to_fixed)
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


# The product route's kernel.  Per j the factors pair up as t_k = (1 - Z
# q^k)(1 - q^{k+1}/Z) = 1 + q^{2k+1} - c q^k with c = Z + q/Z, so the first m
# pairs multiply to a polynomial sum_i a_i c^i whose coefficients depend on
# tau and m alone (_pair_coefficients); every node then costs ell Horner
# evaluations of degree I << m on the grid 2^-wp.  For |q| <= |Z| <= 1,
# |c| <= S = 1 + |q|, and Pbar = prod_{k<m} (1 + |q|^{2k+1} + |q|^k S)
# bounds both |P(c)| and the norm sum_i |a_i| S^i of the polynomial or of
# any of its partial products.


def _pair_count(log_q: float, prec: int) -> int:
    """The least m >= 1 with |q|^m (1 + |q|)/(1 - |q|) < 2^-prec, from doubles
    (the 1e-6 margin covers their rounding): for every |q| <= |Z| <= 1 the
    pairs k >= m then sum |Z q^k| + |q^{k+1}/Z| below 2^-prec."""
    Q = math.exp(log_q)
    need = -prec * math.log(2) + math.log1p(-Q) - math.log1p(Q)
    return max(1, math.floor((need - 1e-6) / log_q) + 1)


def _log_pair_norm(log_q: float) -> float:
    """An upper bound of log Pbar for every m: log(1 + |q| + S) for k = 0,
    and log(1 + x) <= x for the rest."""
    Q = math.exp(log_q)
    return math.log(2 + 2 * Q) + Q ** 3 / (1 - Q * Q) + (1 + Q) * Q / (1 - Q)


def _coefficient_degree(log_q: float, m: int, log_target: float) -> int:
    """The least I <= m whose dropped terms sum_{I < i <= m} |a_i| S^i are
    at most e^{log_target}, from the a-priori bound

        |a_i| <= beta_i = prod_k (1 + |q|^{2k+1}) |q|^{i(i-1)/2}/(|q|;|q|)_i:

    the c^i coefficient of prod_k (1 + q^{2k+1} - q^k c) is at most
    prod_k |1 + q^{2k+1}| times the i-th elementary symmetric function of
    the |q|^k, which is |q|^{i(i-1)/2}/(|q|;|q|)_i by Euler's identity.  The
    terms beta_i S^i fall in ratio rho_i = |q|^i S/(1 - |q|^{i+1}) from i to
    i + 1, so the tail past I is below beta_{I+1} S^{I+1}/(1 - rho_{I+1})
    once rho_{I+1} < 1.  Doubles; the callers' target keeps a factor 2 for
    their rounding."""
    Q = math.exp(log_q)
    log_S = math.log1p(Q)

    def log_rho(i):
        return i * log_q + log_S - math.log(-math.expm1((i + 1) * log_q))

    log_term = Q / (1 - Q * Q)  # log beta_0 <= sum_k |q|^{2k+1}
    for i in range(m):
        log_term += log_rho(i)  # now log(beta_{i+1} S^{i+1})
        if log_rho(i + 1) < 0 and \
                log_term - math.log(-math.expm1(log_rho(i + 1))) <= log_target:
            return i
    return m


def _pair_coefficients(tau, m: int, I: int, wp: int):
    """(a_I, ..., a_0), highest first, on the grid u = 2^-wp: the c^i
    coefficients, i <= I, of prod_{k<m} (1 + q^{2k+1} - q^k c).

    The factors are multiplied out on the finer grid v = 2^-(wp + g),
    keeping the degrees up to I; a factor only raises degrees, so these are
    the exact coefficients of the full product.  Error, in the norm
    ||e||_S = sum_i |e_i| S^i: b_k = 1 + q^{2k+1} and q^k come from mpmath
    at wp + g + 16 bits and enter within 1.5 v, which moves the product by
    1.5 (1 + S) v times the norm of the partial product, at most Pbar; each
    new coefficient floors each part once, sqrt(2) v, and sigma = sum_{i<=I}
    S^i weighs these.  A factor multiplies the earlier error's norm by at
    most its own, and all factors together by at most Pbar, so to first
    order the build errs by E v, E = m Pbar (1.5 (1 + S) + sqrt(2) sigma).
    g makes E v <= u/4, so within u/2 with the higher orders.  The final
    shift floors each part once more: the coefficients are within (1/2 +
    sqrt(2) sigma) u in the S-norm.
    """
    Q = math.exp(-2 * math.pi * float(mp.im(tau)))
    S = 1 + Q
    sigma = (S ** (I + 1) - 1) / Q
    log2_E = (math.log2(m * (1.5 * (1 + S) + math.sqrt(2) * sigma))
              + _log_pair_norm(math.log(Q)) / math.log(2))
    g = 2 + max(0, math.ceil(log2_E))
    wb = wp + g
    # q^k by repeated products, each within a relative 2^-(wb + 16 +
    # bits(m)) of the last
    with mp.workprec(wb + 16 + m.bit_length()):
        q = cexp(tau)
        qk = mp.mpc(1)
        a = [(1 << wb, 0)]
        for _ in range(m):
            br, bi = to_fixed(1 + qk * qk * q, wb)
            gr, gi = to_fixed(qk, wb)
            ur = ui = 0  # a_{i-1}
            nxt = []
            for ar, ai in a:  # b a_i - q^k a_{i-1}, one floor per part
                nxt.append(((br * ar - bi * ai - gr * ur + gi * ui) >> wb,
                            (br * ai + bi * ar - gr * ui - gi * ur) >> wb))
                ur, ui = ar, ai
            if len(a) <= I:
                nxt.append(((gi * ui - gr * ur) >> wb,
                            (-gr * ui - gi * ur) >> wb))
            a = nxt
            qk *= q
    return tuple((ar >> g, ai >> g) for ar, ai in reversed(a))


def _q_phi(tau, prec: int):
    """(q, (q)_inf) at tau, at prec + _GUARD_BITS bits."""
    with mp.workprec(prec + _GUARD_BITS):
        q = cexp(tau)
        return q, euler_phi_numeric(q, _tol(prec))


def _log_sum(logs) -> float:
    """log sum_i e^{logs_i}, without overflow."""
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _pair_sum(tau, args, N: int, s: int, prec: int):
    """sum_{n<N} e^{-2 pi i s n/N} / prod_j P(Z_j(n)) with Z_j(n) = e^{2 pi i
    (args_j + n/N)}, P(Z) = prod_{k<m} (1 - Z q^k)(1 - q^{k+1}/Z) and m =
    _pair_count(log|q|, prec), for |q| <= |Z_j| <= 1 (up to the doubles'
    rounding); each term is within a relative 2^-prec of its value with P's
    pairs truncated at m.  NearPoleError when a factor is within
    2^-(prec//4) of 0.

    |Z_j(n)| is the same at every node, so the lower bound L_j =
    prod_{k<m} |1 - |Z q^k|| |1 - |q^{k+1}/Z|| <= |P| and the factors whose
    modulus may lie near 1 (only 1 - Z and 1 - q/Z can) are found once, from
    doubles.  Where ||f| - 1| >= 2^-(prec//4) the guard |1 - f| >=
    2^-(prec//4) holds by |1 - f| >= |1 - |f||; a near factor is checked at
    every node on mpmath, and counts 2^-(prec//4) in L_j.

    The nodes run on the grid u = 2^-wp.  With A_j = Z_j(0), B_j = q/A_j and
    omega = e^{2 pi i/N}: W <- W omega gives e^{2 pi i n/N}, c_j = A_j W +
    B_j conj(W) (one floor per part), P(c_j) by Horner's rule on the first
    I + 1 coefficients, their product D, and the term W_s/D with W_s <- W_s
    e^{-2 pi i s/N}, summed exactly.  Rounding, in units u and to first
    order (Higham, Accuracy and Stability, 2002, sec. 5.1 for Horner): A_j,
    B_j, omega and e^{-2 pi i s/N} come from mpmath at wp + 16 bits and
    enter within 1.5, so W and W_s are within 3N at every node, as in
    line_trapezoid, and c_j within 3SN + 5; the coefficients within 1/2 +
    sqrt(2) sigma in the S-norm (_pair_coefficients); Horner's floors add
    sqrt(2) sigma; and |P'| <= Pbar/(1 - |q|) carries c_j's error.  So P(c_j)
    is within e_P = 1/2 + 2 sqrt(2) sigma + Pbar (3SN + 5)/(1 - |q|), a
    relative e_P/L_j.  Each product into D floors by sqrt(2) on a value of
    modulus at least prod_j L_j (every L_j <= 1), and the quotient by
    sqrt(2) on a term of modulus at least Pbar^-ell.  The relative error of
    a term is therefore at most R u with

        R = 2 (3N + e_P sum_j 1/L_j + (ell - 1) sqrt(2)/prod_j L_j
               + sqrt(2) Pbar^ell),

    the 2 covering higher orders, and wp = prec + 1 + ceil(log2 R) keeps
    it below 2^-(prec+1).  I, from _coefficient_degree, keeps the dropped
    coefficients' share sum_j T_I/L_j below 2^-(prec+1) as well.
    """
    log_q = -2 * math.pi * float(mp.im(tau))
    Q = math.exp(log_q)
    S = 1 + Q
    log_thresh = -(prec // 4) * math.log(2)
    # ||f| - 1| < 2^-(prec//4) <= 1/2 implies |log|f|| < 2^(2 - prec//4);
    # 1e-9 covers the doubles
    width = 4 * 2.0 ** -(prec // 4) + 1e-9
    near, log_L = [], []
    for j, x in enumerate(args):
        log_Z = -2 * math.pi * float(mp.im(x))
        out = (log_poch_lower(log_Z + log_q, log_q)
               + log_poch_lower(2 * log_q - log_Z, log_q))
        for kind, log_f in enumerate((log_Z, log_q - log_Z)):
            if abs(log_f) < width:
                near.append((j, kind))
                out += log_thresh
            else:
                out += math.log(-math.expm1(-abs(log_f)))
        log_L.append(out)
    m = _pair_count(log_q, prec)
    log_inv_L = _log_sum([-x for x in log_L])
    I = _coefficient_degree(log_q, m, -(prec + 2) * math.log(2) - log_inv_L)
    log_P = _log_pair_norm(log_q)
    sigma = (S ** (I + 1) - 1) / Q
    e_P = (0.5 + 2 * math.sqrt(2) * sigma
           + math.exp(log_P) * (3 * S * N + 5) / (1 - Q))
    ell = len(args)
    log_R = math.log(2) + _log_sum(
        [math.log(3 * N), math.log(e_P) + log_inv_L,
         math.log(math.sqrt(2) * max(ell - 1, 1)) - sum(log_L),
         math.log(math.sqrt(2)) + ell * log_P])
    wp = prec + 1 + math.ceil(log_R / math.log(2))
    coeffs = _pair_coefficients(tau, m, I, wp)
    top, rest = coeffs[0], coeffs[1:]
    with mp.workprec(wp + 16):
        q = cexp(tau)
        lines = []
        for x in args:
            A = cexp(x)
            ar, ai = to_fixed(A, wp)
            br, bi = to_fixed(q / A, wp)
            lines.append((ar + br, bi - ai, ai + bi, ar - br))
        omega = to_fixed(mp.expjpi(mp.mpf(2) / N), wp)
        omega_s = to_fixed(mp.expjpi(mp.mpf(-2 * s) / N), wp)
    thresh = mp.mpf(2) ** -(prec // 4)
    one = 1 << wp
    W, W_s = (one, 0), (one, 0)
    acc_r = acc_i = 0
    for n in range(N):
        for j, kind in near:
            Z = cexp(args[j] + mp.mpf(n) / N)
            if abs(1 - (q / Z if kind else Z)) < thresh:
                raise NearPoleError(
                    f"Pochhammer factor for j={j+1} vanishes to working "
                    "precision")
        wr, wi = W
        D = None
        for s1, s2, s3, s4 in lines:
            cr = (s1 * wr + s2 * wi) >> wp
            ci = (s3 * wr + s4 * wi) >> wp
            hr, hi = top
            for xr, xi in rest:
                hr, hi = (((hr * cr - hi * ci) >> wp) + xr,
                          ((hr * ci + hi * cr) >> wp) + xi)
            D = (hr, hi) if D is None else fixed_mul(D, (hr, hi), wp)
        tr, ti = fixed_div(W_s, D, wp)
        acc_r += tr
        acc_i += ti
        W = fixed_mul(W, omega, wp)
        W_s = fixed_mul(W_s, omega_s, wp)
    return from_fixed((acc_r, acc_i), wp)


def F_ell_product(zs_full, tau, prec: int = DEFAULT_PREC):
    """(q)_inf prod_{j=1}^{ell} prod_{k>=1}
    1/((1 - Z_j^{-1} q^k)(1 - Z_j q^{k-1})) with Z_j = e^{2 pi i
    (z_j + ... + z_ell)}; certified tails, pole-proximity guarded.

    With P(Z) = prod_{k>=0} (1 - Z q^k)(1 - q^{k+1}/Z) the product is (q)_inf
    / prod_j P(Z_j), and one point is one node of the quadrature's kernel,
    _pair_sum.  A Z_j off the annulus |q| <= |Z| <= 1 is first moved onto it
    by the exact finite regrouping

        P(Z) = P(Z q^r) prod_{k<r} (1 - Z q^k) / prod_{k<r} (1 - q^{k+1}/(Z q^r))

    for r > 0 (|Z| > 1), and the same read from Z q^r for r < 0; its
    factors are guarded one by one and multiplied on mpmath.
    """
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        tau = mp.mpc(tau)
        q, phi = _q_phi(tau, prec)
        thresh = mp.mpf(2) ** -(prec // 4)
        ratio = mp.mpc(1)  # prod_j P(Z_j q^r_j)/P(Z_j)
        args = []
        for j in range(len(zs_full)):
            x = sum(zs_full[j:], mp.mpc(0))
            r = math.ceil(-float(x.imag) / float(tau.imag))
            num, den = [], []
            if r:
                Z, Zr = cexp(x), cexp(x + r * tau)
                for k in range(abs(r)):
                    if r > 0:
                        num.append(Z * q ** k)
                        den.append(q ** (k + 1) / Zr)
                    else:
                        num.append(q ** (k + 1) / Z)
                        den.append(Zr * q ** k)
            for f in num + den:
                if abs(1 - f) < thresh:
                    raise NearPoleError(
                        f"Pochhammer factor for j={j+1} vanishes to working "
                        "precision")
            for f in num:
                ratio /= 1 - f
            for f in den:
                ratio *= 1 - f
            args.append(x + r * tau)
        return phi * ratio * _pair_sum(tau, args, 1, 0, prec)


def _contour_height(point: MultivarPoint, contour_imag):
    """(c, c_max): the contour height, c_max / 2 unless given, checked
    against the admissible strip (0, c_max)."""
    lo, hi = point.contour_height_range()
    c = mp.mpf(contour_imag) if contour_imag is not None else hi / 2
    if not lo < c < hi:
        raise ValueError("contour height outside the admissible strip")
    return c, hi


def _node_error(ell: int, log_q: float) -> float:
    """node_err of the product nodes, in units of 2^-p relative: 2 for each
    of the ell pair tails (_pair_count), 2/prod(1 - |q|^n) for the tail of
    (q)_inf, 1 for the mpmath steps around the kernel, absorbed by the guard
    bits, and 1 for the kernel's truncation and rounding (_pair_sum)."""
    return 2 * ell + 2 * math.exp(-log_poch_lower(log_q, log_q)) + 2


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
    node at p bits has relative error at most _node_error(ell, log|q|)
    2^-p, in closed form: the kernel picks its own grid to keep its share
    below 2^-p.  s must be an integer: the product is 1-periodic in z_ell,
    and for any other s the integrand is not, so no trapezoid bound holds.
    """
    if point.ell != ell:
        raise ValueError("point dimension does not match ell")
    if Fraction(s).denominator != 1:
        raise ValueError("s must be an integer: the product is 1-periodic "
                         "in z_ell")
    start = time.perf_counter()
    with mp.workprec(prec + _GUARD_BITS):
        c, hi = _contour_height(point, contour_imag)
        c, d_hi = float(c), float(hi - c)
        log_q = -2 * math.pi * float(mp.im(point.tau))
        im_ws = [float(mp.im(w)) for w in point.ws]
        sf = float(s)

        def log_bound(dy):
            y = c + dy
            out = (math.exp(log_q) / -math.expm1(log_q)
                   + 2 * math.pi * sf * y)
            for im_w in im_ws:
                log_Z = -2 * math.pi * (y - im_w)
                out -= (log_poch_lower(log_q - log_Z, log_q)
                        + log_poch_lower(log_Z, log_q))
            return out

        cert = plan_periodic_trapezoid(c, d_hi, log_bound, prec,
                                       _node_error(ell, log_q))
        return replace(cert, seconds=time.perf_counter() - start)


def F_ls_multivar_quadrature(ell: int, s, point: MultivarPoint,
                             contour_imag=None, prec: int = DEFAULT_PREC):
    """Fourier coefficient at zeta_ell^s (s an integer) of the product, by
    the trapezoid rule over z_ell = x + i c, x in [0, 1), on the nodes and
    at the node precision multivar_quadrature_plan certifies to within
    2^-prec.  On that line Z_j = e^{2 pi i (z_ell - w_j)} and
    e^{-2 pi i s z_ell} = e^{2 pi s c} e^{-2 pi i s x}, so the nodes are one
    _pair_sum scaled by (q)_inf e^{2 pi s c}/N.
    """
    cert = multivar_quadrature_plan(ell, s, point, contour_imag, prec)
    with mp.workprec(cert.prec + _GUARD_BITS):
        c, _ = _contour_height(point, contour_imag)
        _, phi = _q_phi(point.tau, cert.prec)
        s = int(Fraction(s))
        total = _pair_sum(point.tau, [1j * c - w for w in point.ws],
                          cert.nodes, s, cert.prec)
        return phi * mp.exp(2 * mp.pi * s * c) * total / cert.nodes


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
