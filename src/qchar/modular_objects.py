"""Numeric eta/theta/Eisenstein evaluation and quasimodular Laurent data.

Numeric routines work at a caller-chosen binary precision (default 256 bits)
and plan the length of each series or product before they sum it, in
doubles, from a certified geometric tail bound below the target tolerance.

Branch rule used throughout: powers q^x with non-integer x are never formed
from a complex q; exponentials are always assembled as e^{2*pi*i*tau*x}.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp
from mpmath.libmp import to_fixed as _mpf_to_fixed

from .bernoulli_euler import bernoulli_number
from .exact_series import ExactQSeries, divisor_sigma_list

DEFAULT_PREC = 256
_GUARD_BITS = 24


class NearPoleError(ValueError):
    """Evaluation point too close to a pole/zero for the working precision."""


def cexp(w):
    """e^{2 pi i w}."""
    return mp.exp(2j * mp.pi * w)


def _require_upper_half(tau):
    if not mp.im(tau) > 0:
        raise ValueError("tau must lie in the upper half-plane")


def _tol(prec: int):
    return mp.mpf(2) ** (-prec)


def fraction_mpf(x):
    """The rational x as an mpf: its numerator over its denominator, rounded
    at the working precision."""
    return mp.mpf(x.numerator) / x.denominator


# Fixed-point complex numbers: a pair (re, im) of ints standing for
# (re + i im) 2^-wp, the idiom of mpmath's own jtheta.  Each right shift or
# floor division rounds every part down by less than one unit, so a result
# lies within sqrt(2) 2^-wp of the exact value of its integer inputs.

def to_fixed(z, wp: int):
    """The complex z on the grid 2^-wp, each part rounded down."""
    z = mp.mpc(z)
    return _mpf_to_fixed(z.real._mpf_, wp), _mpf_to_fixed(z.imag._mpf_, wp)


def from_fixed(x, wp: int, shift: int = 0):
    """The mpc (re + i im) 2^(shift - wp), rounded at the working
    precision."""
    return mp.mpc(mp.ldexp(x[0], shift - wp), mp.ldexp(x[1], shift - wp))


def fixed_mul(x, y, wp: int):
    """x y on the grid 2^-wp."""
    xr, xi = x
    yr, yi = y
    return (xr * yr - xi * yi) >> wp, (xr * yi + xi * yr) >> wp


def fixed_div(x, y, wp: int):
    """x / y on the grid 2^-wp, from one exact product and one floor
    division per part; y must not be 0."""
    xr, xi = x
    yr, yi = y
    den = yr * yr + yi * yi
    return (((xr * yr + xi * yi) << wp) // den,
            ((xi * yr - xr * yi) << wp) // den)


@dataclass(frozen=True)
class Certificate:
    """How a certified quadrature value or series sum was reached: nodes or
    terms, step ``h`` (1 for a series), the length ``X`` the nodes cover (the
    cutoff half-width on R, the period 1 of a periodic integrand, or the last
    x of a series), the a-priori absolute error bound, the precision in bits
    it was certified at (for a periodic plan, that of its nodes; for a
    series, that of its recurrence), and the seconds it took (for a periodic
    plan, the planning, before any node is evaluated)."""
    nodes: int
    h: object
    X: object
    bound: object
    prec: int
    seconds: float


def certified_gaussian_sum(alpha, beta, r, sign: int, poly, prec: int):
    """(sum_{n>=0} sign^n P(x_n) e^{alpha x_n^2 + beta x_n}, Certificate),
    x_n = n + r, P(x) = sum_k poly[k] x^k of degree d, sign = +-1, r
    rational, Re alpha < 0 (else ValueError); certified for alpha, beta and
    poly as given and r exact.

    With a = -Re alpha, b = Re beta and Pbar(y) = sum_k |poly[k]| y^k, term
    n is at most B_n = Pbar(|x_n|) e^{-a x_n^2 + b x_n}; for x_n > 0 the
    ratio B_{n+1}/B_n is at most rho_n = (1 + 1/x_n)^d e^{-a(2x_n + 1) + b},
    which falls as x_n grows, so the tail from n is below T = B_n/(1 - rho_n).
    Planned in doubles, the sum stops before the first n >= 1 with x_n > 0,
    rho_n < e^(-10^-6) and T <= 2^-(prec + _GUARD_BITS), the callers'
    precision; the bound counts T twice for the doubles' rounding.  (Halving
    bounds, rho_n <= 1/2, would cost about 0.36/a terms at small a.)

    Terms come from E_{n+1} = E_n R_n, R_{n+1} = R_n Q, E_0 = e^{alpha r^2 +
    beta r}, R_0 = sign e^{alpha (2r+1) + beta}, Q = e^{2 alpha}: three exps,
    formed at extra bits to enter within u = 2^(1-wp), which bounds one
    rounding of an mpf, or of each part of an mpc, relative to its modulus.
    To first order, R_n is then within (2n + 1) u and E_n within (n + 1)^2 u,
    relative; x_n is off by u (|x_n| + 2|r|), moving P by d (1 + 2|r|) u
    Pbar(y_n), y_n = |x_n| + 1; Horner's rule (mp.polyval) adds 2 d u
    Pbar(y_n) (Higham, Accuracy and Stability, 2002, eq. 5.3), the product
    P E_n u and the sum (N - 1) u sum |terms|.  With G = e^{b^2/(4a)} >=
    |E_n| and Y = max y_n, the rounding is below K u, K = 2 N G Pbar(Y) (d
    (2|r| + 4) + N^2 + N + 1), the 2 covering higher orders; wp keeps K u <=
    2^-(prec + _GUARD_BITS).  Returns the value at wp bits and
    Certificate(N, 1, the last x, 2 T + K u, wp, seconds).
    """
    start = time.perf_counter()
    r = Fraction(r)
    a, b, rf = -float(mp.re(alpha)), float(mp.re(beta)), float(r)
    if not a > 0:
        raise ValueError("a Gaussian sum needs Re alpha < 0")
    d = len(poly) - 1
    abs_coeffs = [float(abs(c)) for c in poly]

    def log_pbar(y):
        return math.log(sum(c * y ** k for k, c in enumerate(abs_coeffs)))

    for N in range(max(1, math.floor(-r) + 1), 10_000_000):
        x = N + rf
        log_rho = d * math.log1p(1 / x) - a * (2 * x + 1) + b
        if log_rho < -1e-6:
            log_T = (log_pbar(x) - a * x * x + b * x
                     - math.log(-math.expm1(log_rho)))
            if log_T <= -(prec + _GUARD_BITS) * math.log(2):
                break
    else:
        raise RuntimeError("Gaussian sum needs too many terms")
    Y = max(abs(rf), abs(N - 1 + rf)) + 1
    log2_K = (math.log2(2 * N * (d * (2 * abs(rf) + 4) + N * N + N + 1))
              + (b * b / (4 * a) + log_pbar(Y)) / math.log(2))
    wp = prec + _GUARD_BITS + 1 + max(0, math.ceil(log2_K))
    # each exp's argument is below span: log2(span) + 12 bits past wp keep
    # its rounding far below u
    span = 4 * (float(abs(alpha)) + float(abs(beta)) + 1) * (abs(rf) + 1) ** 2
    with mp.workprec(wp + 12 + math.ceil(math.log2(span))):
        rr = fraction_mpf(r)
        E = mp.exp((alpha * rr + beta) * rr)
        R = sign * mp.exp(alpha * (2 * rr + 1) + beta)
        Q = mp.exp(2 * alpha)
    with mp.workprec(wp):
        acc = 0
        for n in range(N):
            acc += mp.polyval(poly[::-1], n + rr) * E
            E *= R
            R *= Q
        bound = 2 * mp.exp(log_T) + mp.ldexp(1, math.ceil(log2_K) + 1 - wp)
    return acc, Certificate(N, 1, N - 1 + r, bound, wp,
                            time.perf_counter() - start)


def log_poch_lower(log_f0, log_q) -> float:
    """A lower bound of sum_{k>=0} log|1 - f_k| over factors with
    log|f_k| = log_f0 + k log_q (log_q < 0), from |1 - f| >= |1 - |f||;
    -inf when some |f_k| = 1.  Double precision: callers plan with it, they
    do not evaluate with it."""
    total = 0.0
    k = 0
    while True:
        L = log_f0 + k * log_q
        if L > -40:
            x = -math.expm1(-abs(L))  # 1 - e^{-|L|}
            if x <= 0:
                return -math.inf
            total += math.log(x) + max(L, 0.0)
        else:
            # log(1 - u) >= -u/(1 - u) on the geometric rest u = e^L q^j
            x = math.exp(L)
            return total - x / ((1 - x) * -math.expm1(log_q))
        k += 1


# Strip half-widths tried, as fractions of the pole distance on each side.
# The log|f| bound grows like -log(1 - fraction) near the poles while the
# discretisation error falls like e^{-2 pi fraction d N}, so the least N
# comes from a fraction close to 1.
_STRIP_FRACTIONS = (0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99)
_MAX_STRIP_NODES = 1 << 16


def least_strip_nodes(d_lo: float, d_hi: float, log_bound, log_target: float,
                      extra) -> tuple:
    """(N, total): the least N over _STRIP_FRACTIONS with total = extra(N) +
    (M_lo/(e^{2 pi a_lo N} - 1) + M_hi/(e^{2 pi a_hi N} - 1))/target <= 1:
    the trapezoid rule's error with step 1/N on an f analytic on the strip
    -d_lo < Im x < d_hi (Trefethen & Weideman, SIAM Rev. 56, 2014, Thms 3.2
    and 5.1, one side at a time), relative to target = e^{log_target}.

    a = fraction * d on each side; log M = log_bound(y) + log 2 at y = -a_lo
    and y = a_hi, the 2 absorbing the rounding of the doubles.  M bounds |f|
    on that line for a 1-periodic f, and the integral of |f| along it for an
    f on R.  extra(N) is the caller's other error, relative to the target.
    Raises NearPoleError when no fraction reaches it within _MAX_STRIP_NODES.
    """
    def rel(log_x):  # e^{log_x} / target, without overflow
        return math.exp(min(log_x - log_target, 700.0))

    best = None
    for frac in _STRIP_FRACTIONS:
        sides = [(2 * math.pi * frac * d, log_bound(y) + math.log(2))
                 for d, y in ((d_lo, -frac * d_lo), (d_hi, frac * d_hi))]
        if not all(t > 0 and L < math.inf for t, L in sides):
            continue
        # each side alone must reach the target: e^{t N} > M / target
        N = max(1, max(math.floor((L - log_target) / t) for t, L in sides))
        while N <= _MAX_STRIP_NODES:
            total = extra(N) + sum(
                rel(L - t * N - math.log(-math.expm1(-t * N)))
                for t, L in sides)
            if total <= 1:
                break
            N += 1
        if N <= _MAX_STRIP_NODES and (best is None or N < best[0]):
            best = (N, total)
    if best is None:
        raise NearPoleError("integration path too close to a pole to plan "
                            "the trapezoid rule")
    return best


def plan_periodic_trapezoid(d_lo: float, d_hi: float, log_bound,
                            target_bits: float, node_err: float
                            ) -> Certificate:
    """Certificate of the fewest-node trapezoid mean of a 1-periodic f,
    planned before any node is evaluated.

    f is analytic on the strip -d_lo < Im x < d_hi around its contour (its
    poles sit at those distances below and above), ``log_bound(y)`` bounds
    log|f| on the line at height y above the contour, and one node evaluated
    at p bits is within node_err * 2^-p * |f| of f.  least_strip_nodes
    bounds the discretisation error.  With M_0 = e^{log_bound(0)} the bound
    on the contour, the nodes are evaluated at the precision p that keeps
    their error node_err 2^-p M_0 below a quarter of the target; the caller
    sums them and scales the mean at p + _GUARD_BITS bits, which adds at
    most N 2^-(p + _GUARD_BITS) M_0.

    Returns Certificate(N, 1/N, 1, bound, p, seconds) with bound <=
    2^-target_bits; raises NearPoleError when the strip is too thin for
    _MAX_STRIP_NODES nodes to reach the target.
    """
    start = time.perf_counter()
    ln2 = math.log(2)
    log_target = -target_bits * ln2
    # a factor 2 absorbs the rounding of the doubles
    log_c = log_bound(0) + ln2
    if not log_c < math.inf:
        raise NearPoleError("contour on a line of poles")
    p = max(53, math.ceil(target_bits + 2
                          + (math.log(node_err) + log_c) / ln2))
    # node and summation errors, relative to the target; p makes the first
    # at most 1/4 and the second at most 2^-26 per node
    fixed = math.exp(math.log(node_err) - p * ln2 + log_c - log_target)
    per_node = math.exp(-(p + _GUARD_BITS) * ln2 + log_c - log_target)
    N, total = least_strip_nodes(d_lo, d_hi, log_bound, log_target,
                                 lambda n: fixed + n * per_node)
    return Certificate(N, mp.mpf(1) / N, mp.mpf(1),
                       mp.mpf(total) * mp.mpf(2) ** -target_bits, p,
                       time.perf_counter() - start)


def periodic_trapezoid(f, N: int):
    """Mean of the 1-periodic f over [0, 1) by the trapezoid rule on the N
    nodes k/N, summed by one fsum; N comes from plan_periodic_trapezoid."""
    return mp.fsum(f(mp.mpf(k) / N) for k in range(N)) / N


def _pentagonal_terms(q, tol) -> int:
    """The least K >= 1 with 2|q|^m/(1 - |q|) < tol/2, m = (K+1)(3K+2)/2,
    the bound on the terms euler_phi_numeric drops; planned in doubles, the
    2 absorbing their rounding."""
    # m > log(tol (1 - |q|)/4)/log|q| = need: K > (sqrt(1 + 24 need) - 5)/6
    need = float(mp.log(tol / 4 * (1 - abs(q))) / mp.log(abs(q)))
    return max(1, math.floor((math.sqrt(1 + 24 * max(need, 0)) - 5) / 6) + 1)


def euler_phi_numeric(q, tol):
    """(q)_infty by the pentagonal-number sum 1 + sum_{k<=K} (-1)^k
    (q^{k(3k-1)/2} + q^{k(3k+1)/2}), K from _pentagonal_terms: the exponents
    left are at least (K+1)(3K+2)/2, so geometric domination bounds them."""
    if not abs(q) < 1:
        raise ValueError("need |q| < 1")
    total = mp.mpf(1)
    for k in range(1, _pentagonal_terms(q, tol) + 1):
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        total += (-1) ** k * (q ** e1 + q ** e2)
    return total


def _qpoch_factors(a, q, tol) -> int:
    """The least J >= 1 with |a| |q|^J/(1 - |q|) < tol/4, so that the factors
    qpoch_inf drops multiply to within tol/2 of 1 (log(1 - x) ~ -x); planned
    in doubles, the 2 absorbing their rounding."""
    if a == 0 or q == 0:
        return 1
    need = mp.log(tol / 4 * (1 - abs(q)) / abs(a))  # > J log|q|
    return max(1, math.floor(float(need / mp.log(abs(q)))) + 1)


def qpoch_inf(a, q, tol):
    """(a; q)_infty = prod_{j>=0} (1 - a q^j) by its first J factors, J from
    _qpoch_factors."""
    if not abs(q) < 1:
        raise ValueError("need |q| < 1")
    J = _qpoch_factors(a, q, tol)
    if J > 10_000_000:
        raise RuntimeError("qpoch_inf failed to converge")
    total = mp.mpf(1)
    fac = mp.mpf(1) * a
    for _ in range(J):
        total *= 1 - fac
        fac *= q
    return total


@lru_cache(maxsize=16)
def eta(tau, prec: int = DEFAULT_PREC):
    """Dedekind eta, q^{1/24}(q)_infty; cached per (tau, prec), since the
    contour nodes of g_ell all share one tau."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        q = cexp(tau)
        return cexp(tau / 24) * euler_phi_numeric(q, _tol(prec))


def theta(z, tau, prec: int = DEFAULT_PREC):
    """Odd Jacobi theta, sum over n in 1/2+Z of q^{n^2/2} e^{2 pi i n(z+1/2)}."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        alpha = mp.pi * 1j * tau
        beta = 2j * mp.pi * (z + mp.mpf(1) / 2)
        half = Fraction(1, 2)
        plus, _ = certified_gaussian_sum(alpha, beta, half, 1, (1,), prec)
        minus, _ = certified_gaussian_sum(alpha, -beta, half, 1, (1,), prec)
        return plus + minus


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


def eisenstein_G2k(k: int, tau, prec: int = DEFAULT_PREC, _depth: int = 0):
    """G_{2k}(tau); applies the S-transform when |q| is close to 1.

    G_{2k}(tau) = tau^{-2k} G_{2k}(-1/tau), with the extra 2*pi*i/tau
    anomaly for k = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        if mp.im(tau) < mp.mpf(1) / 2 and _depth < 3:
            inner = eisenstein_G2k(k, -1 / tau, prec, _depth + 1)
            val = tau ** (-2 * k) * inner
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
    """eta(tau)^{3 ell} / theta(z; tau)^ell; errors out near theta zeros."""
    _require_upper_half(tau)
    with mp.workprec(prec + _GUARD_BITS):
        th = theta(z, tau, prec)
        if abs(th) < mp.mpf(2) ** (-prec // 2):
            raise NearPoleError("z too close to a lattice point of theta")
        return eta(tau, prec) ** (3 * ell) / th ** ell
