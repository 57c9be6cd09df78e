"""Certified numerics, the package's bottom layer (standard library and
mpmath only).  Each sum or quadrature rule plans its terms or nodes once, in
doubles, from an a-priori bound below its target, and returns its value with
a Certificate of that plan; both trapezoid rules, periodic and on R, take
their step from one strip search."""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import to_fixed as _mpf_to_fixed

_GUARD_BITS = 24


class NearPoleError(ValueError):
    """Evaluation point too close to a pole/zero for the working precision."""


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
    rational, alpha and beta finite and Re alpha < 0 (else ValueError, also
    raised when the plan overflows the doubles); certified for alpha, beta
    and poly as given and r exact.

    With a = -Re alpha, b = Re beta and Pbar(y) = sum_k |poly[k]| y^k, term
    n is at most B_n = Pbar(|x_n|) e^{-a x_n^2 + b x_n}; for x_n > 0 the
    ratio B_{n+1}/B_n is at most rho_n = (1 + 1/x_n)^d e^{-a(2x_n + 1) + b},
    which falls as x_n grows, so the tail from n is below T = B_n/(1 - rho_n).
    Planned in doubles, the sum stops before the first n >= 1 with x_n > 0,
    rho_n < e^(-10^-6) and T <= 2^-(prec + _GUARD_BITS), the callers'
    precision; the bound counts T twice for the doubles' rounding.  As
    rho_n < 1 needs x_n > (b - a)/(2a), the search starts there (one step
    early, for the doubles), and a start beyond its 10^7 terms raises at
    once.  (Halving bounds, rho_n <= 1/2, would cost about 0.36/a terms at
    small a.)

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
    if not (mp.isfinite(alpha) and mp.isfinite(beta) and math.isfinite(b)):
        raise ValueError("a Gaussian sum needs finite alpha and beta")
    if not a > 0:
        raise ValueError("a Gaussian sum needs Re alpha < 0")
    d = len(poly) - 1
    abs_coeffs = [float(abs(c)) for c in poly]

    def log_pbar(y):
        return math.log(sum(c * y ** k for k, c in enumerate(abs_coeffs)))

    first = (b - a) / (2 * a) - rf  # rho_n < 1 needs n > first
    if not first < 10_000_000:
        raise RuntimeError("Gaussian sum needs too many terms")
    for N in range(max(1, math.floor(-r) + 1, math.floor(first)),
                   10_000_000):
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
    if not math.isfinite(log2_K):
        raise ValueError("Gaussian sum plan overflows the doubles")
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


def line_trapezoid(A, B, zeta, kappa, prec: int):
    """(integral over R of e^{A x^2 + B x} / (1 - zeta e^{i kappa x}) dx,
    Certificate), with absolute error below 2^-(prec + _GUARD_BITS).

    Needs Re A < 0, kappa > 0 and |zeta| != 1, so that the kernel's poles lie
    on the line Im x = y_p = log|zeta|/kappa at distance d = |y_p| from R.
    The truncated trapezoid rule h sum_{|kh| <= X} f(kh), h = 1/N, then has
    three certified error parts, each kept below a quarter of the target:

    * discretisation, planned in doubles by least_strip_nodes on the strip
      |Im x| < d: the integral of |f| along Im x = y is at most the
      Gaussian's line mass over |1 - e^{kappa (y_p - y)}|;
    * the dropped Gaussian tail beyond X, summed against its tangent line
      into tail(X) = 2 h e^{-|Re A| X^2 + |Re B| X}/((1 - e^{(|Re B| - 2
      |Re A| X) h}) L); X is planned in doubles, like N, with tail(X) below
      half the quarter, and checked in mpf;
    * rounding of the node recurrences E_{k+1} = E_k R_k, R_{k+1} = R_k Q
      (Q = e^{2 A h^2}), W_{k+1} = W_k e^{i kappa h} and of the sum of
      E_k/(1 - W_k), run in fixed point on the grid u = 2^-wp.

    The rounding, in units u and to first order in u: Q, R_0, e^{i kappa h}
    enter within 2 and zeta within 2 + |zeta|, and every product or
    quotient truncates by less than sqrt(2).  With rho = e^{|Re B| h} >=
    |R_k|, G = e^{(Re B)^2/(4 |Re A|)} >= |E_k| and L = 1 - e^{-kappa d} <=
    |1 - W_k|:
    R_k is within (k+1) r, r = 2 rho + 1.5, as |Q| < 1; E_k within
    G^2 r (k+1)^2/2, since |E_k/E_j| <= G for j <= k (log|E| is concave and
    E_0 = 1); W_k within (k+1) z, z = 2|zeta| + 2; so the k-th quotient is
    within G^2 r (k+1)^2/L + 2 G z (k+1)/L^2 + 1.5, and the sum over both
    sides within

        T = 2 (G^2 r (K+2)^3/(3 L) + G z (K+2)^2/L^2 + 1.5 (K+2)).

    wp is the least precision (at least prec + _GUARD_BITS) with
    (h T + mass) 2^-wp below the quarter, mass >= |value| paying for the
    final scaling by h.
    """
    start = time.perf_counter()
    ar, ai = -float(mp.re(A)), float(mp.im(A))
    br, bi = float(mp.re(B)), float(mp.im(B))
    kap = float(kappa)
    y_p = float(mp.log(abs(zeta))) / kap

    def log_line_mass(y):  # log of the integral of |f| along Im x = y
        return (0.5 * math.log(math.pi / ar) + ar * y * y - bi * y
                + (br - 2 * ai * y) ** 2 / (4 * ar)
                - math.log(-math.expm1(-kap * abs(y_p - y))))

    log_eps = -(prec + _GUARD_BITS + 2) * math.log(2)  # log of eps below
    # disc: the discretisation error bound over eps, at most 1
    N, disc = least_strip_nodes(abs(y_p), abs(y_p), log_line_mass, log_eps,
                                lambda n: 0.0)

    # tail(X) <= eps/2 once Ar X^2 - |Br| X >= c - log(1 - e^{(|Br| - 2 Ar
    # X) h}), c = log(4 h/(L eps)); the right side falls as X grows, so
    # taking it at the root of Ar X^2 - |Br| X = c keeps the next root safe
    def root(c):  # the X > 0 with Ar X^2 - |Br| X = c
        return (abs(br) + math.sqrt(br * br + 4 * ar * c)) / (2 * ar)

    c = math.log(4 / (N * -math.expm1(-kap * abs(y_p)))) - log_eps
    X = root(c - math.log(-math.expm1((abs(br) - 2 * ar * root(c)) / N)))
    with mp.workprec(prec + _GUARD_BITS):
        eps = mp.mpf(2) ** -(prec + _GUARD_BITS) / 4
        Ar, Br = -mp.re(A), mp.re(B)
        h = mp.mpf(1) / N
        low_real = -mp.expm1(-abs(mp.log(abs(zeta))))  # 1 - e^{-kappa d}
        slope = abs(Br) - 2 * Ar * X
        tail = (2 * h * mp.exp(-Ar * X * X + abs(Br) * X)
                / (-mp.expm1(slope * h) * low_real))
        if not (slope < 0 and tail <= eps):
            raise AssertionError("planned cutoff missed its tail target")
        K = int(mp.floor(X / h))
        G = mp.exp(Br * Br / (4 * Ar))
        # h sum |f(kh)| <= (integral + h max) of |num| over R, / low_real
        mass = (mp.sqrt(mp.pi / Ar) + h) * G / low_real
        r = 2 * mp.exp(abs(Br) * h) + mp.mpf(1.5)
        n = K + 2
        T = 2 * (G * G * r * n ** 3 / (3 * low_real)
                 + G * (2 * abs(zeta) + 2) * n * n / low_real ** 2 + 1.5 * n)
        wp = max(prec + _GUARD_BITS,
                 int(mp.ceil(mp.log((h * T + mass) / eps, 2))))
        bound = disc * eps + tail + eps
    with mp.workprec(wp + _GUARD_BITS):
        one = 1 << wp
        Q = to_fixed(mp.exp(2 * A * h * h), wp)
        zf = to_fixed(zeta, wp)
        tr, ti = fixed_div((one, 0), (one - zf[0], -zf[1]), wp)
        for sgn in (1, -1):
            E = (one, 0)
            R = to_fixed(mp.exp(A * h * h + sgn * B * h), wp)
            Zw = zf
            w = to_fixed(mp.expj(sgn * kappa * h), wp)
            for _ in range(K):
                E = fixed_mul(E, R, wp)
                R = fixed_mul(R, Q, wp)
                Zw = fixed_mul(Zw, w, wp)
                t = fixed_div(E, (one - Zw[0], -Zw[1]), wp)
                tr += t[0]
                ti += t[1]
        value = h * from_fixed((tr, ti), wp)
    return value, Certificate(2 * K + 1, h, mp.mpf(X), bound, prec,
                              time.perf_counter() - start)
