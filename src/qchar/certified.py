"""Certified numerics, the package's bottom layer (standard library and
mpmath only).  Each sum or quadrature rule plans its terms or nodes once, in
doubles, from an a-priori bound below its target, and returns its value with
a Certificate of that plan; both trapezoid rules, periodic and on R, take
their step from one strip search.  Both periodic contour integrals, the
multivariate product's and H's Fourier coefficient's, run on one Pochhammer
pair kernel (_pair_sum), whose one caller pair_trapezoid keeps it off poles."""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed as _mpf_to_fixed

_GUARD_BITS = 24


class InputError(ValueError):
    """A caller's value outside the domain of the function it was passed to;
    the CLI reports it as a usage error (exit 2)."""


class NearPoleError(ValueError):
    """Evaluation point too close to a pole/zero for the working precision."""


class PoleNearContourError(InputError):
    """A kernel pole sits too close to the integration path; perturb z."""


# line_trapezoid refuses kernel poles closer than this to R
_POLE_DISTANCE_MIN = 0.01
# the most nodes line_trapezoid runs: a node costs 6 to 9 us at prec 256
# on a 2-vCPU Xeon (qchar verify-modular --tau 1e-6j plans 3,409,526 nodes
# and takes 22 s), so the cap refuses calls of about a minute or more
_MAX_LINE_NODES = 1 << 23


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


def from_fixed(x, wp: int):
    """The mpc (re + i im) 2^-wp, rounded at the working precision."""
    return mp.mpc(mp.ldexp(x[0], -wp), mp.ldexp(x[1], -wp))


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
    it was certified at (for a periodic rule, that of its nodes; for a
    series, that of its recurrence), and the seconds it took, planning
    included."""
    nodes: int
    h: object
    X: object
    bound: object
    prec: int
    seconds: float


def certified_gaussian_sum(alpha, beta, r, sign: int, poly, prec: int,
                           radius=None):
    """(sum_{n>=0} sign^n P(x_n) e^{alpha x_n^2 + beta x_n}, Certificate),
    x_n = n + r, P(x) = sum_k poly[k] x^k of degree d, sign = +-1, r
    rational, alpha and beta finite and Re alpha < 0 (else ValueError, also
    raised for an empty poly and when the plan overflows the doubles);
    certified for poly as given, r exact, and alpha and beta as given or,
    with radius = (d_alpha, d_beta), known within d_alpha u and d_beta u, u
    = 2^(1 - prec - _GUARD_BITS).  An all-zero poly gives an exact 0 with
    no terms and a zero bound.

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

    The terms run from n = 0 on, scaled by E_0: e_n = E_n/E_0, e_0 = 1,
    e_{n+1} = e_n R_n, R_{n+1} = R_n Q, from E_0 = e^{alpha r^2 + beta r},
    R_0 = sign e^{alpha (2r + 1) + beta} and Q = e^{2 alpha}.  These three
    exps, formed at extra bits, enter within u = 2^(1-wp) relative, as do
    the poly[k]; wp keeps K u <= 2^-(prec + _GUARD_BITS), K = 2 N G Pbar(Y)
    (d (2|r| + 4) + N^2 + N + 1), G = e^{b^2/(4a)} >= |E_n|, Y = max |x_n| +
    1.  The loop runs in fixed point on the grid v = 2^-fp: R_0, Q and the
    poly[k] enter floored, x_n = floor(r/v) v + n, P(x_n) by Horner's rule,
    and each term P e_n and each recurrence step is one product floored per
    part; the sum is exact until its product with E_0, rounded to wp bits.
    Two parts, each to first order, the 2s covering higher orders:

    * the inputs' u: E_n is within (1 + n(n+1)/2) u relative, P(x_n) within
      u Pbar(Y), and the final product adds u |value|, so with |value| <= N
      G Pbar(Y) this part is below N G Pbar(Y) (3 + (N^2 - 1)/6) u <= K u/2;
    * the floors, each below sqrt(2) v (v on x_n), scaled by |E_0|.  As
      |R_j| = |R_0| |Q|^j, Q's floor reaches R_n from each step j < n times
      |R_j Q^(n-1-j)| = |R_{n-1}|, so R_n is within sqrt(2) (1 + n (1 +
      |R_{n-1}|)) v.  Gamma = e^{a max(0, b/(2a) - r)^2}, the largest
      |E_x|/|E_0| for x >= r, bounds |e_n|.  As log|E_x| is concave in x, a
      floor at e_{j+1} reaches e_n times |e_n/e_{j+1}| <= Gamma and R_j's
      error times |e_j e_n/e_{j+1}| <= |e_{n-1}| <= Gamma; the |R_{j-1}| in
      that error adds at most Rho Gamma, Rho = min(|R_0|, e^{2a}), as also
      |e_j R_{j-1} e_n/e_{j+1}| = |e_n/Q|.  So e_n is within sqrt(2) Gamma
      (2n + (Rho + 1) n(n-1)/2) v.  P(x_n) is within e_P v, e_P = Pbar'(Y)
      + sqrt(2) (sum_{i<=d} Y^i + sum_{i<d} Y^i) for x_n, the coefficients
      and Horner's floors.  Summed over the N terms, with sqrt(2) for each
      term's own floor, this part is below |E_0| F v,

          F = 2 N (sqrt(2) + Gamma e_P + sqrt(2) Pbar(Y) Gamma N (1
              + (Rho + 1) N/6)),

      from doubles; with M = |E_0| Gamma >= |E_n|, fp = prec + _GUARD_BITS
      + 2 + ceil(log2(|E_0| F/min(1, M))) keeps it below 2^-(prec +
      _GUARD_BITS + 1), and below that relative to M when M is small.  So
      Gamma, which exceeds 1 when the peak b/(2a) of |E_x| lies right of
      r, costs fp no bits past the largest term's, though the ints of the
      terms near the peak then hold log2 Gamma bits more; Rho, above 1 when
      the peak lies right of r + 1/2, costs about log2(Rho + 1) <= 1 +
      2a/log 2.

    Returns the value at wp bits (an mpf when alpha, beta and poly are all
    real) and Certificate(N, 1, the last x, 2 T + K u + 2^(ceil(log2(|E_0|
    F)) + 1) v, fp, seconds).  A radius adds, doubled, the first-order
    drift of the N terms: term x moves by (d_alpha x^2 + d_beta |x|) u
    times Pbar(|x|) |e^{alpha x^2 + beta x}|.  It is summed in doubles over
    moduli scaled by 2^-k, 2^k the largest power of 2 below the largest
    e^{-a x^2 + b x}, so that nothing overflows, and added at the caller's
    precision; the doubling covers the higher orders and the doubles'
    relative error, below N 2^-52.
    """
    start = time.perf_counter()
    r = Fraction(r)
    a, b, rf = -float(mp.re(alpha)), float(mp.re(beta)), float(r)
    if not (mp.isfinite(alpha) and mp.isfinite(beta) and math.isfinite(b)):
        raise ValueError("a Gaussian sum needs finite alpha and beta")
    if not a > 0:
        raise ValueError("a Gaussian sum needs Re alpha < 0")
    if sign not in (1, -1):
        raise ValueError(f"a Gaussian sum needs sign 1 or -1, not {sign}")
    if not poly:
        raise ValueError("a Gaussian sum needs at least one coefficient")
    real = all(not isinstance(x, (complex, mp.mpc))
               for x in (alpha, beta, *poly))
    if not any(poly):
        zero = mp.mpf(0) if real else mp.mpc(0)
        return zero, Certificate(0, 1, r - 1, zero.real, prec,
                                 time.perf_counter() - start)
    d = len(poly) - 1
    abs_coeffs = [float(abs(c)) for c in poly]

    def pbar(y):
        return sum(c * y ** k for k, c in enumerate(abs_coeffs))

    first = (b - a) / (2 * a) - rf  # rho_n < 1 needs n > first
    if not first < 10_000_000:
        raise RuntimeError("Gaussian sum needs too many terms")
    for N in range(max(1, math.floor(-r) + 1, math.floor(first)),
                   10_000_000):
        x = N + rf
        log_rho = d * math.log1p(1 / x) - a * (2 * x + 1) + b
        if log_rho < -1e-6:
            log_T = (math.log(pbar(x)) - a * x * x + b * x
                     - math.log(-math.expm1(log_rho)))
            if log_T <= -(prec + _GUARD_BITS) * math.log(2):
                break
    else:
        raise RuntimeError("Gaussian sum needs too many terms")
    Y = max(abs(rf), abs(N - 1 + rf)) + 1
    log_G = b * b / (4 * a)
    log2_K = (math.log2(2 * N * (d * (2 * abs(rf) + 4) + N * N + N + 1))
              + (log_G + math.log(pbar(Y))) / math.log(2))
    log_Rho = min(b - a * (2 * rf + 1), 2 * a)  # log min(|R_0|, 1/|Q|)
    log_Gamma = a * max(0.0, b / (2 * a) - rf) ** 2
    log_E0 = -a * rf * rf + b * rf  # log|E_0|
    e_P = (sum(k * c * Y ** (k - 1) for k, c in enumerate(abs_coeffs))
           + math.sqrt(2) * sum(Y ** k * (1 + (k < d)) for k in range(d + 1)))
    log_F = math.log(2 * N) + _log_sum([
        0.5 * math.log(2), log_Gamma + math.log(e_P),
        0.5 * math.log(2) + math.log(pbar(Y)) + log_Gamma + math.log(N)
        + _log_sum([0.0, _log_sum([0.0, log_Rho]) + math.log(N / 6)])])
    if not (math.isfinite(log2_K) and math.isfinite(log_F + log_E0)):
        raise ValueError("Gaussian sum plan overflows the doubles")
    log2_F = (log_F + log_E0) / math.log(2)  # of |E_0| F
    wp = prec + _GUARD_BITS + 1 + max(0, math.ceil(log2_K))
    fp = prec + _GUARD_BITS + 2 + math.ceil(
        log2_F - min(0.0, log_E0 + log_Gamma) / math.log(2))
    # each exp's argument is below span: log2(span) + 12 bits past wp keep
    # its rounding far below u
    span = 4 * (float(abs(alpha)) + float(abs(beta)) + 1) * (abs(rf) + 1) ** 2
    with mp.workprec(wp + 12 + math.ceil(math.log2(span))):
        xx = fraction_mpf(r)
        E = mp.exp((alpha * xx + beta) * xx)
        Rr, Ri = to_fixed(sign * mp.exp(alpha * (2 * xx + 1) + beta), fp)
        qr, qi = to_fixed(mp.exp(2 * alpha), fp)
        (hr0, hi0), *rest = [to_fixed(c, fp) for c in reversed(poly)]
    x = (r.numerator << fp) // r.denominator
    one = er = 1 << fp
    ei = acc_r = acc_i = 0
    for _ in range(N):
        hr, hi = hr0, hi0
        for cr, ci in rest:
            hr, hi = ((hr * x) >> fp) + cr, ((hi * x) >> fp) + ci
        acc_r += (hr * er - hi * ei) >> fp
        acc_i += (hr * ei + hi * er) >> fp
        er, ei = (er * Rr - ei * Ri) >> fp, (er * Ri + ei * Rr) >> fp
        Rr, Ri = (Rr * qr - Ri * qi) >> fp, (Rr * qi + Ri * qr) >> fp
        x += one
    with mp.workprec(wp):
        value = E * mp.make_mpc((from_man_exp(acc_r, -fp),
                                 from_man_exp(acc_i, -fp)))
        bound = (2 * mp.exp(log_T) + mp.ldexp(1, math.ceil(log2_K) + 1 - wp)
                 + mp.ldexp(1, math.ceil(log2_F) + 1 - fp))
    if radius:
        d_alpha, d_beta = radius
        logs = [(-a * (n + rf) + b) * (n + rf) for n in range(N)]
        k = math.floor(max(logs) / math.log(2))
        s1 = s2 = 0.0
        for n, lg in enumerate(logs):
            y = abs(n + rf)
            w = y * math.exp(lg - k * math.log(2)) * pbar(y)
            s1, s2 = s1 + w, s2 + w * y
        bound += mp.ldexp(d_alpha * s2 + d_beta * s1,
                          k + 2 - prec - _GUARD_BITS)
    return (value.real if real else value), Certificate(
        N, 1, N - 1 + r, bound, fp, time.perf_counter() - start)


# the most factors log_poch_lower takes one at a time, at about 0.6 us
# each: a walk to L_k <= -40 takes about 40/|log_q| steps (63,662 at Im tau
# = 1e-4), and no walk of the tests or the benchmark takes more than 1,600
_POCH_WALK = 1 << 12


def log_poch_lower(log_f0, log_q) -> float:
    """A lower bound of sum_{k>=0} log|1 - f_k| over factors with log|f_k|
    = L_k = log_f0 + k log_q (log_q < 0), from |1 - f| >= |1 - |f||; -inf
    when some |f_k| = 1.  Double precision: callers plan with it, they do
    not evaluate with it.

    The factors are taken one at a time until L_k <= -40, where log(1 - u)
    >= -u/(1 - u) bounds the geometric rest, or until k = _POCH_WALK with
    L_k + |log_q|/2 < 0.  From there on f(k) = log(1 - e^{L_k}) is concave
    and increasing in k, so f(k) is at least its mean over [k - 1/2, k +
    1/2], and the rest at least the integral from k - 1/2 on,
    -Li2(e^{L_k + |log_q|/2})/|log_q|; that total is lowered by a relative
    2^-32 for the doubles' rounding."""
    total = 0.0
    k = 0
    while True:
        L = log_f0 + k * log_q
        if L <= -40:
            # log(1 - u) >= -u/(1 - u) on the geometric rest u = e^L q^j
            x = math.exp(L)
            return total - x / ((1 - x) * -math.expm1(log_q))
        if k >= _POCH_WALK and L - log_q / 2 < 0:
            with mp.workprec(53):
                rest = float(mp.polylog(2, math.exp(L - log_q / 2))) / log_q
            return total + rest - 2.0 ** -32 * (abs(total) - rest)
        x = -math.expm1(-abs(L))  # 1 - e^{-|L|}
        if x <= 0:
            return -math.inf
        total += math.log(x) + max(L, 0.0)
        k += 1


def log_pair_lower(log_z, log_q) -> float:
    """A lower bound of log|(Z;q)_inf (q/Z;q)_inf| with log|Z| = log_z:
    log_poch_lower of each factor, in doubles.  It bounds the slot width of
    the bivariate extraction (exact_series._slot_bits), F_ls_numeric's tail
    majorant and both periodic contour integrals (_pair_sum,
    pair_trapezoid)."""
    return log_poch_lower(log_z, log_q) + log_poch_lower(log_q - log_z, log_q)


def euler_phi(tau, prec: int):
    """((q)_inf, Certificate), q = e^{2 pi i tau}, Im tau > 0 (else
    InputError), with a bound at most 2^-prec |value|; an mpf when tau lies
    on the imaginary axis, where (q)_inf is real.

    (q)_inf has period 1, so tau first moves, exactly, to tau - round(Re
    tau), and is then taken at the working precision wp below.  When Im tau
    < 1/2 there, one S
    step, eta(-1/tau) = sqrt(-i tau) eta(tau) with eta = q^{1/24} (q)_inf
    (Apostol, Modular Functions and Dirichlet Series in Number Theory, 2nd
    ed., Thm 3.1, principal branch), gives

        (q)_inf = c (q')_inf,  c = (-i tau)^{-1/2} e^{pi i (tau' - tau)/12},

    at tau' = -1/tau, where Im tau' = Im tau/|tau|^2 > 2 Im tau (see
    eisenstein_G2k); else tau' = tau and c = 1.  By the pentagonal theorem
    (q')_inf = sum_n (-1)^n q'^{n(3n-1)/2}, two certified_gaussian_sum
    halves as theta's core takes: alpha = 3 pi i tau', sign -1, and beta =
    -pi i tau' from r = 0 less beta = pi i tau' from r = 1.

    With y = Im tau', -log(|q'|; |q'|)_inf <= pi^2/(6 * 2 pi y), so |(q')_inf|
    >= 2^-(e - 1) at e = ceil(pi/(12 y log 2)) + 1, and both halves are
    summed to prec + e bits.  The rest runs at wp = prec + e + _GUARD_BITS
    + g bits, 2^g >= 16 (|tau| + |tau'| + 5) (1 + 1/y)^{3/2}.  There tau'
    is within 2 |tau'| 2^-wp and alpha and beta within 12 pi |tau'| 2^-wp
    and 4 pi |tau'| 2^-wp, the radius the halves take; as sum_{x>=1} x^2
    |e^{alpha x^2 +- beta x}| <= (1 + 1/y)^{3/2}, their drift stays within
    2^-(prec + _GUARD_BITS - 7) |(q')_inf| with their tails and rounding.
    Once |q'| < 2^-(prec + e + _GUARD_BITS + 2), (q')_inf is 1 within
    |q'|/(1 - |q'|), and no term is summed: the halves' plan would hold the
    largest |e^{alpha x^2 - beta x}| over real x, |q'|^{-1/24}, in wp.
    c is within (2 (|tau| + |tau'|) + 9) 2^-wp relative: 2 |tau'| on tau',
    2 (|tau| + |tau'|) more on the exponent pi i (tau' - tau)/12 and 8 for
    the exp, the square root and the quotient.  So the bound, |c| times the
    halves' bounds plus 2^-(prec + _GUARD_BITS) |value| for c and the two
    roundings that form the value, is at most 2^-(prec + 16) |value|.
    Returns Certificate(terms, 1, the last x, bound, the halves' precision,
    seconds), with 0 terms, x 0 and precision wp when no term is summed.
    """
    start = time.perf_counter()
    if not mp.im(tau) > 0:
        raise InputError("tau must lie in the upper half-plane")
    n = round(mp.re(tau))
    t = complex(mp.re(tau) - n, mp.im(tau))
    step = t.imag < 0.5
    t1 = -1 / t if step else t
    e = math.ceil(math.pi / (12 * t1.imag * math.log(2))) + 1
    g = math.ceil(math.log2(16 * (abs(t) + abs(t1) + 5)
                            * (1 + 1 / t1.imag) ** 1.5))
    radius = (12 * math.pi * abs(t1) / 2 ** g, 4 * math.pi * abs(t1) / 2 ** g)
    wp = prec + e + _GUARD_BITS + g
    with mp.workprec(wp):
        tau = mp.mpc(mp.fsub(mp.re(tau), n, exact=True), mp.im(tau))
        tau1, c = _s_step(tau) if step else (tau, 1)
        if 2 * math.pi * t1.imag > (prec + e + _GUARD_BITS + 2) * math.log(2):
            value, certs = mp.mpc(1), [Certificate(
                0, 1, 0, mp.ldexp(1, -(prec + e + _GUARD_BITS + 1)), wp, 0.0)]
        else:
            alpha, beta = 3j * mp.pi * tau1, 1j * mp.pi * tau1
            s0, c0 = certified_gaussian_sum(alpha, -beta, 0, -1, (1,),
                                            prec + e, radius)
            s1, c1 = certified_gaussian_sum(alpha, beta, 1, -1, (1,),
                                            prec + e, radius)
            value, certs = s0 - s1, [c0, c1]
        value *= c
        bound = abs(c) * sum(x.bound for x in certs) + mp.ldexp(
            abs(value), -prec - _GUARD_BITS)
    return (value.real if tau.real == 0 else value), Certificate(
        sum(x.nodes for x in certs), 1, max(x.X for x in certs), bound,
        max(x.prec for x in certs), time.perf_counter() - start)


def _s_step(tau):
    """(tau' = -1/tau, c = (-i tau)^{-1/2} e^{pi i (tau' - tau)/12}) at the
    working precision wp, for Im tau > 0: euler_phi's S step, c within
    (2 (|tau| + |tau'|) + 9) 2^-wp relative."""
    tau1 = -1 / tau
    return tau1, mp.exp(mp.pi * 1j * (tau1 - tau) / 12) / mp.sqrt(-1j * tau)


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


def line_trapezoid(A, B, zeta, kappa, prec: int):
    """(integral over R of e^{A x^2 + B x} / (1 - zeta e^{i kappa x}) dx,
    Certificate), with absolute error below 2^-(prec + _GUARD_BITS).

    Needs Re A < 0 and kappa > 0.  The kernel's poles lie on the line Im x =
    y_p = log|zeta|/kappa at distance d = |y_p| from R; PoleNearContourError
    when d < _POLE_DISTANCE_MIN, before anything is planned, and
    RuntimeError when the plan needs more than _MAX_LINE_NODES nodes,
    before any runs.
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
    if not (ar > 0 and kap > 0):
        raise ValueError("the line trapezoid needs Re A < 0 and kappa > 0")
    y_p = float(mp.log(abs(zeta))) / kap
    if abs(y_p) < _POLE_DISTANCE_MIN:
        raise PoleNearContourError(
            f"kernel pole within {abs(y_p):.3g} of the real axis; shift z")

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
        if 2 * K + 1 > _MAX_LINE_NODES:
            raise RuntimeError(f"line trapezoid needs {2 * K + 1} nodes > "
                               f"{_MAX_LINE_NODES}")
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


# The Pochhammer pair kernel of both periodic contour integrals: the
# multivariate product (q)_inf / prod_j P(Z_j) and, by the triple product
# theta(z) = -i q^{1/8} zeta^{-1/2} (q)_inf P(zeta), the integrand g_ell(z)
# e^{-2 pi i (s + ell/2) z} = i^ell (q)_inf^{2 ell} zeta^{-s} / P(zeta)^ell of
# H's Fourier coefficient, with P(Z) = prod_{k>=0} (1 - Z q^k)(1 - q^{k+1}/Z).
# The factors of P pair up as t_k = (1 - Z q^k)(1 - q^{k+1}/Z) = 1 + q^{2k+1}
# - c q^k with c = Z + q/Z, so the first m pairs multiply to a polynomial
# sum_i a_i c^i whose coefficients depend on tau and m alone
# (_pair_coefficients); every node then costs ell Horner evaluations of
# degree I << m on the grid 2^-wp.  For |q| <= |Z| <= 1,
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


def _coefficient_weight(log_q: float, I: int) -> float:
    """sigma = sum_{i<=I} S^i, S = 1 + |q|, the S-norm of one unit in each
    of the coefficients a_0, ..., a_I: summed term by term, since the closed
    form (S^{I+1} - 1)/|q| cancels in doubles as |q| falls."""
    log_S = math.log1p(math.exp(log_q))
    return math.fsum(math.exp(i * log_S) for i in range(I + 1))


def _pair_coefficients(tau, m: int, I: int, wp: int, sigma: float):
    """(a_I, ..., a_0), highest first, on the grid u = 2^-wp: the c^i
    coefficients, i <= I, of prod_{k<m} (1 + q^{2k+1} - q^k c); sigma is
    _coefficient_weight(log|q|, I).

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
    log_q = -2 * math.pi * float(mp.im(tau))
    S = 1 + math.exp(log_q)
    log2_E = (math.log2(m * (1.5 * (1 + S) + math.sqrt(2) * sigma))
              + _log_pair_norm(log_q) / math.log(2))
    g = 2 + max(0, math.ceil(log2_E))
    wb = wp + g
    # q^k by repeated products, each within a relative 2^-(wb + 16 +
    # bits(m)) of the last
    with mp.workprec(wb + 16 + m.bit_length()):
        q = mp.expjpi(2 * tau)
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


def _log_sum(logs) -> float:
    """log sum_i e^{logs_i}, without overflow."""
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _pair_sum(tau, args, N: int, s: int, prec: int):
    """sum_{n<N} e^{-2 pi i s n/N} / prod_j P(Z_j(n)) with Z_j(n) = e^{2 pi i
    (args_j + n/N)}, P(Z) = prod_{k<m} (1 - Z q^k)(1 - q^{k+1}/Z) and m =
    _pair_count(log|q|, prec), for |q| < |Z_j| < 1 strictly, which
    pair_trapezoid, the one caller, checks before any node runs; each term
    is within a relative 2^-prec of its value with P's pairs truncated at m.

    |Z_j(n)| is the same at every node, so the lower bound 0 < L_j <= |P|,
    log L_j = log_pair_lower(log|Z_j|, log|q|), is found once, from doubles;
    a line near a line of poles costs more bits, never a wrong bound.

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
    log_L = [log_pair_lower(-2 * math.pi * float(mp.im(x)), log_q)
             for x in args]
    m = _pair_count(log_q, prec)
    log_inv_L = _log_sum([-x for x in log_L])
    I = _coefficient_degree(log_q, m, -(prec + 2) * math.log(2) - log_inv_L)
    log_P = _log_pair_norm(log_q)
    sigma = _coefficient_weight(log_q, I)
    e_P = (0.5 + 2 * math.sqrt(2) * sigma
           + math.exp(log_P) * (3 * S * N + 5) / (1 - Q))
    ell = len(args)
    log_R = math.log(2) + _log_sum(
        [math.log(3 * N), math.log(e_P) + log_inv_L,
         math.log(math.sqrt(2) * max(ell - 1, 1)) - sum(log_L),
         math.log(math.sqrt(2)) + ell * log_P])
    wp = prec + 1 + math.ceil(log_R / math.log(2))
    coeffs = _pair_coefficients(tau, m, I, wp, sigma)
    top, rest = coeffs[0], coeffs[1:]
    with mp.workprec(wp + 16):
        q = mp.expjpi(2 * tau)
        lines = []
        for x in args:
            A = mp.expjpi(2 * x)
            ar, ai = to_fixed(A, wp)
            br, bi = to_fixed(q / A, wp)
            lines.append((ar + br, bi - ai, ai + bi, ar - br))
        omega = to_fixed(mp.expjpi(mp.mpf(2) / N), wp)
        omega_s = to_fixed(mp.expjpi(mp.mpf(-2 * s) / N), wp)
    one = 1 << wp
    W, W_s = (one, 0), (one, 0)
    acc_r = acc_i = 0
    for _ in range(N):
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


def _node_error(ell: int, k: int) -> int:
    """node_err of a node (q)_inf^k / prod_{j<=ell} P(Z_j), in units of 2^-p
    relative: 2 for each of the ell pair tails (_pair_count); 2k for
    (q)_inf from euler_phi, within a relative 2^-p that its k-th power
    multiplies by k to first order, the 2 covering higher orders; 1 for the
    mpmath steps around the kernel, absorbed by the guard bits; and 1 for
    the kernel's truncation and rounding (_pair_sum)."""
    return 2 * ell + 2 * k + 2


def pair_trapezoid(tau, ws, y, s, k: int, target_bits: float):
    """(mean, Certificate): the fewest-node trapezoid mean over x in [0, 1)
    of the 1-periodic

        f(x) = (q)_inf^k e^{-2 pi i s z} / prod_j P(e^{2 pi i (z - w_j)}),
        z = x + i y,

    planned before any node is evaluated, with absolute error below
    2^-target_bits; the nodes are one _pair_sum scaled by (q)_inf^k e^{2 pi
    s y}/N.  s must be an integer (else ValueError): P(e^{2 pi i z}) is
    1-periodic in z, so for any other s f is not, and no trapezoid bound
    holds.

    P(e^{2 pi i (z - w)}) vanishes on Im z = Im w - n Im tau and Im w + (n +
    1) Im tau, n >= 0, so f is analytic on the strip max_j Im w_j < Im z <
    Im tau + min_j Im w_j, whose sides lie d_lo below and d_hi above the
    contour; y = None takes its midpoint.  A y off it (compared at the
    working precision) raises ValueError before any planning.  On Im z = y + dy
    every |Z_j| = e^{-2 pi (y + dy - Im w_j)} is fixed, and |(q)_inf| <=
    prod (1 + |q|^n), the pair bound log_pair_lower and |e^{-2 pi i s z}| =
    e^{2 pi s (y + dy)} give

        log|f| <= 2 pi s (y + dy) + k |q|/(1 - |q|)
                  - sum_j log_pair_lower(log|Z_j|, log|q|),

    which least_strip_nodes turns into the discretisation error.  A node at
    p bits is within node_err 2^-p |f| of f, relative, node_err =
    _node_error(len(ws), k).  With M_0 the bound on the contour, p
    keeps node_err 2^-p M_0 below a quarter of the target; the mean is
    scaled at p + _GUARD_BITS bits, which adds at most N 2^-(p +
    _GUARD_BITS) M_0.  Returns Certificate(N, 1/N, 1, bound, p, seconds).
    Before any node runs, so that _pair_sum's |q| < |Z_j| < 1 holds, raises
    NearPoleError when y's double lies on a line of poles or the strip is
    too thin for _MAX_STRIP_NODES nodes to reach the target.
    """
    start = time.perf_counter()
    if Fraction(s).denominator != 1:
        raise ValueError("s must be an integer: the product is 1-periodic, "
                         "so for any other s the integrand is not")
    s = int(Fraction(s))
    im_ws = [mp.im(w) for w in ws]
    y = ((max(im_ws) + mp.im(tau) + min(im_ws)) / 2 if y is None
         else mp.mpf(y))
    if not max(im_ws) < y < mp.im(tau) + min(im_ws):
        raise ValueError("contour height outside the admissible strip")
    v, yf = float(mp.im(tau)), float(y)
    im_ws = [float(x) for x in im_ws]
    ln2 = math.log(2)
    log_q = -2 * math.pi * v
    log_phi = k * math.exp(log_q) / -math.expm1(log_q)

    def log_bound(dy):
        out = log_phi + 2 * math.pi * s * (yf + dy)
        for im_w in im_ws:
            out -= log_pair_lower(-2 * math.pi * (yf + dy - im_w), log_q)
        return out

    log_target = -target_bits * ln2
    # a factor 2 absorbs the rounding of the doubles
    log_c = log_bound(0) + ln2
    if not log_c < math.inf:
        raise NearPoleError("contour on a line of poles")
    node_err = _node_error(len(ws), k)
    p = max(53, math.ceil(target_bits + 2
                          + (math.log(node_err) + log_c) / ln2))
    # node and summation errors, relative to the target; p makes the first
    # at most 1/4 and the second at most 2^-26 per node
    fixed = math.exp(math.log(node_err) - p * ln2 + log_c - log_target)
    per_node = math.exp(-(p + _GUARD_BITS) * ln2 + log_c - log_target)
    N, total = least_strip_nodes(yf - max(im_ws), v + min(im_ws) - yf,
                                 log_bound, log_target,
                                 lambda n: fixed + n * per_node)
    with mp.workprec(p + _GUARD_BITS):
        phi, _ = euler_phi(tau, p)
        mean = (phi ** k * mp.exp(2 * mp.pi * s * y)
                * _pair_sum(tau, [1j * y - w for w in ws], N, s, p) / N)
    return mean, Certificate(N, mp.mpf(1) / N, mp.mpf(1),
                             mp.mpf(total) * mp.mpf(2) ** -target_bits, p,
                             time.perf_counter() - start)
