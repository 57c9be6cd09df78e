"""Exact truncated series arithmetic.

* :class:`ExactQSeries` -- truncated Laurent series in ``q^(1/D)`` with int
  coefficients (``Fraction`` only where a value is genuinely rational) and
  integer exponents over a per-series lattice denominator ``D``; truncation
  orders are tracked through every operation, so a series knows exactly up
  to which exponent its coefficients are guaranteed.  Each operation works
  on one lattice: ``+``, ``*`` and ``first_difference`` raise ValueError
  for operands with different ``D`` and ``==`` calls them unequal; only
  ``shift`` changes ``D``, to ``lcm(D, den(exp))``.  Every integer power,
  the inverse and the Euler-product powers included, comes from one
  J.C.P. Miller recurrence in ``ExactQSeries.__pow__``.
* :class:`ZetaQSeries` -- a bivariate series in ``zeta`` and ``q``, used to
  extract Fourier coefficients of infinite Pochhammer products expanded in
  the region ``|q| < |zeta| < 1``.  Each q-row is packed into one int
  (Kronecker substitution): slot ``d``, ``bits`` wide, holds the row's
  coefficient on diagonal ``d``, so that a geometric pass over a row is one
  shift, one add and one mask.  Every entry is nonnegative and no state an
  instance leads to has an entry ``>= 2^bits``, so no carry ever crosses a
  slot; ``poch_ratio_bivariate`` derives ``bits`` from a Cauchy bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, isqrt, lcm, log, pi, sqrt
from types import MappingProxyType

from .certified import log_pair_lower


def _norm(c):
    """An int or Fraction coefficient, as an int when it is whole."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _cleared(coeffs: dict):
    """``(L, [(e, L c)])`` with ``L`` the lcm of the denominators: all ints."""
    L = 1
    for c in coeffs.values():
        L = lcm(L, c.denominator)
    return L, [(e, c.numerator * (L // c.denominator))
               for e, c in coeffs.items()]


class ExactQSeries:
    """Truncated series ``sum_e c_e q^(e/D)`` with exact ``c_e``.

    Coefficients are valid strictly below ``trunc`` (in units of ``1/D``).
    Integer coefficients are stored as ``int``, the others as ``Fraction``.
    """

    __slots__ = ("D", "coeffs", "trunc")

    def __init__(self, D: int, coeffs: dict, trunc: int):
        if D <= 0:
            raise ValueError("lattice denominator must be positive")
        self.D = D
        self.trunc = trunc
        self.coeffs = {int(e): _norm(c) for e, c in coeffs.items()
                       if c and e < trunc}

    # ---------------------------------------------------------- constructors

    @classmethod
    def one(cls, trunc: int, D: int = 1) -> "ExactQSeries":
        return cls(D, {0: 1}, trunc)

    @classmethod
    def zero(cls, trunc: int, D: int = 1) -> "ExactQSeries":
        return cls(D, {}, trunc)

    # -------------------------------------------------------------- queries

    @property
    def min_exp(self) -> int:
        """Smallest stored exponent in units of ``1/D`` (trunc if zero)."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exp):
        """Coefficient of ``q^exp`` (``exp`` a Fraction or int)."""
        e = Fraction(exp) * self.D
        if e.denominator != 1:
            return 0
        e = int(e)
        if e >= self.trunc:
            raise ValueError(
                f"coefficient at q^{exp} is beyond the truncation order")
        return self.coeffs.get(e, 0)

    def trunc_exponent(self) -> Fraction:
        return Fraction(self.trunc, self.D)

    def terms(self):
        """Sorted list of ``(Fraction exponent, coefficient)`` pairs."""
        return [(Fraction(e, self.D), c) for e, c in sorted(self.coeffs.items())]

    def _lattice(self, other: "ExactQSeries") -> int:
        """The lattice denominator ``D`` both operands share; ValueError for
        series on different lattices."""
        if other.D != self.D:
            raise ValueError(f"series on different lattices: q^(1/{self.D}) "
                             f"and q^(1/{other.D})")
        return self.D

    # ----------------------------------------------------------- arithmetic

    def __neg__(self) -> "ExactQSeries":
        return ExactQSeries(self.D, {e: -c for e, c in self.coeffs.items()},
                            self.trunc)

    def __add__(self, other) -> "ExactQSeries":
        if isinstance(other, (int, Fraction)):
            other = ExactQSeries(self.D, {0: other}, self.trunc)
        D, out = self._lattice(other), dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return ExactQSeries(D, out, min(self.trunc, other.trunc))

    __radd__ = __add__

    def __sub__(self, other) -> "ExactQSeries":
        return self + (-other)

    def __mul__(self, other) -> "ExactQSeries":
        if isinstance(other, (int, Fraction)):
            return ExactQSeries(self.D, {e: c * other
                                         for e, c in self.coeffs.items()},
                                self.trunc)
        D = self._lattice(other)
        # standard truncation rule: the unknown tail of one factor meets the
        # lowest exponent of the other
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        # convolve integers; rational inputs are scaled to integers first
        La, a_terms = _cleared(self.coeffs)
        Lb, b_terms = _cleared(other.coeffs)
        b_terms = sorted(b_terms)
        out: dict = {}
        for e1, c1 in a_terms:
            for e2, c2 in b_terms:
                e = e1 + e2
                if e >= trunc:
                    break
                out[e] = out.get(e, 0) + c1 * c2
        if La * Lb != 1:
            out = {e: Fraction(c, La * Lb) for e, c in out.items()}
        return ExactQSeries(D, out, trunc)

    __rmul__ = __mul__

    def shift(self, exp) -> "ExactQSeries":
        """Multiply by the monomial ``q^exp``, onto the lattice ``q^(1/D')``,
        ``D' = lcm(D, den(exp))``: the one operation that changes ``D``."""
        exp = Fraction(exp)
        D = lcm(self.D, exp.denominator)
        f, d = D // self.D, int(exp * D)
        return ExactQSeries(D, {e * f + d: c for e, c in self.coeffs.items()},
                            self.trunc * f + d)

    def truncate(self, new_trunc) -> "ExactQSeries":
        t = Fraction(new_trunc) * self.D
        if t.denominator != 1:
            raise ValueError("truncation order must lie on the lattice")
        t = min(int(t), self.trunc)
        return ExactQSeries(self.D, {e: c for e, c in self.coeffs.items() if e < t}, t)

    def invert(self) -> "ExactQSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        return self ** -1

    def __pow__(self, p: int) -> "ExactQSeries":
        """``self ** p`` for any integer ``p``, by J.C.P. Miller's recurrence
        (Knuth, TAOCP Vol. 2, 4.7): with ``q^m a_0`` the lowest term and
        ``a_k`` the coefficient at ``q^(m + k)``, ``b = (sum a_k q^k)^p``
        obeys ``n a_0 b_n = sum_{k=1}^{n} ((p + 1) k - n) a_k b_{n-k}``.
        The recurrence is homogeneous in ``a``, so it runs on the cleared
        ints; ``b`` keeps the series' relative order ``trunc - m``."""
        if self.is_zero():
            if p < 0:
                raise ZeroDivisionError("non-invertible: zero series")
            return ExactQSeries(self.D, {}, p * self.trunc)
        m, rel = self.min_exp, self.trunc - self.min_exp
        a = sorted((e - m, c) for e, c in _cleared(self.coeffs)[1])
        a0 = a.pop(0)[1]
        b = [_norm(Fraction(self.coeffs[m]) ** p)] + [0] * (rel - 1)
        for n in range(1, rel):
            acc = 0
            for k, c in a:
                if k > n:
                    break
                acc += ((p + 1) * k - n) * c * b[n - k]
            b[n] = _norm(Fraction(acc, n * a0))
        return ExactQSeries(self.D, {p * m + n: c for n, c in enumerate(b)},
                            p * m + rel)

    # ----------------------------------------------------------- comparison

    def __eq__(self, other) -> bool:
        """Equal below both truncation orders, on one lattice."""
        if not isinstance(other, ExactQSeries):
            return NotImplemented
        return self.D == other.D and self.first_difference(other) is None

    def first_difference(self, other) -> Fraction | None:
        """Smallest exponent below ``min(self.trunc, other.trunc)`` where
        the two series differ, or None: a shorter series agrees with any
        series that extends it.  Compare ``trunc`` too where that matters."""
        D, t = self._lattice(other), min(self.trunc, other.trunc)
        keys = sorted({e for e in self.coeffs if e < t} |
                      {e for e in other.coeffs if e < t})
        for e in keys:
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return Fraction(e, D)
        return None


# ------------------------------------------------------------------ helpers


def log1p_series(a: ExactQSeries) -> ExactQSeries:
    """log(1 + a) for a series with positive valuation, in one pass of the
    recurrence ``__pow__`` comes from (Knuth, TAOCP Vol. 2, 4.7): the
    logarithmic derivative of ``L = log(1 + a)`` gives ``n L_n = n a_n -
    sum_{0<k<n} k L_k a_{n-k}``."""
    if not a.is_zero() and a.min_exp <= 0:
        raise ValueError("log1p requires positive valuation")
    L = {}
    for n in range(1, a.trunc):
        L[n] = Fraction(n * a.coeffs.get(n, 0) - sum(
            (n - j) * L[n - j] * c for j, c in a.coeffs.items() if j < n), n)
    return ExactQSeries(a.D, L, a.trunc)


def euler_product(trunc: int) -> ExactQSeries:
    """(q; q)_infinity to the stated order, via the pentagonal number series."""
    K = isqrt(max(trunc, 0)) + 1  # k (3k - 1)/2 >= k^2 > trunc for |k| > K
    return ExactQSeries(1, {k * (3 * k - 1) // 2: (-1) ** abs(k)
                            for k in range(-K, K + 1)}, trunc)


def divisor_sigma_list(power: int, n_max: int) -> list[int]:
    """[sigma_power(0..n_max)] by sieve; index 0 unused (set to 0)."""
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d ** power
        for n in range(d, n_max + 1, d):
            out[n] += dp
    return out


def euler_product_pow(power: int, trunc: int) -> ExactQSeries:
    """(q; q)_infinity^power (any integer power) to the stated order."""
    return euler_product(trunc) ** power


# ----------------------------------------------------------- bivariate part


class ZetaQSeries:
    """Bivariate series ``sum c_{m,n} zeta^m q^n`` on a diagonal window.

    ``rows[n]`` is one int packing the coefficients at ``q^n``: slot ``d``,
    bits ``bits * d`` to ``bits * (d + 1) - 1``, holds the coefficient on
    the diagonal ``d = m + n``, kept for ``0 <= n < q_trunc`` and ``0 <= d
    <= zeta_hi_base``.  A factor ``(1 - zeta^a q^j)`` moves ``(d, n)`` by
    multiples of ``(a + j, j)``; with ``a + j >= 0`` and ``j >= 1`` an entry
    that leaves the window never returns, whatever the order of the
    factors, so the mask that drops it loses nothing.

    Invariant: every entry is ``>= 0``, and no state this instance leads to
    through ``mul_factor`` has an entry ``>= 2^bits``.  Geometric passes
    only add nonnegative entries, so a slot's sum stays below ``2^bits``
    and no carry reaches the next slot; the caller that picks ``bits``
    answers for the bound.  ``poch_ratio_bivariate`` takes it from
    ``_slot_bits``: entries only grow, so the final window bounds every
    state, and the Cauchy bound ``c_{m,n} <= P(x, r) x^{-m} r^{-n}`` at the
    window's far corner bounds the final window.  Treat instances as
    immutable.
    """

    __slots__ = ("rows", "q_trunc", "zeta_hi_base", "bits", "_data")

    def __init__(self, rows: list, q_trunc: int, zeta_hi_base: int,
                 bits: int):
        self.rows, self.q_trunc, self.zeta_hi_base = rows, q_trunc, zeta_hi_base
        self.bits = bits
        self._data = None

    @property
    def data(self):
        """Read-only map ``{(m, n): c}`` of the nonzero entries."""
        if self._data is None:
            bits, slot = self.bits, (1 << self.bits) - 1
            self._data = MappingProxyType({
                (d - n, n): c for n, row in enumerate(self.rows) if row
                for d in range(self.zeta_hi_base + 1)
                if (c := (row >> bits * d) & slot)})
        return self._data

    def mul_factor(self, zeta_pow: int, q_pow: int, power: int) -> "ZetaQSeries":
        """Multiply by ``(1 - zeta^zeta_pow q^q_pow)^power`` for ``power < 0``.

        That is ``-power`` geometric passes ``row[n][d] += row[n-j][d-a-j]``,
        on the packed rows ``R[n] = (R[n] + (R[n-j] << bits (a+j))) & mask``;
        the factor must not lower the diagonal (``zeta_pow + q_pow >= 0``)
        and must raise the q order (``q_pow >= 1``).
        """
        step, T = zeta_pow + q_pow, self.q_trunc
        if power >= 0 or q_pow < 1 or step < 0:
            raise ValueError("need power < 0, q_pow >= 1 and "
                             "zeta_pow + q_pow >= 0")
        shift = self.bits * step
        mask = (1 << self.bits * (self.zeta_hi_base + 1)) - 1
        rows = self.rows[:]
        for _ in range(-power):
            # ascending n: each pass reads source rows it already updated
            for n in range(q_pow, T):
                rows[n] = (rows[n] + (rows[n - q_pow] << shift)) & mask
        return ZetaQSeries(rows, T, self.zeta_hi_base, self.bits)

    def zeta_coefficient(self, m: int) -> ExactQSeries:
        """Extract the coefficient of ``zeta^m`` as an exact q-series."""
        trunc = min(self.q_trunc, self.zeta_hi_base - m + 1)
        bits, slot = self.bits, (1 << self.bits) - 1
        return ExactQSeries(1, {n: (self.rows[n] >> bits * (m + n)) & slot
                                for n in range(max(0, -m), trunc)}, trunc)


def _slot_bits(ell: int, s_max: int, trunc: int) -> int:
    """A slot width no entry of ``poch_ratio_bivariate(ell, s_max, trunc)``
    reaches, nor any entry of a state on the way to it.

    Each such entry is at most the final entry at its place, an exact
    coefficient ``c_{m,n} >= 0`` of ``P = 1 / ((zeta)_inf^ell (zeta^{-1}
    q)_inf^ell)``, and ``c_{m,n} <= P(x, r) x^{-m} r^{-n}`` for any ``0 < r <
    x < 1``.  With ``x = e^{-u}``, ``r = e^{-w}`` and ``d = m + n``, ``x^{-m}
    r^{-n} = e^{u d + (w - u) n}`` is largest at the window's far corner
    ``(d, n) = (s_max + trunc - 1, trunc - 1)``, so every entry has ``log c
    <= -ell log |(x; r)_inf (r/x; r)_inf| + u s_max + w (trunc - 1)``, the
    pair bounded below by ``log_pair_lower``.  Any ``0 < u < w`` gives a
    bound; the closed-form saddle ``w = pi sqrt(ell / (3 max(trunc - 1,
    1)))``, ``u = w / 2`` keeps it within about 12 bits of the largest
    entry, and two guard bits absorb the doubles' rounding.
    """
    w = pi * sqrt(ell / (3 * max(trunc - 1, 1)))
    log_c = -ell * log_pair_lower(-w / 2, -w) + (s_max / 2 + trunc - 1) * w
    return ceil(log_c / log(2)) + 2


def poch_ratio_bivariate(ell: int, s_max: int, trunc: int) -> ZetaQSeries:
    """Windowed expansion of ``1 / ((zeta)_inf^ell (zeta^{-1} q)_inf^ell)``.

    The window keeps exactly the entries that can still contribute to
    ``coeff_{zeta^s} q^n`` with ``s <= s_max`` and ``n < trunc``.  Row 0
    starts as ``(1 - zeta)^{-ell} = sum_d C(d + ell - 1, ell - 1) zeta^d``;
    the slots are ``_slot_bits`` wide.
    """
    width, bits = s_max + trunc, _slot_bits(ell, s_max, trunc)
    rows = [sum(comb(d + ell - 1, ell - 1) << bits * d for d in range(width))]
    rows += [0] * (trunc - 1)
    state = ZetaQSeries(rows, trunc, width - 1, bits)
    for j in range(1, trunc):
        state = state.mul_factor(1, j, -ell)
        state = state.mul_factor(-1, j, -ell)
    return state
