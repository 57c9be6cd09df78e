"""Exact Bernoulli and Euler machinery.

Everything here comes from generating functions, each by one recurrence
on exact series: a table or a higher-order power is one J.C.P. Miller power
(ExactQSeries.__pow__), a polynomial value one Appell sum over a table in
ints, and the logarithm of criterion 10's S-identity the same recurrence
on the logarithmic derivative (log1p_series).  The classical Bernoulli and
Euler recurrences only appear in the test suite, as independent oracles.
All values are rational and exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact_series import ExactQSeries, _cleared, log1p_series


def _expm1_over_w(trunc: int) -> ExactQSeries:
    """(e^w - 1)/w to order w^trunc."""
    return ExactQSeries(1, {n: Fraction(1, factorial(n + 1))
                            for n in range(trunc)}, trunc)


def _int_table(gen: ExactQSeries, n: int) -> tuple[int, tuple[int, ...]]:
    """(L, (L a_0, ..., L a_{n-1})) for a_j = j! [w^j] gen, L the lcm of
    their denominators: the table in ints."""
    L, terms = _cleared({j: gen.coefficient(j) * factorial(j)
                         for j in range(n)})
    return L, tuple(c for _, c in terms)


@lru_cache(maxsize=32)
def _bernoulli_table(n: int) -> tuple[int, tuple[int, ...]]:
    """B_0, ..., B_{n-1}, the w^j/j! coefficients of w/(e^w - 1), as
    (L, (L B_0, ..., L B_{n-1}))."""
    return _int_table(_expm1_over_w(n) ** -1, n)


@lru_cache(maxsize=16)
def _euler_table(n: int) -> tuple[int, tuple[int, ...]]:
    """E_0(0), ..., E_{n-1}(0) from one inversion of (e^w + 1)/2, as
    (L, (L E_0(0), ..., L E_{n-1}(0)))."""
    gen = (ExactQSeries(1, {m: Fraction(1, 2 * factorial(m))
                            for m in range(n)}, n) + Fraction(1, 2)).invert()
    return _int_table(gen, n)


def _appell(table, n: int, x) -> Fraction:
    """sum_k C(n, k) a_k x^{n-k}, the w^n/n! coefficient of A(w) e^{xw} for
    A(w) = sum_k a_k w^k/k!, with (L, (L a_k)_k) = table(size) and tables
    of 16, 32, 64, ... entries, so that n up to 2^16 needs 13 tables at most.

    Summed in ints by Horner's rule in p: with x = p/q and a_k = A_k/L,
    the sum is (sum_k C(n, k) A_k q^k p^{n-k}) / (L q^n)."""
    L, A = table(max(16, 1 << n.bit_length()))
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    acc, binom, q_k = 0, 1, 1  # binom = C(n, k), q_k = q^k
    for k in range(n + 1):
        acc = acc * p + binom * A[k] * q_k
        binom = binom * (n - k) // (k + 1)
        q_k *= q
    return Fraction(acc, L * q ** n)


def bernoulli_number(k: int) -> Fraction:
    """B_k, from the generating function w/(e^w - 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _appell(_bernoulli_table, k, 0)


def bernoulli_poly(n: int, x) -> Fraction:
    """B_n(x), coefficient of w^n/n! in w e^{xw}/(e^w - 1)."""
    return _appell(_bernoulli_table, n, x)


def higher_bernoulli_poly(n: int, r: int, x) -> Fraction:
    """B_n^{(r)}(x), coefficient of w^n/n! in (w/(e^w-1))^r e^{xw}: with
    A_k = [w^k] (w/(e^w-1))^r, one power, it is n! sum_k A_k x^{n-k}/(n-k)!."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and a positive integer order r")
    A = (_expm1_over_w(n + 1) ** -r).coeffs
    x = Fraction(x)
    return factorial(n) * sum((A.get(k, 0) * x ** (n - k) / factorial(n - k)
                               for k in range(n + 1)), Fraction(0))


def euler_poly(n: int, x) -> Fraction:
    """E_n(x), coefficient of w^n/n! in 2 e^{xw}/(e^w + 1)."""
    return _appell(_euler_table, n, x)


def check_euler_bernoulli_identity(n: int, m: int, x) -> bool:
    """E_n(m x) = -(2/(n+1)) m^n sum_{k<m} (-1)^k B_{n+1}(x + k/m), m even."""
    if m % 2:
        raise ValueError("m must be even")
    x = Fraction(x)
    lhs = euler_poly(n, m * x)
    rhs = Fraction(-2, n + 1) * m ** n * sum(
        ((-1) ** k * bernoulli_poly(n + 1, x + Fraction(k, m))
         for k in range(m)), Fraction(0))
    return lhs == rhs


def S_coefficients(trunc: int) -> ExactQSeries:
    """The even series sum_{k>=1} B_{2k} w^{2k} / (2k (2k)!)."""
    return ExactQSeries(1, {
        2 * k: bernoulli_number(2 * k) / (2 * k * factorial(2 * k))
        for k in range(1, (trunc + 1) // 2)}, trunc)


def verify_S_identity(trunc: int) -> bool:
    """Check S(w) = Log((e^w - 1)/w) - w/2 coefficientwise."""
    rhs = log1p_series(_expm1_over_w(trunc) - 1) - \
        ExactQSeries(1, {1: Fraction(1, 2)}, trunc)
    return S_coefficients(trunc) == rhs
