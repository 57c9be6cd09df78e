from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from hypothesis import given, settings, strategies as st

from qchar.bernoulli_euler import (_appell, _bernoulli_table, _euler_table,
                                   bernoulli_number, bernoulli_poly,
                                   check_euler_bernoulli_identity,
                                   euler_poly,
                                   higher_bernoulli_poly, verify_S_identity)
from qchar.exact_series import ExactQSeries


def test_bernoulli_numbers_table():
    table = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
             10: Fraction(5, 66), 12: Fraction(-691, 2730)}
    for k, v in table.items():
        assert bernoulli_number(k) == v
    for k in (3, 5, 7, 9, 11):
        assert bernoulli_number(k) == 0


def test_bernoulli_numbers_independent_of_request_order():
    # every k gives the same value whichever table serves it, and the
    # tables are bounded and immutable
    want = {k: bernoulli_number(k) for k in range(200)}
    _bernoulli_table.cache_clear()
    for k in (150, 3, 64, 17, 0, 199, 31, 32):
        assert bernoulli_number(k) == want[k]
    info = _bernoulli_table.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert isinstance(_bernoulli_table(16), tuple)


def test_bernoulli_poly_basics():
    # B_n(0) = B_n, B_n(1) = B_n for n != 1, difference formula
    for n in range(0, 10):
        assert bernoulli_poly(n, Fraction(0)) == bernoulli_number(n)
    for n in range(2, 10):
        assert bernoulli_poly(n, Fraction(1)) == bernoulli_number(n)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=12),
       st.fractions(min_value=-2, max_value=2, max_denominator=6))
def test_bernoulli_difference(n, x):
    assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == \
        n * x ** (n - 1)


def euler_number(n):
    """E_n = 2^n E_n(1/2)."""
    return 2 ** n * euler_poly(n, Fraction(1, 2))


def test_euler_numbers_table():
    table = {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385, 10: -50521}
    for k, v in table.items():
        assert euler_number(k) == v
    for k in (1, 3, 5, 7):
        assert euler_number(k) == 0


def test_euler_numbers_against_sech_series():
    # independent route: sech(w) = 2/(e^w + e^{-w}) = sum E_n w^n / n!
    trunc = 31
    cosh = ExactQSeries(1, {2 * m: Fraction(1, factorial(2 * m))
                            for m in range(trunc // 2 + 1)}, trunc)
    sech = cosh.invert()
    for n in range(trunc):
        assert euler_number(n) == sech.coefficient(n) * factorial(n)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=12),
       st.fractions(min_value=-2, max_value=2, max_denominator=6))
def test_euler_poly_sum_rule(n, x):
    assert euler_poly(n, x + 1) + euler_poly(n, x) == 2 * x ** n


def exp_w(x, trunc):
    """Series of e^{x w} to order w^trunc."""
    return ExactQSeries(1, {n: Fraction(x) ** n / factorial(n)
                            for n in range(trunc)}, trunc)


def bernoulli_poly_by_inversion(n, x):
    """B_n(x) with (e^w - 1)/w inverted afresh and multiplied by e^{xw}."""
    expm1_over_w = ExactQSeries(1, {m: Fraction(1, factorial(m + 1))
                                    for m in range(n + 1)}, n + 1)
    series = expm1_over_w.invert() * exp_w(x, n + 1)
    return series.coefficient(n) * factorial(n)


@lru_cache(maxsize=None)
def higher_bernoulli_table(size, r):
    """(B_0^{(r)}, ..., B_{size-1}^{(r)}): the w^j/j! coefficients of
    (w/(e^w - 1))^r, by r - 1 products of the order-1 series."""
    one = ExactQSeries(1, {j: bernoulli_number(j) / factorial(j)
                           for j in range(size)}, size)
    gen = one
    for _ in range(r - 1):
        gen = gen * one
    return tuple(gen.coefficient(j) * factorial(j) for j in range(size))


def higher_bernoulli_by_appell(n, r, x):
    """B_n^{(r)}(x) by the Appell sum it was computed with: sum_k C(n, k)
    B_k^{(r)} x^{n-k} over an (n, r) table of 16, 32, 64, ... entries."""
    a = higher_bernoulli_table(max(16, 1 << n.bit_length()), r)
    return sum((comb(n, k) * a[k] * x ** (n - k) for k in range(n + 1)),
               Fraction(0))


def euler_poly_by_inversion(n, x):
    """E_n(x) as it was computed: (e^w + 1)/2 inverted afresh and multiplied
    by e^{xw}."""
    half = ExactQSeries(1, {m: Fraction(1, 2 * factorial(m))
                            for m in range(n + 1)}, n + 1) + Fraction(1, 2)
    series = half.invert() * exp_w(x, n + 1)
    return series.coefficient(n) * factorial(n)


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=40)
@given(st.integers(0, 40), _rationals)
def test_cached_tables_against_fresh_inversion(n, x):
    assert euler_poly(n, x) == euler_poly_by_inversion(n, x)
    assert bernoulli_poly(n, x) == bernoulli_poly_by_inversion(n, x)


def appell_in_fractions(table, n, x):
    """_appell as it was: sum_k C(n, k) a_k x^{n-k} in Fractions."""
    L, A = table(max(16, 1 << n.bit_length()))
    a = [Fraction(c, L) for c in A]
    return sum((comb(n, k) * a[k] * x ** (n - k) for k in range(n + 1)),
               Fraction(0))


_appell_points = st.one_of(
    st.just(Fraction(0)), st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=10 ** 6))


@settings(max_examples=80)
@given(st.integers(0, 130), _appell_points)
def test_appell_in_ints_against_fractions(n, x):
    for table in (_bernoulli_table, _euler_table):
        assert _appell(table, n, x) == appell_in_fractions(table, n, x)


def test_higher_bernoulli_matches_the_appell_tables():
    # every (n, r) with n <= 40 and r <= 20, at one x
    for n in range(41):
        for r in range(1, 21):
            assert higher_bernoulli_poly(n, r, Fraction(-7, 3)) == \
                higher_bernoulli_by_appell(n, r, Fraction(-7, 3))


@settings(max_examples=40)
@given(st.integers(0, 40), st.integers(1, 20), _rationals)
def test_higher_bernoulli_matches_the_appell_tables_at_any_x(n, r, x):
    assert higher_bernoulli_poly(n, r, x) == higher_bernoulli_by_appell(n, r, x)


def higher_bernoulli_by_products(n, r, x):
    """higher_bernoulli_poly as it was: the w^n coefficient of the whole
    product (w/(e^w - 1))^r e^{xw}, times n!."""
    x = Fraction(x)
    expm1_over_w = ExactQSeries(1, {m: Fraction(1, factorial(m + 1))
                                    for m in range(n + 1)}, n + 1)
    series = expm1_over_w ** -r * exp_w(x, n + 1)
    return Fraction(series.coefficient(n) * factorial(n))


@settings(max_examples=60)
@given(st.integers(0, 30), st.integers(1, 8),
       st.fractions(min_value=-6, max_value=6, max_denominator=30))
def test_higher_bernoulli_one_power_against_the_product(n, r, x):
    got = higher_bernoulli_poly(n, r, x)
    assert type(got) is Fraction
    assert got == higher_bernoulli_by_products(n, r, x)


def bernoulli_number_from_table(k):
    """bernoulli_number as it was: B_k read off its table."""
    L, A = _bernoulli_table(max(16, 1 << k.bit_length()))
    return Fraction(A[k], L)


@settings(max_examples=60)
@given(st.integers(0, 130))
def test_bernoulli_number_is_the_appell_sum_at_zero(k):
    got = bernoulli_number(k)
    assert type(got) is Fraction and got == bernoulli_number_from_table(k)


def test_higher_bernoulli_reduces_to_ordinary():
    for n in range(0, 8):
        assert higher_bernoulli_poly(n, 1, Fraction(0)) == \
            bernoulli_number(n)
        assert higher_bernoulli_poly(n, 1, Fraction(1, 2)) == \
            bernoulli_poly(n, Fraction(1, 2))


def test_higher_bernoulli_spot_value():
    assert higher_bernoulli_poly(2, 3, Fraction(3, 2)) == Fraction(-1, 4)


def test_euler_bernoulli_identity_sweep():
    for n in range(0, 21):
        for m in (2, 4):
            for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
                assert check_euler_bernoulli_identity(n, m, x)


def test_S_series_identity():
    assert verify_S_identity(31)


def test_int_tables_hold_the_fraction_tables():
    # (L, (L a_j)_j) decodes to the j! [w^j] coefficients of each generating
    # function, with L their least common denominator, at every table size
    # that n <= 130 reaches
    for size in (16, 32, 64, 128, 256):
        expm1_over_w = ExactQSeries(1, {m: Fraction(1, factorial(m + 1))
                                        for m in range(size)}, size)
        half = ExactQSeries(1, {m: Fraction(1, 2 * factorial(m))
                                for m in range(size)}, size) + Fraction(1, 2)
        for table, gen in ((_bernoulli_table, expm1_over_w.invert()),
                           (_euler_table, half.invert())):
            L, A = table(size)
            want = [Fraction(gen.coefficient(j) * factorial(j))
                    for j in range(size)]
            assert [Fraction(c, L) for c in A] == want
            assert L == lcm(*(w.denominator for w in want))
