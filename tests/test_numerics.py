import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import numerics
from nablafrac.backend import format_scalar, rational
from nablafrac.grid import DomainError, GridFn
from nablafrac.numerics import (FracOrder, falling_factorial, minus_delta_n,
                                nabla_n, rising_factorial, weights)


def rat(text):
    return rational(text)


class TestFracOrder:
    def test_n_values(self):
        assert FracOrder(rat("1/2")).n == 1
        assert FracOrder(rat("5/4")).n == 2
        assert FracOrder(rat("3/2")).n == 2
        assert FracOrder(rat("1")).n == 2  # n = [alpha] + 1 even at integers
        assert FracOrder(0.5).n == 1
        assert FracOrder(2.25).n == 3

    def test_positive_required(self):
        with pytest.raises(DomainError):
            FracOrder(rat("0"))
        with pytest.raises(DomainError):
            FracOrder(-0.5)

    def test_parse(self):
        assert FracOrder.parse("1/2", exact=True).alpha == rat("1/2")
        assert FracOrder.parse("1/2", exact=False).alpha == 0.5

    def test_require_noninteger(self):
        FracOrder(rat("1/2")).require_noninteger("x")
        with pytest.raises(DomainError):
            FracOrder(rat("2")).require_noninteger("x")


class TestRisingFactorial:
    def test_integer_orders_product_form(self):
        # t^{rising m} = t (t+1) ... (t+m-1)
        assert rising_factorial(rat("3"), 0) == 1
        assert rising_factorial(rat("3"), 2) == 12
        assert rising_factorial(rat("-1/2"), 2) == rat("-1/4")

    def test_zero_base_convention(self):
        assert rising_factorial(0, FracOrder(0.5)) == 0

    def test_float_gamma_ratio(self):
        t, a = 3.0, 0.5
        want = math.gamma(t + a) / math.gamma(t)
        assert rising_factorial(t, a) == pytest.approx(want, rel=1e-14)

    def test_gamma_pole(self):
        with pytest.raises(DomainError):
            rising_factorial(-2.0, 0.5)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            rising_factorial(3.0, -0.5)


class TestFallingFactorial:
    def test_integer_orders(self):
        assert falling_factorial(rat("5"), 2) == 20
        assert falling_factorial(rat("5"), 0) == 1

    def test_float_gamma_ratio(self):
        t, a = 4.0, 0.5
        want = math.gamma(t + 1) / math.gamma(t + 1 - a)
        assert falling_factorial(t, a) == pytest.approx(want, rel=1e-14)


# The float weight contract: w_0..w_512 from the scalar recurrence, the tail
# from one sequential product of the ratios (k + beta - 1)/k.
FLOAT_ORDERS = [-1.98, -1.5, -0.5, 0.02, 0.5, 1.5, 0.123456789]


def scalar_recurrence(beta, K):
    w = [1.0]
    for k in range(1, K + 1):
        w.append(w[k - 1] * (k + beta - 1) / k)
    return np.array(w)


class TestWeights:
    def test_first_values_half(self):
        w = weights(rat("1/2"), 2)
        assert w == (1, rat("1/2"), rat("3/8"))

    def test_gamma_ratio_oracle_float(self):
        beta = 0.75
        w = weights(beta, 6)
        for k in range(7):
            want = math.gamma(k + beta) / (math.gamma(beta) *
                                           math.factorial(k))
            assert w[k] == pytest.approx(want, rel=1e-12)

    @given(p=st.integers(1, 9), q=st.integers(2, 9), K=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_gamma_ratio_oracle_exact(self, p, q, K):
        # Gamma(k+beta)/Gamma(beta)/k! as an explicit product of rationals
        beta = rational(p, q)
        w = weights(beta, K)
        for k in range(K + 1):
            num = rational(1)
            for j in range(k):
                num = num * (beta + j)
            assert w[k] == num / math.factorial(k)

    def test_negative_beta_extension(self):
        # recurrence continues through beta <= 0
        w = weights(rat("-1/2"), 3)
        assert w[0] == 1
        assert w[1] == rat("-1/2")
        assert w[2] == rat("-1/8")

    def test_alpha_one_is_running_sum_kernel(self):
        assert weights(rat("1"), 4) == (1, 1, 1, 1, 1)

    def test_bad_count(self):
        with pytest.raises(DomainError):
            weights(0.5, -1)

    def test_cache_keeps_recent_orders_only(self):
        first_float = weights(0.123456789, 40)
        first_exact = weights(rat("2/7"), 12)
        for j in range(1000):
            weights(1 + j / 1000.5, 3)
        assert len(numerics._weight_cache) <= 8
        assert 0.123456789 not in numerics._weight_cache
        assert (2, 7) not in numerics._weight_cache
        assert weights(0.123456789, 40).tobytes() == first_float.tobytes()
        assert weights(rat("2/7"), 12) == first_exact

    def test_float_weights_carry_their_array(self):
        beta = 0.3141
        short = weights(beta, 3)
        longer = weights(beta, 50)      # grows the cached array
        again = weights(beta, 3)
        for w in (short, longer, again):
            assert type(w) is np.ndarray and w.dtype == np.float64
            assert not w.flags.writeable
        assert again.tobytes() == short.tobytes() == longer[:4].tobytes()
        assert again.base is longer.base is numerics._weight_cache[beta]

    @pytest.mark.parametrize("beta", [0.2718, rat("3/11")],
                             ids=["float", "exact"])
    def test_repeated_count_shares_the_tuple(self, beta):
        if isinstance(beta, float):
            def same(x, y):      # views of the same cached entries
                return x.base is y.base and len(x) == len(y)

            def equal(x, y):     # the same bits
                return x.tobytes() == y.tobytes()
        else:
            same, equal = operator.is_, operator.eq
        first = weights(beta, 20)
        assert same(weights(beta, 20), first)
        shorter = weights(beta, 5)
        assert equal(shorter, first[:6])
        assert same(weights(beta, 5), shorter)
        longer = weights(beta, 40)          # grows the cached list
        again = weights(beta, 20)
        assert equal(again, first) and not same(again, first)
        assert equal(weights(beta, 40)[:21], again)
        assert equal(again, longer[:21])


    @pytest.mark.parametrize("beta", FLOAT_ORDERS)
    def test_head_is_the_scalar_recurrence(self, beta):
        want = scalar_recurrence(beta, 512).tobytes()
        numerics._weight_cache.pop(beta, None)
        assert weights(beta, 512).tobytes() == want
        weights(beta, 5000)                 # grows past the head
        assert weights(beta, 512).tobytes() == want
        assert weights(beta, 513)[:513].tobytes() == want

    @pytest.mark.parametrize("beta", FLOAT_ORDERS)
    def test_bits_do_not_depend_on_growth(self, beta):
        K = 50_000
        numerics._weight_cache.pop(beta, None)
        fresh = weights(beta, K)
        numerics._weight_cache.pop(beta, None)
        for k in (100, 600, 4097, 20_000):
            weights(beta, k)
        grown = weights(beta, K)
        for j in range(8):
            weights(2 + j / 7.5, 3)
        assert beta not in numerics._weight_cache
        rebuilt = weights(beta, K)
        assert fresh.tobytes() == grown.tobytes() == rebuilt.tobytes()

    @pytest.mark.parametrize("beta", FLOAT_ORDERS)
    def test_error_against_long_double(self, beta):
        K = 50_000
        ks = np.arange(1, K + 1, dtype=np.longdouble)
        ratios = (ks + np.longdouble(beta) - 1) / ks
        want = np.concatenate(([np.longdouble(1)], np.cumprod(ratios)))
        err = np.abs((weights(beta, K) - want) / want)
        assert err.max() <= 2e-12

    @pytest.mark.parametrize("beta", FLOAT_ORDERS)
    def test_read_only_prefix(self, beta):
        w = weights(beta, 1000)
        with pytest.raises(ValueError):
            w[3] = 0.0
        with pytest.raises(ValueError):
            numerics._weight_cache[beta][700] = 0.0
        for K in (0, 300, 512, 700):
            short = weights(beta, K)
            assert len(short) == K + 1 and not short.flags.writeable
            assert short.tobytes() == w[:K + 1].tobytes()


class TestNablaRisingPower:
    @given(p=st.integers(1, 9), q=st.integers(2, 9), t=st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_nabla_of_rising_power(self, p, q, t):
        # nabla(t^{rising a}) = a t^{rising(a-1)}, checked exactly after
        # dividing out the common Gamma(1+a) factor:
        # t^{rising a} / Gamma(1+a) = prod_{j=1}^{t-1}(j+a) / (t-1)!
        a = rational(p, q)

        def q_of(t):
            num = rational(1)
            for j in range(1, t):
                num = num * (j + a)
            return num / math.factorial(t - 1)

        lhs = q_of(t) - q_of(t - 1)
        rhs = rational(1)
        for j in range(t - 1):
            rhs = rhs * (j + a)
        rhs = rhs / math.factorial(t - 1)
        assert lhs == rhs


class TestIntegerDifferences:
    def test_nabla_one(self):
        f = GridFn(0, (1, 4, 9, 16))
        d = nabla_n(f, 1)
        assert d.lo == 1 and d.values == (3, 5, 7)

    def test_nabla_two(self):
        f = GridFn(0, (1, 4, 9, 16))
        d = nabla_n(f, 2)
        assert d.lo == 2 and d.values == (2, 2)

    def test_minus_delta_one(self):
        f = GridFn(0, (1, 4, 9, 16))
        d = minus_delta_n(f, 1)
        assert d.lo == 0 and d.values == (-3, -5, -7)

    def test_minus_delta_two_sign(self):
        # (-1)^2 Delta^2 keeps the sign of the second difference
        f = GridFn(0, (1, 4, 9, 16))
        d = minus_delta_n(f, 2)
        assert d.values == (2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("values", [
        (1, 4, 9, 16, 25),
        tuple(rat(t) for t in ("1/2", "-2/3", "5/7", "0", "3", "-11/12")),
        (0.1, -2.5, 3.75, 1e-3, 7.0, 7.0, -0.2),
    ])
    def test_matches_tuple_differences(self, values, n):
        # reference: n steps of pairwise differences of the values themselves
        back, fwd = values, values
        for _ in range(n):
            back = tuple(back[k] - back[k - 1] for k in range(1, len(back)))
            fwd = tuple(fwd[k] - fwd[k + 1] for k in range(len(fwd) - 1))
        f = GridFn(3, values)
        nd, md = nabla_n(f, n), minus_delta_n(f, n)
        assert (nd.lo, md.lo) == (3 + n, 3)
        # the written form: canonical p/q, floats bit for bit (and -0 != 0)
        assert list(map(format_scalar, nd.values + md.values)) == \
            list(map(format_scalar, back + fwd))

    def test_too_small(self):
        with pytest.raises(DomainError):
            nabla_n(GridFn(0, (1,)), 1)
        with pytest.raises(DomainError):
            minus_delta_n(GridFn(0, (1, 2)), 2)
