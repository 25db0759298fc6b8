import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import numerics
from nablafrac.backend import rational
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
        assert (True, 0.123456789) not in numerics._weight_cache
        assert (False, rat("2/7")) not in numerics._weight_cache
        assert weights(0.123456789, 40) == first_float
        assert weights(rat("2/7"), 12) == first_exact


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

    def test_too_small(self):
        with pytest.raises(DomainError):
            nabla_n(GridFn(0, (1,)), 1)
        with pytest.raises(DomainError):
            minus_delta_n(GridFn(0, (1, 2)), 2)
