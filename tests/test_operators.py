import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import operators
from nablafrac.backend import rational
from nablafrac.grid import DomainError, GridFn
from nablafrac.identities import FLOAT_TOLERANCE
from nablafrac.numerics import FracOrder, weights
from nablafrac.operators import (caputo_left, caputo_right,
                                 delta_left_riemann, delta_left_sum,
                                 delta_right_riemann, delta_right_sum,
                                 nabla_left_riemann, nabla_left_sum,
                                 nabla_left_sum_fn, nabla_right_riemann,
                                 nabla_right_sum, nabla_right_sum_fn,
                                 operator_matrix)


def rat(text):
    return rational(text)


def random_fn(seed, lo, hi):
    rng = random.Random(seed)
    return GridFn(lo, tuple(rational(rng.randint(-9, 9))
                            for _ in range(int(hi - lo) + 1)))


rational_alpha = st.builds(rational, st.integers(1, 7), st.integers(2, 8))


class TestLeftSum:
    def test_half_order_of_one(self):
        ones = GridFn(0, (1,) * 6)
        s = nabla_left_sum_fn(ones, rat("1/2"), 0)
        assert s(0) == 0
        assert s(1) == 1
        assert s(2) == rat("3/2")
        assert s(3) == rat("15/8")

    def test_alpha_one_running_sum(self):
        f = GridFn(0, (0, 2, 3, 4))
        s = nabla_left_sum_fn(f, 1, 0)
        assert s.values == (0, 2, 5, 9)

    def test_scalar_matches_fn(self):
        f = random_fn(1, 0, 6)
        s = nabla_left_sum_fn(f, rat("2/3"), 0)
        for t in range(0, 7):
            assert nabla_left_sum(f, rat("2/3"), 0, t) == s(t)

    def test_before_anchor_errors(self):
        f = GridFn(0, (1, 2, 3))
        with pytest.raises(DomainError):
            nabla_left_sum(f, rat("1/2"), 1, 0)

    def test_domain_insufficient(self):
        f = GridFn(3, (1, 2))
        with pytest.raises(DomainError):
            nabla_left_sum_fn(f, rat("1/2"), 0)


class TestRightSum:
    def test_mirror_of_left(self):
        # reflection about the midpoint swaps left and right sums
        a, b = 0, 7
        f = random_fn(2, a + 1, b - 1)
        mirror = GridFn(a + 1, tuple(reversed(f.values)))
        left = nabla_left_sum_fn(mirror, rat("3/5"), a)
        right = nabla_right_sum_fn(f, rat("3/5"), b)
        for t in range(a + 1, b):
            assert right(t) == left(a + b - t)

    def test_zero_at_anchor(self):
        f = random_fn(3, 1, 6)
        assert nabla_right_sum_fn(f, rat("1/2"), 7)(7) == 0
        assert nabla_right_sum(f, rat("1/2"), 7, 7) == 0

    def test_truncate(self):
        f = random_fn(4, 1, 4)
        with pytest.raises(DomainError):
            nabla_right_sum_fn(f, rat("1/2"), 7)
        s = nabla_right_sum_fn(f, rat("1/2"), 7, truncate=True)
        w = weights(rat("1/2"), 3)
        want = sum(w[k - 1] * f(k) for k in range(1, 5))
        assert s(1) == want


class TestRiemann:
    def test_half_order_of_constant_one(self):
        # order 1/2 of the constant 1 on a 3-point interior
        ones = GridFn(1, (1, 1, 1))
        left = nabla_left_riemann(ones, rat("1/2"), 0)
        right = nabla_right_riemann(ones, rat("1/2"), 4)
        assert left(2) == rat("1/2")
        assert right(2) == rat("1/2")

    def test_alpha_one_reduces_to_nabla(self):
        # the operator reads f from a+1 only, so at t = a+1 the backward
        # difference sees the empty-sum zero in place of f(a)
        f = random_fn(5, 0, 6)
        r = nabla_left_riemann(f, 1, 0)
        assert r(1) == f(1)
        for t in range(2, 7):
            assert r(t) == f(t) - f(t - 1)

    def test_alpha_one_right_reduces_to_minus_delta(self):
        f = random_fn(6, 1, 7)
        r = nabla_right_riemann(f, 1, 7)
        assert r(6) == f(6)
        for t in range(1, 6):
            assert r(t) == f(t) - f(t + 1)

    @given(alpha=rational_alpha, beta=rational_alpha, seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_of_sums(self, alpha, beta, seed):
        # nabla_a^{-alpha} nabla_a^{-beta} = nabla_a^{-(alpha+beta)}
        f = random_fn(seed, 1, 8)
        inner = nabla_left_sum_fn(f, beta, 0)
        lhs = nabla_left_sum_fn(inner.restrict(1, 8), alpha, 0)
        rhs = nabla_left_sum_fn(f, alpha + beta, 0)
        for t in range(0, 9):
            assert lhs(t) == rhs(t)

    def test_riemann_inverts_sum(self):
        # nabla_a^{alpha} nabla_a^{-alpha} f = f (semigroup + exact nabla)
        f = random_fn(7, 1, 8)
        s = nabla_left_sum_fn(f, rat("2/5"), 0)
        r = nabla_left_riemann(s, rat("2/5"), 0)
        for t in range(1, 9):
            assert r(t) == f(t)


class TestCaputo:
    def test_constant_annihilated(self):
        c = GridFn(0, (rat("7/3"),) * 6)
        out = caputo_left(c, rat("1/2"), 0)
        assert all(v == 0 for v in out.values)
        out = caputo_right(c, rat("1/2"), 5)
        assert all(v == 0 for v in out.values)

    def test_ramp_value(self):
        # Caputo order 1/2 from 0 of f(t) = t at t = 2 is 3/2
        ramp = GridFn.from_callable(0, 4, lambda t: rational(t))
        out = caputo_left(ramp, rat("1/2"), 0)
        assert out(2) == rat("3/2")

    def test_domain_needs_back_points(self):
        f = GridFn(1, (1, 2, 3))
        with pytest.raises(DomainError):
            caputo_left(f, rat("1/2"), 0)

    def test_integer_order_rejected(self):
        f = GridFn(0, (1, 2, 3))
        with pytest.raises(DomainError):
            caputo_left(f, 1, 0)

    def test_higher_order_domain(self):
        f = random_fn(8, 0, 7)
        out = caputo_left(f, rat("5/4"), 0)   # n = 2, domain starts at a+2
        assert out.lo == 2
        out = caputo_right(f, rat("5/4"), 7)  # ends at b-2
        assert out.hi == 5


class TestDeltaDuals:
    @pytest.mark.parametrize("alpha_text", ["1/3", "1/2", "3/4", "5/4"])
    def test_left_sum_dual(self, alpha_text):
        av = rat(alpha_text)
        f = random_fn(9, 1, 7)
        d = delta_left_sum(f, av, 0)
        n = nabla_left_sum_fn(f, av, 0)
        for s in range(1, 8):
            assert d(s + av) == n(s)

    @pytest.mark.parametrize("alpha_text", ["1/3", "1/2", "3/4", "5/4"])
    def test_right_sum_dual(self, alpha_text):
        av = rat(alpha_text)
        g = random_fn(10, 1, 7)
        d = delta_right_sum(g, av, 8)
        n = nabla_right_sum_fn(g, av, 8)
        for s in range(1, 8):
            assert d(s - av) == n(s)

    @pytest.mark.parametrize("alpha_text", ["1/3", "1/2", "3/4"])
    def test_left_riemann_dual(self, alpha_text):
        alpha = FracOrder(rat(alpha_text))
        g = random_fn(11, 1, 7)
        d = delta_left_riemann(g, alpha, 0)
        n = nabla_left_riemann(g, alpha, 0)
        for s in range(1, 8):
            assert d(s - alpha.alpha) == n(s)

    @pytest.mark.parametrize("alpha_text", ["1/3", "1/2", "3/4"])
    def test_right_riemann_dual(self, alpha_text):
        alpha = FracOrder(rat(alpha_text))
        f = random_fn(12, 1, 7)
        d = delta_right_riemann(f, alpha, 8)
        n = nabla_right_riemann(f, alpha, 8)
        for s in range(1, 8):
            assert d(s + alpha.alpha) == n(s)


class TestOperatorMatrix:
    def test_reproduces_linear_operator(self):
        f = random_fn(13, 1, 6)
        op = lambda e: nabla_left_sum_fn(e, rat("1/2"), 0)
        out_lo, rows = operator_matrix(op, 1, 6, rational(1), rational(0))
        direct = op(f)
        assert out_lo == 0
        for i, row in enumerate(rows):
            want = direct(out_lo + i)
            got = sum(c * v for c, v in zip(row, f.values))
            assert got == want


LONG_ORDERS = (0.02, 0.5, 0.98, 1.5, 1.98, 1.999, -0.5, -1.98)


def assert_float_policy(got, want):
    """Finite rows within the float policy, the others equal (nan to nan)."""
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    got, want = got[finite], want[finite]
    scale = 1 + np.maximum(np.abs(got), np.abs(want))
    assert np.all(np.abs(got - want) <= FLOAT_TOLERANCE * scale)


def long_input(kind, n):
    """n + 2 float values; the non-finite one sits inside an FFT block."""
    rng = np.random.default_rng(n)
    if kind == "exp":  # grows by e^50, so earlier rows are far smaller
        return np.exp(50 * np.arange(n + 2) / n)
    x = rng.uniform(-1 if kind == "signed" else 0, 1, n + 2)
    if kind in ("inf", "nan"):
        x[n - 1 - (n - 512) // 3] = float(kind)
    return x


class TestLongHorizonFloat:
    """Float convolutions past the FFT crossover (512 points) against
    direct sums."""

    def test_short_inputs_bit_identical_to_np_convolve(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 100, 512):
            x = rng.uniform(-1, 1, n)
            w = weights(1.5, n - 1)
            assert operators._left_conv(tuple(x), w) == \
                tuple(np.convolve(x, w)[:n])

    # non-finite inputs stay on np.convolve, so 4097 points show enough
    @pytest.mark.parametrize("n,kind", [
        (n, kind) for n in (513, 1024, 4097, 20000)
        for kind in ("unit", "signed", "exp", "inf", "nan")
        if n < 20000 or kind not in ("inf", "nan")])
    def test_every_row_matches_np_convolve(self, n, kind):
        x = long_input(kind, n)
        for beta in LONG_ORDERS:
            w = weights(beta, n - 1)
            direct = np.convolve(x[:n], w)[:n]
            assert_float_policy(operators._left_conv(tuple(x[:n]), w),
                                direct)
            assert_float_policy(operators._right_conv(tuple(x[n - 1::-1]), w),
                                direct[::-1])
            if beta < 0 or kind != "unit":
                continue
            # both operators convolve exactly n points with w_k(m - beta)
            alpha = FracOrder(beta)
            m = alpha.n
            w = weights(m - beta, n - 1)
            riemann = nabla_left_riemann(GridFn(1, tuple(x[:n])), alpha, 0)
            inner = np.concatenate([np.zeros(m), np.convolve(x[:n], w)[:n]])
            assert (riemann.lo, len(riemann)) == (1, n)
            assert_float_policy(riemann.values, np.diff(inner, m))
            caputo = caputo_left(GridFn(0, tuple(x[:n + m])), alpha, 0)
            assert (caputo.lo, len(caputo)) == (m, n)
            assert_float_policy(caputo.values,
                                np.convolve(np.diff(x[:n + m], m), w)[:n])

    def test_rows_at_1e5_match_dot_products(self):
        n = 100_000
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, n)
        rows = [*range(64), n - 1, *rng.integers(0, n, 200)]
        for beta in LONG_ORDERS:
            w = np.array(weights(beta, n - 1))
            left = operators._left_conv(tuple(x), w)
            right = operators._right_conv(tuple(x), w)
            assert_float_policy([left[m] for m in rows],
                                [np.dot(w[:m + 1], x[m::-1]) for m in rows])
            assert_float_policy([right[i] for i in rows],
                                [np.dot(w[:n - i], x[i:]) for i in rows])
