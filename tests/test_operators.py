import decimal
import random
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import numerics, operators
from nablafrac.backend import format_scalar, rational
from nablafrac.cli import _OPERATORS
from nablafrac.grid import DomainError, GridFn, write_gridfn_csv
from nablafrac.identities import FLOAT_TOLERANCE
from nablafrac.numerics import FracOrder, minus_delta_n, nabla_n, weights
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


def zero_pad(f, left, right):
    """f extended by `left` zeros before it and `right` zeros after it."""
    zero = f.values[0] * 0
    return GridFn(f.lo - left, (zero,) * left + f.values + (zero,) * right)


# The Riemann differences as defined: an integer difference of the
# zero-extended complementary-order sum.  The operators compute each as one
# convolution with w(-alpha) and must agree with these.

def composed_left_riemann(f, alpha, a):
    n = alpha.n
    inner = nabla_left_sum_fn(f, n - alpha.alpha, a)
    return nabla_n(zero_pad(inner, n - 1, 0), n)


def composed_right_riemann(f, alpha, b):
    n = alpha.n
    inner = nabla_right_sum_fn(f, n - alpha.alpha, b)
    return minus_delta_n(zero_pad(inner, 0, n - 1), n)


def composed_delta_left_riemann(g, alpha, a):
    n, av = alpha.n, alpha.alpha
    inner = delta_left_sum(g, n - av, a)
    return GridFn(a + 1 - av, nabla_n(zero_pad(inner, n, 0), n).values)


COMPOSED = [(nabla_left_riemann, composed_left_riemann, "a"),
            (nabla_right_riemann, composed_right_riemann, "b"),
            (delta_left_riemann, composed_delta_left_riemann, "a")]


class TestRiemannIsOneConvolution:
    @pytest.mark.parametrize("alpha_text",
                             ["1/3", "1/2", "5/4", "3/2", "5/2", "7/3"])
    @pytest.mark.parametrize("a_text", ["0", "1/3", "-7/2"])
    def test_equals_composition_exactly(self, alpha_text, a_text):
        alpha, a = FracOrder(rat(alpha_text)), rat(a_text)
        rng = random.Random(f"{alpha_text}:{a_text}")
        for length in range(1, 41):
            f = GridFn(a + 1, tuple(rational(rng.randint(-9, 9),
                                             rng.randint(1, 6))
                                    for _ in range(length)))
            b = f.hi + 1
            for op, composed, side in COMPOSED:
                anchor = a if side == "a" else b
                assert op(f, alpha, anchor) == composed(f, alpha, anchor)


class TestCaputo:
    def test_constant_annihilated(self):
        c = GridFn(0, (rat("7/3"),) * 6)
        out = caputo_left(c, rat("1/2"), 0)
        assert all(v == 0 for v in out.values)
        out = caputo_right(c, rat("1/2"), 5)
        assert all(v == 0 for v in out.values)

    def test_ramp_value(self):
        # Caputo order 1/2 from 0 of f(t) = t at t = 2 is 3/2
        ramp = GridFn(0, tuple(rational(t) for t in range(5)))
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


MIXED_DENOMINATORS = tuple(rat(t) for t in (
    "3", "-1/6", "5/4", "0", "7/9", "-13/10", "2/3", "1/8", "-4"))


class TestExactKernel:
    """Exact convolutions run on integer numerators over a common
    denominator; every row must be the canonical rational of the direct
    double sum."""

    @pytest.mark.parametrize("beta", ["1/2", "2/7", "3/2", "-1/2"])
    @pytest.mark.parametrize("values", [
        MIXED_DENOMINATORS, MIXED_DENOMINATORS[4:5],
        tuple(rat(v) for v in (2, -9, 0, 5, 1, 7))])
    def test_matches_fraction_double_sum(self, beta, values, monkeypatch):
        monkeypatch.setattr(numerics, "_weight_cache", {})
        n = len(values)
        weights(rat(beta), 0)
        # grow the cached list past an integer form already built, then
        # reuse a prefix of the longer list
        for K in (n - 1, n + 11, n - 1):
            w = weights(rat(beta), K)
            assert tuple(rational(W, w.denominator)
                         for W in w.numerators[:K + 1]) == w
            left = tuple(sum(w[k] * values[m - k] for k in range(m + 1))
                         for m in range(n))
            right = tuple(sum(w[j - i] * values[j] for j in range(i, n))
                          for i in range(n))
            for got, want in ((operators._left_conv(values, w), left),
                              (operators._right_conv(values, w), right)):
                assert list(map(format_scalar, got)) == \
                    list(map(format_scalar, want))
                assert {type(v) for v in got} == {type(rat("1"))}


def fraction_weight(beta, k):
    """w_k(beta) = prod_{j=1}^{k} (j + beta - 1)/j, without `weights`."""
    w = Fraction(1)
    for j in range(1, k + 1):
        w *= (j + beta - 1) / j
    return w


def direct_operator(name, f, alpha, a, b):
    """(points, values) of one of the ten operators on f over [a, b], each
    value a double sum of Fractions over the operator's definition."""
    av, n = alpha.alpha, alpha.n
    idx = range(len(f))                  # f(a + i) is f.values[i]

    def left(x, beta, first, i):         # sum_{s=first}^{i} w_{i-s} x(s)
        return sum((fraction_weight(beta, i - s) * x(s)
                    for s in range(first, i + 1)), Fraction(0))

    def right(x, beta, last, i):         # sum_{s=i}^{last} w_{s-i} x(s)
        return sum((fraction_weight(beta, s - i) * x(s)
                    for s in range(i, last + 1)), Fraction(0))

    def fv(i):
        return f.values[i]

    def backward(s):                     # (nabla^n f)(a + s)
        return sum(comb(n, j) * (-1) ** j * fv(s - j) for j in range(n + 1))

    def forward(s):                      # ((-1)^n Delta^n f)(a + s)
        return sum(comb(n, j) * (-1) ** j * fv(s + j) for j in range(n + 1))

    N = len(f) - 1
    table = {
        "nabla-left-sum": (0, [left(fv, av, 1, i) for i in idx]),
        "nabla-right-sum": (0, [right(fv, av, N - 1, i) for i in idx]),
        "nabla-left-riemann": (1, [left(fv, -av, 1, i) for i in idx[1:]]),
        "nabla-right-riemann": (0, [right(fv, -av, N - 1, i)
                                    for i in idx[:-1]]),
        "caputo-left": (n, [left(backward, n - av, n, i) for i in idx[n:]]),
        "caputo-right": (0, [right(forward, n - av, N - n, i)
                             for i in idx[:-n]]),
        "delta-left-sum": (1 + av, [left(fv, av, 1, i) for i in idx[1:]]),
        "delta-right-sum": (-av, [right(fv, av, N - 1, i)
                                  for i in idx[:-1]]),
        "delta-left-riemann": (1 - av, [left(fv, -av, 1, i)
                                        for i in idx[1:]]),
        "delta-right-riemann": (av, [right(fv, -av, N - 1, i)
                                     for i in idx[:-1]]),
    }
    shift, values = table[name]
    return a + shift, values


class TestExactOutputs:
    """Every exact operator output is a plain tuple of reduced Fractions,
    equal to the operator's definition summed in Fractions, and writes the
    CSV bytes of those Fractions."""

    @pytest.mark.parametrize("name", sorted(_OPERATORS))
    @pytest.mark.parametrize("alpha_text", ["1/3", "1/2", "3/2", "5/2"])
    @pytest.mark.parametrize("a_text", ["0", "1/3", "-2/3"])
    @pytest.mark.parametrize("integer_values", [True, False])
    def test_plain_fractions_equal_direct_sums(self, tmp_path, name,
                                               alpha_text, a_text,
                                               integer_values):
        rng = random.Random(f"{name}:{alpha_text}:{a_text}")
        alpha, a = FracOrder(rat(alpha_text)), rat(a_text)
        b = a + 9
        f = GridFn(a, tuple(
            rational(rng.randint(-9, 9),
                     1 if integer_values else rng.randint(1, 6))
            for _ in range(10)))
        op, side = _OPERATORS[name]
        out = op(f, alpha, a if side == "a" else b)
        lo, values = direct_operator(name, f, alpha, a, b)
        assert type(out.values) is tuple
        assert all(type(v) is Fraction and v.denominator > 0
                   and gcd(v.numerator, v.denominator) == 1
                   for v in out.values)
        assert out.lo == lo and out.values == tuple(values)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_gridfn_csv(out, got)
        write_gridfn_csv(GridFn(lo, tuple(values)), want)
        assert got.read_bytes() == want.read_bytes()


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


def recursive_left_conv(x, w):
    """The online FFT convolution written as one recursion over the nodes
    [lo, lo + size): the left half, then the history x[lo:mid] through one
    FFT product, then the right half.  Each row receives the same additions
    in the same order as in `_float_left_conv`'s level loop, so the two
    agree bit for bit."""
    n = len(x)
    out = np.zeros(n)
    w_hats = {}

    def add_rows(lo, size):
        hi = min(lo + size, n)
        if size == numerics._DIRECT_MAX_LEN:
            out[lo:hi] += np.convolve(x[lo:hi], w[:hi - lo])[:hi - lo]
            return
        half = size // 2
        mid = lo + half
        add_rows(lo, half)
        if mid >= n:
            return
        if size not in w_hats:
            w_hats[size] = np.fft.rfft(w[:size], size)
        hist = np.fft.irfft(np.fft.rfft(x[lo:mid], size) * w_hats[size], size)
        out[mid:hi] += hist[half:hi - lo]
        add_rows(mid, half)

    add_rows(0, numerics._DIRECT_MAX_LEN
             << ((n - 1) // numerics._DIRECT_MAX_LEN).bit_length())
    return out


class TestFftBits:
    """The blocked FFT path keeps the bits of its recursive form, on both
    sides of every power-of-two node size."""

    @pytest.mark.parametrize("n", [513, 1000, 1024, 1025, 4097, 20000, 50000])
    @pytest.mark.parametrize("kind", ["unit", "signed", "exp"])
    def test_matches_recursive_form(self, n, kind):
        x = long_input(kind, n)[:n]
        for beta in LONG_ORDERS:
            w = weights(beta, n - 1)
            left = operators._left_conv(tuple(x.tolist()), w)
            right = operators._right_conv(tuple(x[::-1].tolist()), w)
            want = recursive_left_conv(x, w)
            assert np.array_equal(left, want)
            assert np.array_equal(right, want[::-1])

    @pytest.mark.parametrize("n", [513, 1025, 4097])
    @pytest.mark.parametrize("kind", ["inf", "nan"])
    def test_non_finite_inputs_take_np_convolve(self, n, kind, monkeypatch):
        x = long_input(kind, n)[:n]

        def no_fft(*args, **kwargs):
            raise AssertionError("a non-finite input reached the FFT path")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        for beta in LONG_ORDERS:
            w = weights(beta, n - 1)
            want = np.convolve(x, w)[:n]
            left = operators._left_conv(tuple(x.tolist()), w)
            right = operators._right_conv(tuple(x[::-1].tolist()), w)
            assert np.array_equal(left, want, equal_nan=True)
            assert np.array_equal(right, want[::-1], equal_nan=True)


class TestFloatOutputsArePythonFloats:
    """Float operators hand back Python floats, not numpy scalars, on the
    direct convolution path (n <= 512) and the FFT path (n > 512)."""

    OPS = [nabla_left_sum_fn, nabla_right_sum_fn, nabla_left_riemann,
           nabla_right_riemann, caputo_left, caputo_right, delta_left_sum,
           delta_right_sum, delta_left_riemann, delta_right_riemann]
    LEFT = (nabla_left_sum_fn, nabla_left_riemann, caputo_left,
            delta_left_sum, delta_left_riemann)

    @pytest.mark.parametrize("n", [100, 2000])
    @pytest.mark.parametrize("alpha", [0.4, 1.4])
    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_values_are_python_floats(self, op, alpha, n):
        rng = np.random.default_rng(n)
        f = GridFn(0.0, tuple(rng.uniform(-1, 1, n).tolist()))
        if op in self.LEFT:
            anchor = f.lo
        else:
            anchor = f.hi if op is caputo_right else f.hi + 1
        out = op(f, FracOrder(alpha), anchor)
        assert len(out) >= n - 2
        assert all(type(v) is float for v in out.values)


class TestRiemannFloat:
    """Float Riemann differences convolve with w(-alpha) directly rather
    than differencing the complementary sum."""

    @pytest.mark.parametrize("n", [513, 4097])
    @pytest.mark.parametrize("a", [0.0, 0.1])
    @pytest.mark.parametrize("alpha", [0.02, 0.5, 1.5, 1.98, 2.5])
    def test_within_policy_of_composition(self, alpha, a, n):
        rng = np.random.default_rng(n)
        f = GridFn(a + 1, tuple(rng.uniform(-1, 1, n).tolist()))
        alpha = FracOrder(alpha)
        for op, composed, side in COMPOSED:
            anchor = a if side == "a" else f.hi + 1
            got, want = op(f, alpha, anchor), composed(f, alpha, anchor)
            assert len(got) == len(want) == n
            assert got.lo - want.lo == pytest.approx(0, abs=1e-12)
            assert_float_policy(got.values, want.values)

    def test_long_horizon_decaying_input(self):
        # 1e10 exp(-50 k / N): the output changes sign near row 2137, where
        # it is far below the early inputs every row sums.  Differencing the
        # complementary sum, of size ~1e12, misses the policy there by ~39x.
        N, alpha = 20_000, 0.02
        x = 1e10 * np.exp(-50 * np.arange(N) / N)
        got = nabla_left_riemann(GridFn(1, tuple(x.tolist())),
                                 FracOrder(alpha), 0).values
        rows = [*range(0, N, N // 64), *range(2100, 2180), N - 1]
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            beta = -decimal.Decimal(alpha)
            w = [decimal.Decimal(1)]
            for k in range(1, N):
                w.append(w[-1] * (k + beta - 1) / k)
            xd = [decimal.Decimal(v) for v in x.tolist()]
            want = [float(sum(w[k] * xd[m - k] for k in range(m + 1)))
                    for m in rows]
        assert_float_policy([got[m] for m in rows], want)


class TestExactOrderOnFloatValues:
    """Float values with an exact or integer order convolve with its exact
    weights rounded to float64, on both sides of the FFT crossover; they
    agree with the float order within the float policy."""

    @pytest.mark.parametrize("n", [513, 4097])
    @pytest.mark.parametrize("order", [1, rat("1/2")], ids=str)
    @pytest.mark.parametrize("op", [nabla_left_sum_fn, nabla_left_riemann,
                                    nabla_right_sum_fn, nabla_right_riemann],
                             ids=lambda op: op.__name__)
    def test_matches_float_order(self, op, order, n):
        rng = np.random.default_rng(n)
        f = GridFn(0.0, tuple(rng.uniform(-1, 1, n).tolist()))
        anchor = -1.0 if "left" in op.__name__ else f.hi + 1
        got, want = op(f, order, anchor), op(f, float(order), anchor)
        assert (got.lo, len(got)) == (want.lo, len(want))
        assert all(type(v) is float for v in got.values)
        assert_float_policy(got.values, want.values)
