"""Fractional sum and difference operators.

Nabla operators follow the left/right fractional sum kernels
w_k(alpha) = Gamma(k + alpha)/(Gamma(alpha) k!).  A Riemann difference, the
integer difference of the complementary-order sum, is one convolution with
w(-alpha), equal to that composition; Caputo differences are
complementary-order sums of integer differences.  Delta operators live on
grids shifted by +-alpha and are tied to the nabla ones by exact dual
identities.

Empty-sum convention: a left sum is 0 at its anchor a; mirrored for right
sums at b.  Apart from the truncated right sums (truncate=True), this is the
only place a value outside a function's domain is read as zero.

Every operator reduces to one causal convolution with the weights.  Float
convolutions longer than _DIRECT_MAX_LEN = 512 points take blocked FFTs in
which each row's rounding depends only on the inputs it sums (crossover and
error bound in the comment at _DIRECT_MAX_LEN); shorter ones take the direct
sum.  Exact convolutions and integer differences run on Python integers over
a common denominator and build one rational per output.
"""
from __future__ import annotations

from operator import mul

import numpy as np

from .backend import _integers, is_exact, rational
from .grid import DomainError, GridFn, _offset
from .numerics import (_DIRECT_MAX_LEN, _order, minus_delta_n, nabla_n,
                       weights)

__all__ = [
    "nabla_left_sum", "nabla_right_sum",
    "nabla_left_sum_fn", "nabla_right_sum_fn",
    "nabla_left_riemann", "nabla_right_riemann",
    "caputo_left", "caputo_right",
    "delta_left_sum", "delta_right_sum",
    "delta_left_riemann", "delta_right_riemann",
    "operator_matrix",
]


# _DIRECT_MAX_LEN = 512, defined in numerics, is the longest float convolution
# computed directly by np.convolve, O(n^2), and the block length of the fast
# path past it.  Per-call time by length on a 2-core Xeon (numpy 2.4, best
# of 7 repeats), np.convolve against _float_left_conv:
#     n=1024: 130 / 123 us;  n=4096: 2.6 / 0.59 ms;  n=5e4: 437 / 13 ms
# so the two break even near 1024 and a limit between 512 and 1024 costs
# nothing; at 512 every convolution of up to 512 points keeps np.convolve's
# bits.  numerics splits the float weights at the same index: w_0..w_512
# come from the scalar recurrence whatever K is, so such a convolution reads
# the same weight bits too.
#
# The fast path is the online convolution of Hairer, Lubich & Schlichte (SIAM
# J. Sci. Stat. Comput. 6, 1985), run on an input known up front.  The rows,
# zero-padded to 512 times a power of two, form a tree of nodes [lo, lo +
# size) that split at mid = lo + size/2; the history x[lo:mid] reaches rows
# [mid, lo + size) through one FFT product of length size, and the leaves are
# the blocks of 512, summed by np.convolve.  The nodes of one size make a
# level: its histories, one row each of a (nodes x size) array, take one
# batched rfft, one product with rfft(w[:size]) and one irfft.  Levels run
# largest first and the leaves last, so every row receives its additions in
# the order of the recursive form (left half, history, right half) and
# keeps its bits; tests/test_operators.py holds that form.  A history
# product adds about eps log(size) |x[lo:mid]|_2 |w[:size]|_2 to each row it
# feeds, and a row is fed by at most one node per level, so a row's error
# depends only on the inputs it sums; it can exceed the direct sum's
# eps sum_k |w_k x_{m-k}| where a row cancels far below the inputs that feed
# it.  Riemann differences convolve with w(-alpha), which has negative
# entries.  Largest error of nabla_left_riemann over all rows, as a
# multiple of the float policy bound, against a long-double direct sum at
# N = 2e4, t = k/N for k = 0..N-1:
#     uniform(0, 1), alpha 0.02: 4.0e-6      ones, alpha 1.5: 1.5e-6
#     exp(50 t), alpha 1.5: 5.0e-3           1e10 exp(-50 t), alpha 0.02: 0.04
#     1e10 exp(-50 t), alpha 1.98: 2.6e3 (fails the policy)
# (differencing the complementary-order sum instead gave 5.4e-3, 1.7e-4,
# 0.21, 39 and 3.3e3).  One FFT over the whole input would add
# eps |x|_2 |w|_2 to every row, which breaks the float policy on the early
# rows of 1e5 points.
# Non-finite inputs stay on np.convolve, where an inf reaches only the rows
# after it rather than a whole FFT block.


def _float_left_conv(x, w):
    """np.convolve(x, w)[:n], by blocked FFTs past _DIRECT_MAX_LEN."""
    n = len(x)
    if (n <= _DIRECT_MAX_LEN or not np.isfinite(x).all()
            or not np.isfinite(w[:n]).all()):
        return np.convolve(x, w)[:n]
    size = _DIRECT_MAX_LEN << ((n - 1) // _DIRECT_MAX_LEN).bit_length()
    xs, out = np.zeros(size), np.zeros(size)   # zero-padded to the top node
    xs[:n] = x
    while size > _DIRECT_MAX_LEN:
        # nodes [lo, lo + size) with lo = j size and lo + half < n, one row
        # each: the history x[lo:lo + half] reaches rows [lo + half, lo +
        # size), where a cyclic product of length size does not wrap
        half = size // 2
        nodes = (n - half + size - 1) // size
        rows = xs[:nodes * size].reshape(nodes, size)
        hist = np.fft.irfft(np.fft.rfft(rows[:, :half], size)
                            * np.fft.rfft(w[:size], size), size)
        out[:nodes * size].reshape(nodes, size)[:, half:] += hist[:, half:]
        size = half
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        out[lo:hi] += np.convolve(x[lo:hi], w[:hi - lo])[:hi - lo]
    return out[:n]


def _left_conv(values, w):
    """out[m] = sum_{k=0}^{m} w[k] values[m-k].

    Float values are convolved with the float64 array that `weights`
    returns for a float order, or with any other w (such as the weights of
    an exact order) converted to float64.  Exact values need w from
    `weights`: with w[k] = W_k / D and values scaled to integers X_i over
    their common denominator L, row m is the rational
    (sum_k W_k X_{m-k}) / (D L).
    """
    if not is_exact(values[0]):
        return _float_conv(values, w, 1)
    x, L = _integers(values)
    x.reverse()
    W, DL = w.numerators, w.denominator * L
    n = len(x)
    # x[n-1-m:] lists values[m], ..., values[0], and map stops at its end
    return tuple(rational(sum(map(mul, W, x[n - 1 - m:])), DL)
                 for m in range(n))


def _right_conv(values, w):
    """out[i] = sum_{j=i}^{end} w[j-i] values[j]."""
    if not is_exact(values[0]):
        return _float_conv(values, w, -1)
    return tuple(reversed(_left_conv(tuple(reversed(values)), w)))


def _float_conv(values, w, step):
    """_left_conv of float values read forwards (step 1), or _right_conv
    through a reversed view (step -1); w is converted to float64."""
    x = np.asarray(values)[::step]
    return tuple(_float_left_conv(x, np.asarray(w, dtype=float))[::step]
                 .tolist())


# -- fractional sums ---------------------------------------------------------

def _left_body(f: GridFn, beta, a) -> tuple:
    """Values of sum_{s=a+1}^{t} w_{t-s}(beta) f(s) for t in [a+1, f.hi]."""
    if _offset(f.lo, a) > 1:
        raise DomainError(f"left sum anchored at {a} needs f from {a + 1}, "
                          f"f starts at {f.lo}")
    body = f.restrict(a + 1, f.hi)
    return _left_conv(body.values, weights(beta, len(body) - 1))


def _right_body(f: GridFn, beta, b, truncate: bool = False) -> tuple:
    """Values of sum_{s=t}^{b-1} w_{s-t}(beta) f(s) for t from f.lo up to
    b - 1, or up to f.hi with truncate=True when f ends before b - 1."""
    nb = _offset(b, f.lo)
    if nb > len(f) and not truncate:
        raise DomainError(f"right sum anchored at {b} needs f up to {b - 1}, "
                          f"f ends at {f.hi}")
    if nb < 1:
        raise DomainError(f"right sum anchored at {b} starts past f's domain")
    m = min(nb, len(f))       # b is point nb of f; the sum reads f[:m]
    return _right_conv(f.values[:m], weights(beta, m - 1))


def nabla_left_sum_fn(f: GridFn, beta, a) -> GridFn:
    """t -> (nabla_a^{-beta} f)(t) on [a, f.hi], with value 0 at a."""
    vals = _left_body(f, _order(beta).alpha, a)
    return GridFn(a, (vals[0] * 0,) + vals)


def nabla_right_sum_fn(f: GridFn, beta, b, truncate: bool = False) -> GridFn:
    """t -> (_b nabla^{-beta} f)(t) on [f.lo, b], with value 0 at b.

    With truncate=True, f may end before b - 1 and the missing tail of the
    sum is treated as zero (the boundary-free reading used by the
    Riemann-Caputo by-parts chain and the variational assembly).
    """
    vals = _right_body(f, _order(beta).alpha, b, truncate)
    zeros = _offset(b, f.lo) - len(vals) + 1
    return GridFn(f.lo, vals + (vals[0] * 0,) * zeros)


def nabla_left_sum(f: GridFn, alpha, a, t):
    """(nabla_a^{-alpha} f)(t) = sum_{k} w_k(alpha) f(t - k); 0 at t = a."""
    k = _offset(t, a)
    if k < 0:
        raise DomainError(f"left sum undefined at {t} < anchor {a}")
    if k == 0:
        return f.values[0] * 0
    return nabla_left_sum_fn(f.restrict(a + 1, t), alpha, a)(t)


def nabla_right_sum(f: GridFn, alpha, b, t):
    """(_b nabla^{-alpha} f)(t) = sum_{s=t}^{b-1} w_{s-t}(alpha) f(s); 0 at t = b."""
    k = _offset(b, t)
    if k < 0:
        raise DomainError(f"right sum undefined at {t} > anchor {b}")
    if k == 0:
        return f.values[0] * 0
    return nabla_right_sum_fn(f.restrict(t, b - 1), alpha, b)(t)


# -- Riemann fractional differences ------------------------------------------
#
# nabla^n has the weights w(-n), and w(-n) * w(n - alpha) = w(-alpha) (the
# Chu-Vandermonde identity), so nabla^n of the zero-extended complementary
# sum is one convolution with w(-alpha); likewise (-1)^n Delta^n of the right
# sum.

def nabla_left_riemann(f: GridFn, alpha, a) -> GridFn:
    """(nabla_a^alpha f) = nabla^n nabla_a^{-(n-alpha)} f on [a+1, f.hi]."""
    return GridFn(a + 1, _left_body(f, -_order(alpha).alpha, a))


def nabla_right_riemann(f: GridFn, alpha, b) -> GridFn:
    """(_b nabla^alpha f) = (-1)^n Delta^n _b nabla^{-(n-alpha)} f on
    [f.lo, b-1]."""
    return GridFn(f.lo, _right_body(f, -_order(alpha).alpha, b))


# -- Caputo fractional differences -------------------------------------------

def caputo_left(f: GridFn, alpha, a) -> GridFn:
    """Left Caputo difference starting from a, on [a+n, f.hi]:
    nabla_{a+n-1}^{-(n-alpha)} nabla^n f."""
    alpha = _order(alpha)
    alpha.require_noninteger("left Caputo difference")
    n = alpha.n
    if _offset(f.lo, a) > 0:
        raise DomainError(f"left Caputo from {a} needs f({a}); f starts at {f.lo}")
    d = nabla_n(f.restrict(a, f.hi), n)
    out = nabla_left_sum_fn(d, n - alpha.alpha, a + n - 1)
    return out.restrict(a + n, out.hi)


def caputo_right(f: GridFn, alpha, b, truncate: bool = False) -> GridFn:
    """Right Caputo difference ending at b, on [f.lo, b-n]:
    _{b-n+1}nabla^{-(n-alpha)} (-1)^n Delta^n f.

    truncate=True admits f ending before b and drops the unreachable tail of
    the inner sum (see nabla_right_sum_fn).
    """
    alpha = _order(alpha)
    alpha.require_noninteger("right Caputo difference")
    n = alpha.n
    if _offset(b, f.hi) > 0 and not truncate:
        raise DomainError(f"right Caputo ending at {b} needs f({b}); "
                          f"f ends at {f.hi}")
    d = minus_delta_n(f, n)
    out = nabla_right_sum_fn(d, n - alpha.alpha, b - n + 1, truncate=truncate)
    return out.restrict(out.lo, b - n)


# -- delta operators on shifted grids ----------------------------------------

def delta_left_sum(f: GridFn, alpha, a) -> GridFn:
    """s+alpha -> (Delta_{a+1}^{-alpha} f)(s+alpha), anchored at a+1+alpha:
    (Delta_c^{-alpha} f)(c+alpha+m) = sum_{k<=m} w_k(alpha) f(c+m-k), c = a+1."""
    av = _order(alpha).alpha
    return GridFn(a + 1 + av, _left_body(f, av, a))


def delta_right_sum(g: GridFn, alpha, b) -> GridFn:
    """s-alpha -> (_{b-1}Delta^{-alpha} g)(s-alpha), equal to
    (_b nabla^{-alpha} g)(s) under the dual shift."""
    av = _order(alpha).alpha
    return GridFn(g.lo - av, _right_body(g, av, b))


def delta_left_riemann(g: GridFn, alpha, a) -> GridFn:
    """s-alpha -> (Delta_{a+1}^alpha g)(s-alpha): Delta^n of the complementary
    delta left sum; equals (nabla_a^alpha g)(s) under the dual shift."""
    alpha = _order(alpha)
    alpha.require_noninteger("delta left Riemann difference")
    av = alpha.alpha
    return GridFn(a + 1 - av, _left_body(g, -av, a))


def delta_right_riemann(f: GridFn, alpha, b) -> GridFn:
    """s+alpha -> (_{b-1}Delta^alpha f)(s+alpha), defined through the dual
    identity: its value there is (_b nabla^alpha f)(s)."""
    alpha = _order(alpha)
    alpha.require_noninteger("delta right Riemann difference")
    r = nabla_right_riemann(f, alpha, b)
    return GridFn(r.lo + alpha.alpha, r.values)


# -- dense matrix form -------------------------------------------------------

def operator_matrix(op, in_lo, in_hi, one, zero):
    """Matrix of a linear GridFn operator, built column by column from basis
    functions on [in_lo, in_hi].  Returns (out_lo, rows) where rows[i][j] is
    the coefficient of input point in_lo + j in output point out_lo + i."""
    m = _offset(in_hi, in_lo) + 1
    cols = []
    out_lo = out_len = None
    for j in range(m):
        e = GridFn(in_lo, tuple(one if k == j else zero for k in range(m)))
        r = op(e)
        if out_lo is None:
            out_lo, out_len = r.lo, len(r)
        cols.append(r.values)
    rows = [tuple(cols[j][i] for j in range(m)) for i in range(out_len)]
    return out_lo, rows
