"""Scalar kernels: rising/falling factorials, convolution weights for
fractional sums, and integer nabla/delta difference operators.

Hot paths never evaluate Gamma directly; every kernel reduces to the weight
recurrence w_0 = 1, w_k = w_{k-1} (k + beta - 1)/k, which stays exact for
rational beta and avoids overflow for float beta (past w_512, as one running
product of the ratios (k + beta - 1)/k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import _integers, floor, is_exact, is_integral, rational
from .grid import DomainError, GridFn

__all__ = ["FracOrder", "rising_factorial", "falling_factorial", "weights",
           "nabla_n", "minus_delta_n"]


@dataclass(frozen=True)
class FracOrder:
    """A fractional order alpha > 0 with n = [alpha] + 1."""

    alpha: object

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError(f"order must be positive, got {self.alpha}")

    @classmethod
    def parse(cls, text: str, exact: bool) -> "FracOrder":
        r = rational(text)
        return cls(r if exact else float(r))

    @property
    def n(self) -> int:
        return floor(self.alpha) + 1

    @property
    def is_integer(self) -> bool:
        return is_integral(self.alpha)

    def require_noninteger(self, what: str) -> None:
        if self.is_integer:
            raise DomainError(f"{what} requires a non-integer order, "
                              f"got {self.alpha}")

    def require_unit_interval(self, what: str) -> None:
        if not self.alpha < 1:                 # alpha > 0 always holds
            raise DomainError(f"{what} requires 0 < alpha < 1")


def _order(alpha) -> FracOrder:
    return alpha if isinstance(alpha, FracOrder) else FracOrder(alpha)


def _order_value(alpha):
    return alpha.alpha if isinstance(alpha, FracOrder) else alpha


def rising_factorial(t, alpha):
    """t^{rising alpha} = Gamma(t + alpha)/Gamma(t).

    Nonnegative-integer orders use the product form (valid for every t);
    otherwise the conventions 0^{rising alpha} = 0 and t^{rising 0} = 1 apply
    and the Gamma ratio is evaluated in floating point.
    """
    a = _order_value(alpha)
    if a < 0:
        raise DomainError(f"rising factorial needs a nonnegative order, got {a}")
    if is_integral(a):
        m = int(a)
        out = t * 0 + 1
        for k in range(m):
            out = out * (t + k)
        return out
    if t == 0:
        return t * 0
    try:
        return math.gamma(float(t + a)) / math.gamma(float(t))
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"Gamma pole in {t}^(rising {a})") from exc


def falling_factorial(t, alpha):
    """t^{falling alpha} = Gamma(t + 1)/Gamma(t + 1 - alpha)."""
    a = _order_value(alpha)
    if is_integral(a) and a >= 0:
        m = int(a)
        out = t * 0 + 1
        for k in range(m):
            out = out * (t - k)
        return out
    try:
        return math.gamma(float(t + 1)) / math.gamma(float(t + 1 - a))
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"Gamma pole in {t}^(falling {a})") from exc


# Longest float convolution computed directly, and the last index of a float
# order's weights built by the scalar recurrence w_{k-1} (k + beta - 1)/k;
# later weights are one sequential product of the ratios (k + beta - 1)/k
# (worst error at K = 5e4, against a long-double recurrence: 8.6e-13, and
# 8.7e-13 for the recurrence alone).  Splitting the weights where the
# convolutions switch to FFTs keeps every float computation of at most
# _DIRECT_MAX_LEN + 1 points on the recurrence's bits, whatever K the cache
# has grown to.  operators imports it; its comment there holds the
# crossover and error measurements of the FFT path.
_DIRECT_MAX_LEN = 512

# Weights of the most recently used orders, oldest first.  One verify
# lattice block uses 7 distinct orders and a solve a few; a float run that
# draws a fresh order per request would otherwise keep every array it built.
# A float order's entry is one read-only float64 array (head from the
# recurrence, tail from the sequential product; see _DIRECT_MAX_LEN),
# replaced by a longer one when it grows: 8 B a weight where a Python float
# costs 32 B, at up to 8 orders of 5e4 weights.  A rational order's entry is
# its Fraction list, the integer form the convolutions read (see
# _ExactWeights), rebuilt only when the list grows, and the last tuple it
# returned, so repeated calls for one K (one per operator call on
# same-length inputs) share it instead of copying w[:K + 1].
_WEIGHT_CACHE_ORDERS = 8
_weight_cache: dict = {}


class _ExactWeights(tuple):
    """w_0..w_K of a rational order, carrying their integer form:
    w_k = numerators[k] / denominator, with denominator the lcm of the
    reduced denominators.  numerators may run past K (a prefix of a longer
    cached list); its first K + 1 entries are the ones that match."""

    def __new__(cls, w, numerators, denominator):
        self = super().__new__(cls, w)
        self.numerators = numerators
        self.denominator = denominator
        return self


def _cache_entry(key, new):
    """The cached entry of key, or new() when there is none, moved to the
    most recent end; evicts the oldest order when a new one enters a full
    cache."""
    entry = _weight_cache.pop(key, None)
    if entry is None:
        entry = new()
        if len(_weight_cache) >= _WEIGHT_CACHE_ORDERS:
            del _weight_cache[next(iter(_weight_cache))]
    _weight_cache[key] = entry
    return entry


def _grow_float_weights(w, beta: float, K: int):
    """The float weights w of beta (w_0 onwards, possibly none) extended to
    w_0..w_K, as a new read-only array.

    Up to index _DIRECT_MAX_LEN each weight is the scalar recurrence
    w_{k-1} (k + beta - 1) / k; past it, the running product of the ratios
    (k + beta - 1) / k from the last weight on, taken in order by one
    np.cumprod.  Every weight is its predecessor times a ratio that depends
    on k alone, so an array keeps its bits however it was grown.
    """
    n = len(w)
    if n <= _DIRECT_MAX_LEN:
        head = w.tolist() or [beta * 0 + 1]
        for k in range(len(head), min(K, _DIRECT_MAX_LEN) + 1):
            head.append(head[k - 1] * (k + beta - 1) / k)
        w, n = np.array(head), len(head)
    if K >= n:
        ks = np.arange(n, K + 1, dtype=float)
        ratios = np.concatenate(([w[-1]], (ks + beta - 1) / ks))
        w = np.concatenate((w, np.cumprod(ratios)[1:]))
    w.flags.writeable = False
    return w


def weights(beta, K: int):
    """w_0..w_K with w_k = Gamma(k + beta)/(Gamma(beta) k!).

    For a rational beta, an _ExactWeights: the exact recurrence
    w_k = w_{k-1} (k + beta - 1)/k, carrying the integer form.  For a float
    beta, a read-only float64 array, a view of the first K + 1 entries of
    the order's cached array: w_0..w_512 (_DIRECT_MAX_LEN) from that
    recurrence in floats, so their bits never depend on K, and the tail
    from one sequential product of the ratios (k + beta - 1)/k, whose bits
    do not depend on how the cache grew either.  Worst error relative to a
    long-double recurrence at K = 5e4, over beta in
    {-1.98, -1.5, -0.5, 0.02, 0.5, 1.5}: 8.6e-13 (the scalar recurrence
    alone: 8.7e-13).  The recurrence also extends to beta <= 0, which the
    Riemann differences (w(-alpha)) and the eta-shift decomposition rely on.
    """
    if K < 0:
        raise DomainError(f"weight count must be nonnegative, got {K}")
    beta = _order_value(beta)
    if isinstance(beta, float):
        w = _cache_entry(beta, lambda: np.empty(0))
        if len(w) <= K:
            w = _weight_cache[beta] = _grow_float_weights(w, beta, K)
        return w[:K + 1]
    if isinstance(beta, int):
        beta = rational(beta)  # keep the recurrence division exact
    # a rational order is keyed by its integers: hashing a Fraction costs
    # about a microsecond, and the key is hashed twice per call
    entry = _cache_entry((beta.numerator, beta.denominator),
                         lambda: [[beta * 0 + 1], None, None])
    w = entry[0]
    if len(w) <= K:
        entry[1:] = None, None
        while len(w) <= K:
            k = len(w)
            w.append(w[k - 1] * (k + beta - 1) / k)
    out = entry[2]
    if out is not None and len(out) == K + 1:
        return out
    if entry[1] is None:
        entry[1] = _integers(w)
    out = entry[2] = _ExactWeights(w[:K + 1], *entry[1])
    return out


def _differences(values, n: int, negate: bool) -> tuple:
    """n-fold forward differences x[k+1] - x[k] of values, or x[k] - x[k+1]
    at every step with negate.  Float values are differenced as numpy
    slices, exact values as integers over their common denominator, one
    rational per output."""
    if not is_exact(values[0]):
        x = np.asarray(values)
        with np.errstate(all="ignore"):  # inf - inf is nan, as in Python
            for _ in range(n):
                x = x[:-1] - x[1:] if negate else x[1:] - x[:-1]
        return tuple(x.tolist())
    vals, L = _integers(values)
    for _ in range(n):
        if negate:
            vals = [x - y for x, y in zip(vals, vals[1:])]
        else:
            vals = [y - x for x, y in zip(vals, vals[1:])]
    return tuple(rational(x, L) for x in vals)


def nabla_n(f: GridFn, n: int) -> GridFn:
    """n-fold backward difference; the domain loses n points on the left."""
    if n < 1:
        raise DomainError(f"difference order must be >= 1, got {n}")
    if len(f) < n + 1:
        raise DomainError(f"need at least {n + 1} points, have {len(f)}")
    return GridFn(f.lo + n, _differences(f.values, n, False))


def minus_delta_n(f: GridFn, n: int) -> GridFn:
    """(-1)^n times the n-fold forward difference; loses n points on the
    right.  For n = 1 this is t -> f(t) - f(t + 1)."""
    if n < 1:
        raise DomainError(f"difference order must be >= 1, got {n}")
    if len(f) < n + 1:
        raise DomainError(f"need at least {n + 1} points, have {len(f)}")
    return GridFn(f.lo, _differences(f.values, n, True))
