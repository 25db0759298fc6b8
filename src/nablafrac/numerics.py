"""Scalar kernels: rising/falling factorials, convolution weights for
fractional sums, and integer nabla/delta difference operators.

Hot paths never evaluate Gamma directly; every kernel reduces to the weight
recurrence w_0 = 1, w_k = w_{k-1} (k + beta - 1)/k, which stays exact for
rational beta and avoids overflow for float beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .backend import floor, is_exact, is_integral, rational
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


# Weight lists of the most recently used orders, oldest first.  One verify
# lattice block uses 7 distinct orders and a solve a few; a float run that
# draws a fresh order per request would otherwise keep every list it built.
# A rational order's entry also holds the integer form of its list (see
# _ExactWeights), rebuilt only when the list grows.
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


def weights(beta, K: int):
    """w_0..w_K with w_k = Gamma(k + beta)/(Gamma(beta) k!).

    Exact for rational beta, and then an _ExactWeights that also carries
    the integer form.  The recurrence also extends to beta <= 0, which the
    eta-shift decomposition relies on.
    """
    if K < 0:
        raise DomainError(f"weight count must be nonnegative, got {K}")
    beta = _order_value(beta)
    if isinstance(beta, int):
        beta = rational(beta)  # keep the recurrence division exact
    key = (isinstance(beta, float), beta)
    entry = _weight_cache.pop(key, None)
    if entry is None:
        entry = [[beta * 0 + 1], None]
        if len(_weight_cache) >= _WEIGHT_CACHE_ORDERS:
            del _weight_cache[next(iter(_weight_cache))]
    _weight_cache[key] = entry
    w = entry[0]
    if len(w) <= K:
        entry[1] = None
        while len(w) <= K:
            k = len(w)
            w.append(w[k - 1] * (k + beta - 1) / k)
    if isinstance(beta, float):
        return tuple(w[:K + 1])
    if entry[1] is None:
        entry[1] = _integers(w)
    return _ExactWeights(w[:K + 1], *entry[1])


def _integers(values):
    """(X, L) with values[i] = X[i] / L: the integer numerators of exact
    values over their common denominator L."""
    L = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def _differences(values, n: int, negate: bool) -> tuple:
    """n-fold forward differences x[k+1] - x[k] of values, or x[k] - x[k+1]
    at every step with negate.  Exact values are differenced as integers over
    their common denominator, one rational per output."""
    exact = is_exact(values[0])
    vals, L = _integers(values) if exact else (values, 1)
    for _ in range(n):
        if negate:
            vals = [x - y for x, y in zip(vals, vals[1:])]
        else:
            vals = [y - x for x, y in zip(vals, vals[1:])]
    if exact:
        return tuple(rational(x, L) for x in vals)
    return tuple(vals)


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
