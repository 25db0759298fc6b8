"""Unit-step grids and immutable grid functions.

Points live on an arithmetic progression with step 1 whose anchor may be any
real (any rational in exact mode), so functions on shifted grids such as
a + alpha + Z are first-class.  Out-of-domain evaluation raises DomainError;
nothing is ever silently read as zero.  Two points are only ever compared
through _offset, their integer distance (float distances snap within 1e-9),
so a float anchor such as 0.1 behaves exactly like 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .backend import format_scalar, parse_scalar

__all__ = ["DomainError", "Grid", "GridFn", "shift_rho", "shift_sigma",
           "inner_sum", "read_gridfn_csv", "write_gridfn_csv"]

_FLOAT_SNAP = 1e-9


class DomainError(ValueError):
    """Evaluation or operation outside a grid function's domain."""


def _offset(t, lo) -> int:
    """Integer offset of t from lo; DomainError if t is off-grid."""
    d = t - lo
    if isinstance(d, float):
        k = round(d)
        if abs(d - k) > _FLOAT_SNAP:
            raise DomainError(f"point {t} is not on the grid anchored at {lo}")
        return k
    if d.denominator != 1:
        raise DomainError(f"point {t} is not on the grid anchored at {lo}")
    return int(d.numerator)


@dataclass(frozen=True)
class Grid:
    """Finite unit-step grid {a, a+1, ..., b} with b == a (mod 1)."""

    a: object
    b: object

    def __post_init__(self):
        _offset(self.b, self.a)  # validates b == a (mod 1)
        if self.N < 0:
            raise DomainError(f"grid endpoint {self.b} precedes anchor {self.a}")

    @property
    def N(self) -> int:
        return _offset(self.b, self.a)

    def points(self) -> Iterator:
        return (self.a + k for k in range(self.N + 1))


@dataclass(frozen=True)
class GridFn:
    """Immutable function on the contiguous range [lo, lo + len(values) - 1]."""

    lo: object
    values: tuple = field()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise DomainError("grid function needs at least one point")

    @classmethod
    def from_callable(cls, lo, hi, fn: Callable) -> "GridFn":
        n = _offset(hi, lo)
        return cls(lo, tuple(fn(lo + k) for k in range(n + 1)))

    @property
    def hi(self):
        return self.lo + (len(self.values) - 1)

    def __len__(self) -> int:
        return len(self.values)

    def points(self) -> Iterator:
        return (self.lo + k for k in range(len(self.values)))

    def __call__(self, t):
        k = _offset(t, self.lo)
        if not 0 <= k < len(self.values):
            raise DomainError(
                f"point {t} outside domain [{self.lo}, {self.hi}]")
        return self.values[k]

    def defined_at(self, t) -> bool:
        try:
            k = _offset(t, self.lo)
        except DomainError:
            return False
        return 0 <= k < len(self.values)

    def restrict(self, lo, hi) -> "GridFn":
        i, j = _offset(lo, self.lo), _offset(hi, self.lo)
        if i < 0 or j >= len(self.values) or i > j:
            raise DomainError(
                f"[{lo}, {hi}] is not a sub-domain of [{self.lo}, {self.hi}]")
        return GridFn(lo, self.values[i:j + 1])

    def pad_zeros(self, lo, hi) -> "GridFn":
        """Extend by explicit zeros to cover [lo, hi] (used only where an
        operation documents an empty-sum convention)."""
        zero = self.values[0] * 0
        i, j = _offset(lo, self.lo), _offset(hi, self.lo)
        left = tuple(zero for _ in range(max(0, -i)))
        right = tuple(zero for _ in range(max(0, j - (len(self.values) - 1))))
        return GridFn(self.lo - len(left), left + self.values + right)


def shift_rho(f: GridFn) -> GridFn:
    """t -> f(t - 1) on [lo + 1, hi + 1]."""
    return GridFn(f.lo + 1, f.values)


def shift_sigma(f: GridFn) -> GridFn:
    """t -> f(t + 1) on [lo - 1, hi - 1]."""
    return GridFn(f.lo - 1, f.values)


def inner_sum(f: GridFn, g: GridFn, lo, hi):
    """Sum of f(s) g(s) over grid points s in [lo, hi]."""
    n = _offset(hi, lo)
    return sum(f(lo + k) * g(lo + k) for k in range(n + 1))


def write_gridfn_csv(f: GridFn, path) -> None:
    with open(path, "w") as out:
        out.write("t,value\n")
        for t, v in zip(f.points(), f.values):
            out.write(f"{format_scalar(t)},{format_scalar(v)}\n")


def read_gridfn_csv(path, exact: bool) -> GridFn:
    with open(path) as src:
        header = src.readline().strip()
        if header != "t,value":
            raise ValueError(f"bad GridFn CSV header: {header!r}")
        points, values = [], []
        for line in src:
            line = line.strip()
            if not line:
                continue
            t_text, v_text = line.split(",")
            points.append(parse_scalar(t_text, exact))
            values.append(parse_scalar(v_text, exact))
    if not points:
        raise ValueError("empty GridFn CSV")
    f = GridFn(points[0], tuple(values))
    for k, t in enumerate(points):
        if _offset(t, f.lo) != k:
            raise ValueError("GridFn CSV rows must ascend in exact unit steps")
    return f
