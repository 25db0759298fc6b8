"""Unit-step grids and immutable grid functions.

Points live on an arithmetic progression with step 1 whose anchor may be any
real (any rational in exact mode), so functions on shifted grids such as
a + alpha + Z are first-class.  Out-of-domain evaluation raises DomainError;
nothing is ever silently read as zero.  Two points are only ever compared
through _offset, their integer distance: two Fractions over one denominator
by the difference of their numerators, in integers; any other pair by its
difference, with float distances snapping within 1e-9, so a float anchor
such as 0.1 behaves exactly like 0.  The one exception is the float CSV
reader, which applies _offset's test to its whole t column at once in numpy.
Past 2^53 in magnitude floats lie two or more apart, so a unit step rounds
to 0 or 2 and _offset would read a wrong integer without an error; Grid and
GridFn refuse a float grid with a point there.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from operator import contains, mul
from typing import Iterator

import numpy as np

from .backend import _integers, format_scalar, parse_scalar, rational

__all__ = ["DomainError", "Grid", "GridFn", "shift_rho", "shift_sigma",
           "dot", "inner_sum", "read_gridfn_csv", "write_gridfn_csv"]

_FLOAT_SNAP = 1e-9
_FLOAT_UNIT_MAX = 2 ** 53  # past this magnitude floats are 2 or more apart
_CSV_BLOCK = 4096  # CSV rows read or written per block


class DomainError(ValueError):
    """Evaluation or operation outside a grid function's domain."""


def _offset(t, lo) -> int:
    """Integer offset of t from lo; DomainError if t is off-grid.  Two
    Fractions over one denominator q are compared by their numerators,
    as divmod(t.numerator - lo.numerator, q); every other pair by t - lo."""
    if type(t) is Fraction and type(lo) is Fraction:
        q = t.denominator
        if q == lo.denominator:
            k, r = divmod(t.numerator - lo.numerator, q)
            if r:
                raise DomainError(
                    f"point {t} is not on the grid anchored at {lo}")
            return k
    d = t - lo
    if isinstance(d, float):
        try:
            k = round(d)
        except (OverflowError, ValueError):  # d is inf or nan
            raise DomainError(
                f"point {t} is not on the grid anchored at {lo}") from None
        if abs(d - k) > _FLOAT_SNAP:
            raise DomainError(f"point {t} is not on the grid anchored at {lo}")
        return k
    if d.denominator != 1:
        raise DomainError(f"point {t} is not on the grid anchored at {lo}")
    return int(d.numerator)


def _check_float_span(lo, n: int) -> None:
    """DomainError if lo is a float and a point of lo, lo + 1, ..., lo + n
    lies past +-2^53.  The bounds are compared as exact integers."""
    if isinstance(lo, float) and not (
            -_FLOAT_UNIT_MAX <= lo <= _FLOAT_UNIT_MAX - n):
        raise DomainError(f"float points {lo} .. {lo} + {n} pass 2^53 in "
                          f"magnitude, where unit steps cannot be "
                          f"represented")


@dataclass(frozen=True)
class Grid:
    """Finite unit-step grid {a, a+1, ..., b} with b == a (mod 1)."""

    a: object
    b: object

    def __post_init__(self):
        _offset(self.b, self.a)  # validates b == a (mod 1)
        if self.N < 0:
            raise DomainError(f"grid endpoint {self.b} precedes anchor {self.a}")
        _check_float_span(self.a, self.N)

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
        _check_float_span(self.lo, len(self.values) - 1)

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

    def restrict(self, lo, hi) -> "GridFn":
        i, j = _offset(lo, self.lo), _offset(hi, self.lo)
        if i < 0 or j >= len(self.values) or i > j:
            raise DomainError(
                f"[{lo}, {hi}] is not a sub-domain of [{self.lo}, {self.hi}]")
        return GridFn(lo, self.values[i:j + 1])


def shift_rho(f: GridFn) -> GridFn:
    """t -> f(t - 1) on [lo + 1, hi + 1]."""
    return GridFn(f.lo + 1, f.values)


def shift_sigma(f: GridFn) -> GridFn:
    """t -> f(t + 1) on [lo - 1, hi - 1]."""
    return GridFn(f.lo - 1, f.values)


def dot(xs, ys):
    """Sum of xs[i] * ys[i] over two nonempty value sequences of one
    backend.  Float products are added left to right.  Exact values are
    scaled to integers over their common denominators L and M, so the sum
    is one integer dot product and one rational, sum(X * Y) / (L M)."""
    if isinstance(xs[0], float):
        return sum(map(mul, xs, ys))
    X, L = _integers(xs)
    Y, M = _integers(ys)
    return rational(sum(map(mul, X, Y)), L * M)


def inner_sum(f: GridFn, g: GridFn, lo, hi):
    """Sum of f(s) g(s) over grid points s in [lo, hi], by `dot` (floats
    added left to right, exact values added as integers); 0 if hi < lo."""
    if _offset(hi, lo) < 0:
        return 0
    return dot(f.restrict(lo, hi).values, g.restrict(lo, hi).values)


def write_gridfn_csv(f: GridFn, path, points=None) -> None:
    """Write f as "t,value" rows, each scalar as `format_scalar` writes it.
    The t column is f.points() unless points, the same points as floats
    formed another way, is given.  Rows are formatted _CSV_BLOCK at a time,
    float rows by one "%.17g,%.17g" format of the block.  Given points that
    are all integers below 2^53 in magnitude, none of them -0.0, are written
    as ints by "%d", which gives the same bytes there."""
    row, given = "%.17g,%.17g\n", points is not None
    if not given:
        points = f.points()
    else:
        points = np.asarray(points, dtype=float)
        if (np.all(np.abs(points) < _FLOAT_UNIT_MAX)
                and np.array_equal(points, np.trunc(points))
                and not np.signbit(points[points == 0]).any()):
            row, points = "%d,%.17g\n", points.astype(np.int64)
        points = iter(points.tolist())
    with open(path, "w") as out:
        out.write("t,value\n")
        for i in range(0, len(f.values), _CSV_BLOCK):
            values = f.values[i:i + _CSV_BLOCK]
            ts = list(islice(points, len(values)))
            cells = [None] * (2 * len(values))
            cells[1::2] = values
            if ((given or {*map(type, ts)} == {float})
                    and {*map(type, values)} == {float}):
                cells[0::2] = ts
                out.write(row * len(values) % tuple(cells))
            else:  # given points as the floats they are, even if int here
                cells[0::2] = map(float, ts) if given else ts
                out.write("%s,%s\n" * len(values)
                          % tuple(map(format_scalar, cells)))


# bytes of a float CSV body that np.loadtxt reads exactly as float() would:
# digits, signs, points, exponents, the letters of inf/infinity/nan, field
# and line separators, and the spaces and tabs that both readers strip
_PLAIN_BYTES = b"0123456789+-.eE, \t\r\nINFTYAinftya"


def _read_plain_floats(path):
    """The (n, 2) float table of a plain float CSV, read by numpy's C text
    reader; None if the file is not plain or np.loadtxt does not give n >= 1
    rows of two fields.  A plain file has the header line "t,value", with
    only spaces, tabs and line ends around it, and a body of _PLAIN_BYTES
    alone.  On such a body loadtxt and the block reader parse every token
    by PyOS_string_to_double, so an accepted file gets the same bits; every
    file loadtxt refuses goes to the block reader, which gives the error."""
    with open(path, "rb") as src:
        header = src.readline()
        body = src.read()
    if header.strip(b" \t\r\n") != b"t,value" or body.translate(
            None, _PLAIN_BYTES):
        return None
    try:
        with warnings.catch_warnings():  # "input contained no data"
            warnings.simplefilter("ignore")
            table = np.loadtxt(path, delimiter=",", comments=None,
                               dtype=np.float64, ndmin=2, skiprows=1)
    except ValueError:
        return None
    return table if table.shape[1:] == (2,) and len(table) else None


def _read_blocks(path, exact: bool):
    """(points, values) of a "t,value" CSV read _CSV_BLOCK rows at a time,
    every token by parse_scalar; ValueError for a bad header, a row without
    exactly two fields, a bad token or no rows."""
    with open(path) as src:
        header = src.readline().strip()
        if header != "t,value":
            raise ValueError(f"bad GridFn CSV header: {header!r}")
        points, values = [], []
        parse = partial(parse_scalar, exact=exact)
        while lines := list(islice(src, _CSV_BLOCK)):
            rows = list(filter(None, map(str.strip, lines)))
            if not rows:
                continue
            tokens = ",".join(rows).split(",")
            # a comma in every row and as many commas as rows: one in each
            if (len(tokens) != 2 * len(rows)
                    or not all(map(contains, rows, repeat(",")))):
                raise ValueError("GridFn CSV rows must have two fields")
            points += map(parse, tokens[0::2])
            values += map(parse, tokens[1::2])
    if not points:
        raise ValueError("empty GridFn CSV")
    return points, values


def read_gridfn_csv(path, exact: bool) -> GridFn:
    """Read a "t,value" CSV.  Blank lines and whitespace around fields are
    ignored; float mode also accepts "p/q".  The t column must step by 1
    from its first point (within _FLOAT_SNAP in floats); ValueError
    otherwise.  A plain float file (see _read_plain_floats) is read in one
    pass by np.loadtxt; every other file, and every exact one, by the block
    reader.  Both routes give the same values and the same errors."""
    table = None if exact else _read_plain_floats(path)
    if table is None:
        points, values = _read_blocks(path, exact)
        lo = points[0]
    else:
        points, values = table[:, 0], table[:, 1].tolist()
        lo = points[0].item()
    if exact:
        on_grid = list(map(_offset, points, repeat(lo))) == list(
            range(len(points)))
    else:
        with np.errstate(all="ignore"):  # inf and nan fail the test below
            d = np.asarray(points) - lo - np.arange(len(points))
        on_grid = bool(np.all(np.abs(d) <= _FLOAT_SNAP))
    if not on_grid:
        raise ValueError("GridFn CSV rows must ascend in exact unit steps")
    return GridFn(lo, values)
