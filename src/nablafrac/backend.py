"""Scalar backends.

Two interchangeable scalar types flow through the library: 64-bit floats and
exact arbitrary-precision rationals (fractions.Fraction).  Exact values never
mix with floats inside a single computation; the caller picks one backend and
sticks to it.
"""
from __future__ import annotations

import math
from fractions import Fraction as _rat
from operator import attrgetter

__all__ = [
    "rational",
    "is_exact",
    "is_integral",
    "floor",
    "parse_scalar",
    "format_scalar",
]


def _fraction(text: str) -> _rat:
    """Fraction(text), with ValueError, not ZeroDivisionError, for a zero
    denominator: "p/0" is bad input like any other bad token."""
    try:
        return _rat(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def rational(p, q=1):
    """Exact rational p/q.  Accepts ints, 'p/q' strings and other rationals."""
    if q == 1 and type(p) is int:
        return _rat(p)  # Fraction(int) skips the gcd
    if isinstance(p, str):
        r = _fraction(p)
        return r / _rat(q) if q != 1 else r
    return _rat(p, q)


def is_exact(x) -> bool:
    return not isinstance(x, float)


def is_integral(x) -> bool:
    return x == math.floor(x)


def floor(x) -> int:
    return math.floor(x)


def parse_scalar(text: str, exact: bool):
    """Parse a scalar from its CSV/CLI representation."""
    text = text.strip()
    if exact:
        return _fraction(text)
    if "/" in text:
        return float(_fraction(text))
    return float(text)


def format_scalar(x) -> str:
    """Canonical serialization: 'p/q' with q > 0 and gcd(p, q) = 1 for exact
    values, 17 significant decimal digits (round-trip safe) for floats."""
    if isinstance(x, float):
        return f"{x:.17g}"
    if not isinstance(x, (_rat, int)):  # a Fraction is already reduced
        x = _rat(x)
    return f"{x.numerator}/{x.denominator}"


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _integers(values):
    """(X, L) with values[i] = X[i] / L: the integer numerators of exact
    values over their common denominator L."""
    dens = list(map(_denominator, values))
    L = math.lcm(*dens)
    if L == 1:  # integer values, such as verify's random inputs
        return list(map(_numerator, values)), 1
    return [v.numerator * (L // q) for v, q in zip(values, dens)], L
