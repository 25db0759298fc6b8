"""Verification harness for the summation-by-parts identities and the
rho/sigma shift properties.

Every check evaluates both sides of an identity independently through the
operator layer and reports the signed residual lhs - (rhs + boundary_term).
In the exact backend a valid implementation must produce the zero rational;
the float policy is |residual| <= 1e-9 (1 + max(|lhs|, |rhs|)).

The Riemann-Caputo check follows the identity's proof chain: the right
Caputo factor is evaluated with the inner sum truncated at the function's
domain end (f enters only through values on [a, b-1]), which is the reading
under which the identity is exact for arbitrary inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .backend import format_scalar, is_exact
from .grid import GridFn, inner_sum, shift_rho, shift_sigma
from .numerics import FracOrder, _order, _order_value, weights
from .operators import (caputo_left, caputo_right, nabla_left_riemann,
                        nabla_left_sum_fn, nabla_right_riemann,
                        nabla_right_sum_fn, delta_left_sum, delta_right_sum,
                        delta_left_riemann, delta_right_riemann)

__all__ = ["IdentityReport", "FLOAT_TOLERANCE", "check_sum_by_parts",
           "check_riemann_by_parts", "check_delta_sum_by_parts",
           "check_delta_diff_by_parts", "check_caputo_by_parts",
           "check_riemann_caputo_by_parts", "check_shift_properties",
           "random_gridfn", "run_trial", "VERIFY_ALPHAS", "VERIFY_SIZES"]

FLOAT_TOLERANCE = 1e-9

VERIFY_ALPHAS = ("1/3", "1/2", "2/3", "3/4", "5/4", "3/2")
VERIFY_SIZES = tuple(range(2, 13))


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    lhs: object
    rhs: object
    boundary_term: object
    residual: object
    inputs_digest: str

    @property
    def passed(self) -> bool:
        if is_exact(self.residual):
            return self.residual == 0
        scale = 1.0 + max(abs(self.lhs), abs(self.rhs))
        return bool(abs(self.residual) <= FLOAT_TOLERANCE * scale)

    def to_json(self, alpha=None, a=None, b=None, seed=None) -> str:
        rec = {"identity_id": self.identity_id}
        if alpha is not None:
            rec.update(alpha=format_scalar(alpha), a=format_scalar(a),
                       b=format_scalar(b), seed=seed)
        rec.update(residual=format_scalar(self.residual), pass_=self.passed)
        rec["pass"] = rec.pop("pass_")
        return json.dumps(rec)


def _digest(alpha, a, b, seed):
    return f"seed={seed} a={format_scalar(a)} b={format_scalar(b)} " \
           f"alpha={format_scalar(alpha)}"


def _report(identity_id, lhs, rhs, boundary, digest) -> IdentityReport:
    return IdentityReport(identity_id, lhs, rhs, boundary,
                          lhs - rhs - boundary, digest)


def check_sum_by_parts(f: GridFn, g: GridFn, alpha, a, b,
                       seed=None) -> IdentityReport:
    """sum g (nabla_a^{-alpha} f) = sum f (_b nabla^{-alpha} g) over
    s = a+1 .. b-1; no boundary term."""
    av = _order_value(alpha)
    left = nabla_left_sum_fn(f, av, a)
    right = nabla_right_sum_fn(g, av, b)
    lhs = inner_sum(g, left, a + 1, b - 1)
    rhs = inner_sum(f, right, a + 1, b - 1)
    return _report("P21", lhs, rhs, lhs * 0, _digest(av, a, b, seed))


def check_riemann_by_parts(f: GridFn, g: GridFn, alpha, a, b,
                           seed=None) -> IdentityReport:
    """sum f (nabla_a^alpha g) = sum g (_b nabla^alpha f), non-integer
    alpha > 0."""
    alpha = _order(alpha)
    alpha.require_noninteger("Riemann by-parts")
    left = nabla_left_riemann(g.restrict(a + 1, b - 1), alpha, a)
    right = nabla_right_riemann(f.restrict(a + 1, b - 1), alpha, b)
    lhs = inner_sum(f, left, a + 1, b - 1)
    rhs = inner_sum(g, right, a + 1, b - 1)
    return _report("P22", lhs, rhs, lhs * 0, _digest(alpha.alpha, a, b, seed))


def check_delta_sum_by_parts(f: GridFn, g: GridFn, alpha, a, b,
                             seed=None) -> IdentityReport:
    """sum g(s) (Delta_{a+1}^{-alpha} f)(s+alpha)
       = sum f(s) (_{b-1}Delta^{-alpha} g)(s-alpha),
    both sides through the direct delta summation paths."""
    av = _order_value(alpha)
    dls = delta_left_sum(f.restrict(a + 1, b - 1), av, a)
    drs = delta_right_sum(g.restrict(a + 1, b - 1), av, b)
    pts = [a + k for k in range(1, int(b - a))]
    lhs = sum(g(s) * dls(s + av) for s in pts)
    rhs = sum(f(s) * drs(s - av) for s in pts)
    return _report("P23", lhs, rhs, lhs * 0, _digest(av, a, b, seed))


def check_delta_diff_by_parts(f: GridFn, g: GridFn, alpha, a, b,
                              seed=None) -> IdentityReport:
    """sum f(s) (Delta_{a+1}^alpha g)(s-alpha)
       = sum g(s) (_{b-1}Delta^alpha f)(s+alpha), non-integer alpha."""
    alpha = _order(alpha)
    alpha.require_noninteger("delta difference by-parts")
    av = alpha.alpha
    dlr = delta_left_riemann(g.restrict(a + 1, b - 1), alpha, a)
    drr = delta_right_riemann(f.restrict(a + 1, b - 1), alpha, b)
    pts = [a + k for k in range(1, int(b - a))]
    lhs = sum(f(s) * dlr(s - av) for s in pts)
    rhs = sum(g(s) * drr(s + av) for s in pts)
    return _report("P24", lhs, rhs, lhs * 0, _digest(av, a, b, seed))


def check_caputo_by_parts(f: GridFn, g: GridFn, alpha, a, b,
                          seed=None) -> IdentityReport:
    """sum g (C-nabla_a^alpha f) = [f _b nabla^{-(1-alpha)} g]_a^{b-1}
       + sum f(s-1) (_b nabla^alpha g)(s-1), for 0 < alpha < 1."""
    alpha = _order(alpha)
    _require_unit_interval(alpha, "Caputo by-parts")
    av = alpha.alpha
    cl = caputo_left(f.restrict(a, b - 1), alpha, a)
    rs = nabla_right_sum_fn(g.restrict(a, b - 1), 1 - av, b)
    rr = nabla_right_riemann(g.restrict(a, b - 1), alpha, b)
    pts = [a + k for k in range(1, int(b - a))]
    lhs = sum(g(s) * cl(s) for s in pts)
    boundary = f(b - 1) * rs(b - 1) - f(a) * rs(a)
    rhs = sum(f(s - 1) * rr(s - 1) for s in pts)
    return _report("T25", lhs, rhs, boundary, _digest(av, a, b, seed))


def check_riemann_caputo_by_parts(f: GridFn, g: GridFn, alpha, a, b,
                                  seed=None) -> IdentityReport:
    """sum f(s-1) (nabla_a^alpha g)(s) = [f nabla_a^{-(1-alpha)} g]_a^{b-1}
       + sum_{s=a}^{b-2} g(s+1) (C_b-nabla^alpha f)(s)
       (= the same sum reindexed as sum_{s=a+1}^{b-1} g(s) (...)(s-1)),
    for 0 < alpha < 1, Caputo factor read boundary-free via the proof chain
    (f enters only through [a, b-1]).

    The reported residual is the largest-magnitude one among lhs against both
    right-hand forms and the two forms against each other.
    """
    alpha = _order(alpha)
    _require_unit_interval(alpha, "Riemann-Caputo by-parts")
    av = alpha.alpha
    lr = nabla_left_riemann(g.restrict(a + 1, b - 1), alpha, a)
    ls = nabla_left_sum_fn(g.restrict(a + 1, b - 1), 1 - av, a)
    cr = caputo_right(f.restrict(a, b - 1), alpha, b, truncate=True)
    pts = [a + k for k in range(1, int(b - a))]
    lhs = sum(f(s - 1) * lr(s) for s in pts)
    boundary = f(b - 1) * ls(b - 1) - f(a) * ls(a)
    rhs1 = sum(g(s + 1) * cr(s) for s in [a + k for k in range(int(b - a) - 1)])
    rhs2 = sum(g(s) * cr(s - 1) for s in pts)
    residuals = [lhs - boundary - rhs1, lhs - boundary - rhs2, rhs1 - rhs2]
    worst = max(residuals, key=abs)
    return IdentityReport("T26", lhs, rhs1, boundary, worst,
                          _digest(av, a, b, seed))


def check_shift_properties(f: GridFn, alpha, a, b, seed=None):
    """The six rho/sigma shift identities, one report each (S1..S6).

    The residual of each report is the largest-magnitude pointwise difference
    over the common domain; lhs/rhs are the two side values at that point.
    """
    alpha = _order(alpha)
    alpha.require_noninteger("shift properties (Riemann/Caputo items)")
    av = alpha.alpha
    n = alpha.n
    fr = shift_rho(f)      # on [a+1, b+1]
    fs = shift_sigma(f)    # on [a-1, b-1]
    digest = _digest(av, a, b, seed)

    def cmp(ident, left, right, lo, hi, arg):
        worst = None
        k = 0
        while lo + k <= hi:
            t = lo + k
            lv, rv = left(t), right(arg(t))
            d = lv - rv
            if worst is None or abs(d) > abs(worst[2]):
                worst = (lv, rv, d)
            k += 1
        return IdentityReport(ident, worst[0], worst[1], worst[2] * 0,
                              worst[2], digest)

    rho = lambda t: t - 1
    sigma = lambda t: t + 1
    reports = [
        cmp("S1", nabla_left_sum_fn(fr, av, a),
            nabla_left_sum_fn(f, av, a - 1), a + 1, b + 1, rho),
        cmp("S2", nabla_left_riemann(fr, alpha, a),
            nabla_left_riemann(f, alpha, a - 1), a + 1, b + 1, rho),
        # anchored at a+1 so the rho-shifted function covers the n back-points
        cmp("S3", caputo_left(fr, alpha, a + 1),
            caputo_left(f, alpha, a), a + 1 + n, b + 1, rho),
        cmp("S4", nabla_right_sum_fn(fs, av, b),
            nabla_right_sum_fn(f, av, b + 1), a - 1, b, sigma),
        cmp("S5", nabla_right_riemann(fs, alpha, b),
            nabla_right_riemann(f, alpha, b + 1), a - 1, b - 1, sigma),
        cmp("S6", caputo_right(fs, alpha, b, truncate=True),
            caputo_right(f, alpha, b + 1, truncate=True),
            a - 1, b - n, sigma),
    ]
    return reports


# -- randomized trials -------------------------------------------------------

def random_gridfn(rng: random.Random, lo, hi, exact: bool,
                  make) -> GridFn:
    """Integer-valued random function, uniform on [-9, 9] so failing cases
    stay hand-auditable."""
    n = int(hi - lo) + 1
    return GridFn(lo, tuple(make(rng.randint(-9, 9)) for _ in range(n)))


_CHECKS = {
    "P21": (check_sum_by_parts, False),
    "P22": (check_riemann_by_parts, False),
    "P23": (check_delta_sum_by_parts, False),
    "P24": (check_delta_diff_by_parts, False),
    "T25": (check_caputo_by_parts, True),
    "T26": (check_riemann_caputo_by_parts, True),
}


def run_trial(identity_id: str, alpha, a, b, seed: int, exact: bool,
              make) -> list:
    """Run one seeded random trial of one identity; returns the report list
    (six for the shift properties, one otherwise)."""
    rng = random.Random(f"{identity_id}:{format_scalar(_order_value(alpha))}:"
                        f"{b - a}:{seed}")
    f = random_gridfn(rng, a, b, exact, make)
    if identity_id == "SHIFT":
        return check_shift_properties(f, alpha, a, b, seed)
    g = random_gridfn(rng, a, b, exact, make)
    fn, unit = _CHECKS[identity_id]
    return [fn(f, g, alpha, a, b, seed)]


def _require_unit_interval(alpha: FracOrder, what: str) -> None:
    if not 0 < alpha.alpha < 1 or alpha.is_integer:
        raise ValueError(f"{what} requires 0 < alpha < 1, got {alpha.alpha}")
