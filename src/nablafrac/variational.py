"""Fractional action functionals, first variations, Euler-Lagrange residual
assembly, Newton solvers, and an independent gradient oracle.

Three formulations are supported for J(f) = sum_{t=a+1}^{b-1} L(t, u, v):

  RIEMANN_A : u = f(t),   v = (nabla_{a-1}^alpha f)(t), f(a) = A fixed,
              any non-integer alpha > 0.
  RIEMANN_B : u = f(t),   v = (nabla_a^alpha f)(t), 0 < alpha < 1,
              boundary free ("natural", the v-partial at t = b is zero by
              construction) or the fractional sum
              nabla_a^{-(1-alpha)} f(b-1) = A fixed via one multiplier.
  CAPUTO    : u = f(t-1), v = (C-nabla_a^alpha f)(t), 0 < alpha < 1,
              endpoints f(a) = A, f(b-1) = B fixed, or free (natural).
Each (formulation, boundary kind) pair is defined once, in _CASES.

Newton's system is one object, _System, built once per solve from the
weights: it holds the slot maps and the Gram matrix that its Jacobians
share, and at(x) evaluates it at a point.  Its residual is the gradient of
J on the free coordinates and its Jacobian the symmetric Hessian, bordered
by the multiplier in the RIEMANN_B fixed case; at interior points the
gradient is the Euler-Lagrange residual.  Newton works on whole arrays: the
u slots are read from the unknowns by index, the v slots by one Toeplitz
product, and each Lagrangian partial is called once per point on the arrays
of all the sum points; the Jacobian is formed from the same partials only
when it is asked for.  The GridFn Euler-Lagrange
residual (el_residual) and the gradient oracle, which recomputes the
derivatives by direct differencing of J, are independent references that
never touch those maps; they read values by offset slices, not point by
point.  The oracle reads f's slot values once; the slots are linear in f,
so those of f bumped at a free coordinate u are f's plus a multiple of the
slots of the basis function e_u.  Past the first free coordinate the slots
of e_u are also shift-invariant (u is a shift of f, and v a causal
convolution anchored left of every free point), so the operators are probed
at most twice, on e_u for the first two free coordinates, and the later
probes are shifts of the second.  The first gets its own probe because
f(a) of a natural Caputo problem enters its difference with the opposite
sign.  Terms of J before the first point e_u's slots reach are the same on
every side of the difference stencil and cancel exactly, so only the later
terms are evaluated.  Both backends run the same code: one five-point
stencil, with unit steps in rationals and h = 1e-3 (1 + |f(u)|) in floats
(rounding noise about 1.5 eps sum|L| / h), that calls eval on whole arrays
of probes, float or of rationals, so eval, like the partials, must work
elementwise on numpy arrays.

solve takes full Newton steps for as long as each one lowers |r|_2.  When
one does not, it traces the Newton homotopy R(x) - (1 - lam) R(x0) from the
start (x0, 0) to lam = 1 by pseudo-arclength continuation, with a corrector
that solves the Jacobian bordered by R(x0) and the path's tangent, and
finishes at lam = 1 with full Newton steps.  Solution.status says how a
solve ended and Solution.path whether it took the continuation.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from numbers import Rational
from operator import add
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .backend import rational
from .grid import DomainError, Grid, GridFn, _offset, shift_sigma
from .numerics import FracOrder, _order, weights
from .operators import (caputo_left, caputo_right, nabla_left_riemann,
                        nabla_right_riemann)

__all__ = ["Lagrangian", "Formulation", "Boundary", "VariationalProblem",
           "Solution", "action", "first_variation", "eta_shift_decomposition",
           "el_residual", "el_residual_forms", "gradient_oracle", "solve"]

# (t, u, v) points at which the Lagrangian self checks call eval and the
# partials
_PROBES = ((0.0, 0.7, -0.4), (2.0, -1.3, 0.9), (5.0, 0.2, 1.7))


@dataclass(frozen=True)
class Lagrangian:
    """L(t, u, v) with first and second partials in the u and v slots.

    The GridFn references (action, first_variation, el_residual) call them
    point by point.  eval and every partial must also work elementwise on
    numpy arrays of t, u and v: the gradient oracle calls eval on whole
    arrays of probes, float ones in the float backend and object arrays of
    rationals in the exact one, and Newton calls each partial once per
    point on float arrays of all the sum points.  A partial
    may return one scalar for all the points (d_uu = -omega^2, say).
    check_partials enforces this, on float arrays, when a problem is
    constructed; an exact problem also calls eval once on object arrays of
    rationals (_check_exact_eval).
    """

    name: str
    eval: Callable
    d_u: Callable
    d_v: Callable
    d_uu: Callable
    d_uv: Callable
    d_vv: Callable

    @classmethod
    def quadratic_potential(cls, omega) -> "Lagrangian":
        """L = v^2/2 - omega^2 u^2/2 (discrete fractional oscillator)."""
        w2 = omega * omega
        return cls(
            name="quadratic_potential",
            eval=lambda t, u, v: v * v / 2 - w2 * u * u / 2,
            d_u=lambda t, u, v: -w2 * u,
            d_v=lambda t, u, v: v,
            d_uu=lambda t, u, v: -w2,
            d_uv=lambda t, u, v: u * 0,
            d_vv=lambda t, u, v: u * 0 + 1,
        )

    @classmethod
    def quartic_potential(cls) -> "Lagrangian":
        """L = v^2/2 - u^4/4."""
        return cls(
            name="quartic_potential",
            eval=lambda t, u, v: v * v / 2 - u ** 4 / 4,
            d_u=lambda t, u, v: -u ** 3,
            d_v=lambda t, u, v: v,
            d_uu=lambda t, u, v: -3 * u * u,
            d_uv=lambda t, u, v: u * 0,
            d_vv=lambda t, u, v: u * 0 + 1,
        )

    def check_partials(self) -> None:
        """Float self check: analytic first partials against central
        differences of eval at a few probe points, within 1e-6 (1 + |fd|),
        and eval and each partial called once on arrays of those points
        against their scalar calls.  A partial may return one scalar for
        all the points; eval may not."""
        h = 1e-6
        for t, u, v in _PROBES:
            fd_u = (self.eval(t, u + h, v) - self.eval(t, u - h, v)) / (2 * h)
            fd_v = (self.eval(t, u, v + h) - self.eval(t, u, v - h)) / (2 * h)
            for got, want, slot in ((self.d_u(t, u, v), fd_u, "u"),
                                    (self.d_v(t, u, v), fd_v, "v")):
                if abs(got - want) > 1e-6 * (1 + abs(want)):
                    raise ValueError(
                        f"Lagrangian {self.name}: d_{slot} disagrees with "
                        f"central differences at (t,u,v)=({t},{u},{v})")
        # numpy's array functions may round differently from the scalar
        # ones in the last bits, so the comparison allows for that
        arrays = np.array(_PROBES).T
        for name in ("eval", "d_u", "d_v", "d_uu", "d_uv", "d_vv"):
            fn = getattr(self, name)
            contract = self._contract(name)
            try:
                got = np.asarray(fn(*arrays), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(contract) from exc
            if name != "eval" and got.shape == ():
                got = np.broadcast_to(got, len(_PROBES))
            if got.shape != (len(_PROBES),) or any(
                    abs(g - w) > 1e-12 * (1 + abs(w))
                    for g, w in zip(got.tolist(), (fn(*x) for x in _PROBES))):
                raise ValueError(contract)

    def _check_exact_eval(self) -> None:
        """Exact self check: eval called once on object arrays of the
        probe points as rationals must return one rational per point, as
        the exact gradient oracle needs."""
        arrays = np.array([[rational(str(x)) for x in probe]
                           for probe in _PROBES], dtype=object).T
        try:
            got = self.eval(*arrays)
        except (TypeError, ValueError) as exc:
            raise ValueError(self._contract("eval")) from exc
        if np.shape(got) != (len(_PROBES),) or not all(
                isinstance(x, Rational) for x in got):
            raise ValueError(self._contract("eval"))

    def _contract(self, name: str) -> str:
        return (f"Lagrangian {self.name}: {name} must work elementwise on "
                f"numpy arrays of t, u and v")


class Formulation(enum.Enum):
    RIEMANN_A = "riemann_a"
    RIEMANN_B = "riemann_b"
    CAPUTO = "caputo"


@dataclass(frozen=True)
class Boundary:
    """Boundary data.  kind='fixed' fixes f(a)=A (RIEMANN_A), the terminal
    fractional sum (RIEMANN_B), or f(a)=A and f(b-1)=B (CAPUTO);
    kind='natural' leaves endpoints free and takes no data."""

    kind: str
    A: object = None
    B: object = None


@dataclass(frozen=True)
class _Case:
    """One (formulation, boundary kind) pair, in integer offsets from a."""

    v_op: Callable          # v = v_op(f, alpha, a + v_at) on [a + 1, b - 1]
    v_at: int = 0
    unit: bool = True       # 0 < alpha < 1, else any non-integer alpha > 0
    needs: str = ""         # the boundary data required, of "A" and "B"
    missing: str = ""       # the DomainError's text when some is None
    lo: int = 0             # f_domain() is [a + lo, b - 1]; V is W[1:, lo:]
    fix_lo: int = 0         # 1 where f(a + lo) = A is fixed
    fix_hi: int = 0         # 1 where f(b - 1) = B is fixed
    su: int = 0             # u(t) is f.values[t - a - 1 + su] on f_domain()
    el_shift: int = 0       # el_residual meets L_1(s + el_shift) at s
    w1_column: bool = False  # f(a)'s column of V is -w(1 - alpha)
    border: bool = False    # A fixes the terminal sum via a multiplier


_CASES = {
    (Formulation.RIEMANN_A, "fixed"): _Case(
        nabla_left_riemann, v_at=-1, unit=False, fix_lo=1, su=1, needs="A",
        missing="RIEMANN_A requires fixed f(a) = A"),
    (Formulation.RIEMANN_B, "natural"): _Case(nabla_left_riemann, lo=1),
    (Formulation.RIEMANN_B, "fixed"): _Case(
        nabla_left_riemann, lo=1, border=True, needs="A",
        missing="RIEMANN_B fixed case requires the terminal fractional sum "
                "value A"),
    (Formulation.CAPUTO, "natural"): _Case(caputo_left, el_shift=1,
                                           w1_column=True),
    (Formulation.CAPUTO, "fixed"): _Case(
        caputo_left, fix_lo=1, fix_hi=1, el_shift=1, w1_column=True,
        needs="AB", missing="CAPUTO fixed case requires both A and B"),
}


@dataclass(frozen=True)
class VariationalProblem:
    grid: Grid
    alpha: FracOrder
    formulation: Formulation
    boundary: Boundary
    lagrangian: Lagrangian
    exact: bool = False

    def __post_init__(self):
        if self.grid.N < 2:
            raise DomainError("variational problems need b - a >= 2")
        self.alpha.require_noninteger("variational formulations")
        form, bnd = self.formulation, self.boundary
        # a formulation's fixed case also judges the kinds it does not take
        case = _CASES.get((form, bnd.kind), _CASES[form, "fixed"])
        if case.unit:
            self.alpha.require_unit_interval(form.value)
        if (form, bnd.kind) not in _CASES:
            raise DomainError(case.missing if form is Formulation.RIEMANN_A
                              else f"unknown boundary kind {bnd.kind!r}")
        if any(getattr(bnd, x) is None for x in case.needs):
            raise DomainError(case.missing)
        for x in "AB":
            if x not in case.needs and getattr(bnd, x) is not None:
                raise DomainError(f"{form.name} {bnd.kind} case does not "
                                  f"read {x}")
        object.__setattr__(self, "_case", case)
        self.lagrangian.check_partials()
        if self.exact:
            self.lagrangian._check_exact_eval()

    # domain of f required by the formulation
    def f_domain(self):
        return self.grid.a + self._case.lo, self.grid.b - 1

    def _free(self) -> range:
        """Indices of the free coordinates in the f_domain() vector."""
        c = self._case
        return range(c.fix_lo, self.grid.N - c.lo - c.fix_hi)

    def free_points(self):
        lo = self.f_domain()[0]
        return [lo + k for k in self._free()]


def _sum_points(p: VariationalProblem):
    a = p.grid.a
    return [a + k for k in range(1, p.grid.N)]


def _v_fn(p: VariationalProblem, f: GridFn) -> GridFn:
    """The formulation's fractional slot as a grid function on [a+1, b-1]."""
    a, case = p.grid.a, p._case
    v = case.v_op(f.restrict(*p.f_domain()), p.alpha, a + case.v_at)
    return v.restrict(a + 1, p.grid.b - 1)


def _slots(p: VariationalProblem, f: GridFn):
    """(us, vs): the u and v slot values at the sum points (_sum_points),
    read by offset slices of f on f_domain()."""
    f, su = f.restrict(*p.f_domain()), p._case.su
    return f.values[su:su + p.grid.N - 1], _v_fn(p, f).values


def action(p: VariationalProblem, f: GridFn):
    """J(f) = sum over t = a+1 .. b-1 of L(t, u(t), v(t))."""
    return sum(map(p.lagrangian.eval, _sum_points(p), *_slots(p, f)))


def _l1_l2(p: VariationalProblem, f: GridFn):
    ts, (us, vs) = _sum_points(p), _slots(p, f)
    lag = p.lagrangian
    return (GridFn(ts[0], tuple(map(lag.d_u, ts, us, vs))),
            GridFn(ts[0], tuple(map(lag.d_v, ts, us, vs))))


def first_variation(p: VariationalProblem, f: GridFn, eta: GridFn):
    """Directional derivative of J at f along eta:
    sum of eta-slot * L_1 + (D^alpha eta) * L_2 over t = a+1 .. b-1."""
    l1, l2 = _l1_l2(p, f)
    us, vs = _slots(p, eta)
    return reduce(add, (u * x + v * y for u, x, v, y
                        in zip(us, l1.values, vs, l2.values)))


def eta_shift_decomposition(eta: GridFn, alpha, a, t):
    """Split (nabla_{a-1}^alpha eta)(t) into (nabla_a^alpha eta)(t) plus the
    correction carried by eta(a).

    The correction is eta(a) * w_{t-a}(-alpha) = eta(a) *
    (t-a+1)^{rising(-alpha-1)} / Gamma(-alpha); the two parts sum to the
    a-1 anchored difference exactly.
    """
    alpha = _order(alpha)
    alpha.require_noninteger("eta-shift decomposition")
    k = _offset(t, a)
    if k < 1:
        raise DomainError("decomposition needs t in N_{a+1}")
    base = nabla_left_riemann(eta.restrict(a + 1, eta.hi), alpha, a)(t)
    correction = eta(a) * weights(-alpha.alpha, k)[k]
    return base, correction


def _l1_l2_to_b(p: VariationalProblem, f: GridFn, l2_at_b):
    """L_1 on [a+1, b-1] and the v-partial extended to [a+1, b].

    The extension value is the natural condition L_2(b) = 0 unless an
    explicit value (the constraint multiplier) is supplied.
    """
    l1, l2 = _l1_l2(p, f)
    ext = l2.values[0] * 0 if l2_at_b is None else l2_at_b
    return l1, GridFn(l2.lo, l2.values + (ext,))


def _plus(l1: GridFn, r: GridFn, k: int = 0) -> GridFn:
    """Value i is l1.values[k + i] + r.values[i], from the point l1.lo on,
    for as long as both last (r may run past l1)."""
    return GridFn(l1.lo, tuple(map(add, l1.values[k:], r.values)))


def _el_riemann_b(p: VariationalProblem, f: GridFn, l2_at_b=None) -> GridFn:
    """E2 residual with the v-partial extended to t = b."""
    l1, l2x = _l1_l2_to_b(p, f, l2_at_b)
    return _plus(l1, caputo_right(l2x, p.alpha, p.grid.b + 1, truncate=True))


def el_residual_forms(p: VariationalProblem, f: GridFn, l2_at_b=None):
    """The two algebraically equal assemblies of the second-formulation
    residual: through the v-partial shifted down and differentiated from b,
    and through the unshifted v-partial differentiated from b + 1.  Returns
    (shifted_form, direct_form), both on [a + 1, b - 1]."""
    if p.formulation is not Formulation.RIEMANN_B:
        raise DomainError("residual forms exist only for the terminal-sum "
                          "formulation")
    l1, l2x = _l1_l2_to_b(p, f, l2_at_b)
    # the shifted operator starts at a: its value at s - 1 meets L_1(s)
    cr = caputo_right(shift_sigma(l2x), p.alpha, p.grid.b, truncate=True)
    return _plus(l1, cr), _el_riemann_b(p, f, l2_at_b)


def el_residual(p: VariationalProblem, f: GridFn,
                l2_at_b=None) -> GridFn:
    """Euler-Lagrange residual on the formulation's stated index range:

    RIEMANN_A : L_1(s) + (_b nabla^alpha L_2)(s),        s in [a+1, b-1]
    RIEMANN_B : L_1(s) + (C_{b+1}-nabla^alpha L_2)(s),   s in [a+1, b-1]
    CAPUTO    : L_1(s+1) + (_b nabla^alpha L_2)(s),      s in [a+1, b-2]

    l2_at_b overrides the RIEMANN_B extension value of L_2 at t = b.
    """
    if p.formulation is Formulation.RIEMANN_B:
        return _el_riemann_b(p, f, l2_at_b)
    l1, l2 = _l1_l2(p, f)
    rr = nabla_right_riemann(l2, p.alpha, p.grid.b)
    return _plus(l1, rr, _el_shift(p))


def _el_shift(p: VariationalProblem) -> int:
    """el_residual's offset k: L_1(s + k) meets the right difference at s."""
    k = p._case.el_shift
    if p.grid.N < 2 + k:
        raise DomainError(f"{p.formulation.name} residual needs "
                          f"b - a >= {2 + k}")
    return k


# Entries per stacked (rows x sum points) array of the float oracle, 128 kB
# of float64: a float chunk takes as many free coordinates as fit, so the
# oracle's temporaries do not grow with N^2.  An exact chunk takes one.
_ORACLE_CHUNK = 1 << 14


def _stencil_rows(lag, ts, us, vs, eu, ev, h) -> np.ndarray:
    """The five-point stencil of each row r of the stacked probes eu, ev:
    sum over the sum points of 8 (L(+h_r) - L(-h_r)) - (L(+2h_r) - L(-2h_r)),
    over 12 h_r, with L(s) at the slot values us + s eu_r, vs + s ev_r.
    The arrays are float, or of rationals (dtype object) in the exact
    backend; d takes the probes' dtype.

    h ev is formed once; the steps +-1 and +-2 scale it exactly.  The u
    slot of a basis function is one-hot (u is a shift of f), so L is
    evaluated with the 1-D ts and us, which numpy broadcasts against the
    rows of v, and again, with u moved, at each row's one u column, which
    replaces its stencil there.  Columns before the first one any row
    reaches are not evaluated; they, and each row's columns before its own
    first one, hold exact zeros (the four arguments are equal there).
    Every row is summed over all the sum points in one reduction, so its
    value does not depend on which rows share its chunk.
    """
    j0 = ((eu != 0) | (ev != 0)).any(axis=0).argmax()
    ts, us, vs, eu = ts[j0:], us[j0:], vs[j0:], eu[:, j0:]
    hv = h[:, None] * ev[:, j0:]
    r, j = np.nonzero(eu)
    hu = h[r] * eu[r, j]
    tj, uj, vj, hvj = ts[j], us[j], vs[j], hv[r, j]

    def stencil(at):
        return 8 * (at(1) - at(-1)) - (at(2) - at(-2))

    d = np.zeros(ev.shape, dtype=ev.dtype)
    d[:, j0:] = stencil(lambda s: lag(ts, us, vs + s * hv))
    d[r, j0 + j] = stencil(lambda s: lag(tj, uj + s * hu, vj + s * hvj))
    return d.sum(axis=1) / (12 * h)


def _probe_rows(p: VariationalProblem, f: GridFn):
    """probes(start, stop): the slots (eu, ev) of the basis functions e_u for
    u in free[start:stop], as (stop - start) x (sum points) arrays: float
    in the float backend, of rationals (dtype object) in the exact one.
    f is on f_domain().

    The operator layer is probed at most twice, on e_u for u = free[0] and
    free[1].  Both slots are linear in f, and past free[0] they are also
    shift-invariant: u is a shift of f, and v is a causal convolution whose
    anchor lies left of every free point (the Caputo difference of e_u,
    u > a, is w(-alpha) from u on).  So the slots of e_{free[k]}, k >= 1, are
    those of e_{free[1]} shifted right by k - 1 and cut off at b - 1, read
    as a strided window.  free[0] gets its own probe because only there can
    the slots differ: f(a) of a natural Caputo problem enters its
    difference with the opposite sign.
    """
    lo, free = f.lo, p._free()
    zero = f.values[0] * 0
    dtype = object if p.exact else float

    def probe(i):
        e = [zero] * len(f)
        e[i] = zero + 1
        return [np.array(x, dtype=dtype)
                for x in _slots(p, GridFn(lo, tuple(e)))]

    first = probe(free[0])
    m = len(first[0])
    # the windows of m zeros then the second probe's slots, last first:
    # window d is those slots shifted right by d
    later = [sliding_window_view(np.concatenate(
        (np.full(m, zero, dtype=dtype), x)), m)[::-1]
        for x in probe(free[1])] if len(free) > 1 else None

    def probes(start, stop):
        if start > 0:
            return [w[start - 1:stop - 1] for w in later]
        if stop == 1:
            return [x[None] for x in first]
        return [np.concatenate((x[None], w[:stop - 1]))
                for x, w in zip(first, later)]

    return probes


def gradient_oracle(p: VariationalProblem, f: GridFn) -> GridFn:
    """dJ/df(u) on the free coordinates, by direct differencing of the
    action with the five-point first-derivative stencil in both backends:

      (J(-2) - 8 J(-1) + 8 J(1) - J(2)) / 12h,  J(s) = J(f + s h e_u),

    which differentiates polynomial Lagrangians of degree <= 5 exactly.
    Exact backend: unit steps (h = 1), so the values are exact.  Float
    backend: h = 1e-3 (1 + |f(u)|); the truncation error is O(h^4) and the
    rounding noise about 1.5 eps sum|L| / h, the sum running over the terms
    the bump reaches.

    Both slots are linear in f, so f's slot values us, vs are read once and
    the slots of f + s e_u are us + s eu and vs + s ev, with eu, ev those of
    the basis function e_u, probed at most twice however large N is (see
    _probe_rows).  A term of J before the first sum point where eu or ev is
    nonzero takes the same arguments at every step of the stencil, so its
    difference is exactly 0 and it is not evaluated.  Both backends run one
    loop over chunks of free coordinates, whose probes are (rows x sum
    points) arrays passed whole to eval (see Lagrangian and _stencil_rows):
    as many rows as fit in _ORACLE_CHUNK entries in floats, one in
    rationals, so that each row is evaluated from its own first reached
    sum point.
    """
    lo, hi = p.f_domain()
    f = f.restrict(lo, hi)
    free = p._free()
    if not free:
        raise DomainError("the problem has no free coordinate")
    dtype = object if p.exact else float
    ts, us, vs, fv = (np.array(x, dtype=dtype) for x in
                      (_sum_points(p), *_slots(p, f), f.values))
    if p.exact:      # zero + 1 steps divide even an integer sum exactly
        h, rows = fv * 0 + 1, 1
    else:
        h, rows = 1e-3 * (1 + np.abs(fv)), max(1, _ORACLE_CHUNK // len(ts))
    probes = _probe_rows(p, f)
    out = []
    for k in range(0, len(free), rows):
        chunk = free[k:k + rows]
        eu, ev = probes(k, k + len(chunk))
        out.extend(_stencil_rows(p.lagrangian.eval, ts, us, vs, eu, ev,
                                 h[chunk.start:chunk.stop]).tolist())
    return GridFn(lo + free[0], tuple(out))


# -- Newton solver -----------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """A solve's result; status ("converged", "max_iter" or "stalled")
    and path ("newton" or "continuation") say how it ended (see solve)."""

    f: GridFn
    el_residual: GridFn
    gradient_norm: float
    iterations: int
    status: str
    path: str
    multiplier: Optional[float] = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def max_el_residual(self) -> float:
        return max(abs(v) for v in self.el_residual.values)


def _toeplitz(w, n: int) -> np.ndarray:
    """The n x n lower-triangular Toeplitz matrix T[i, j] = w[i - j]."""
    c = np.zeros(2 * n - 1)                   # c[n - 1 - k] = w[k]
    c[:n] = w[n - 1::-1]
    # window n - 1 - i of c is row i: c[n - 1 - i + j] = w[i - j], or 0
    return sliding_window_view(c, n)[::-1].copy()


class _System:
    """The Newton system of a problem (see the module docstring).  Its
    maps: the unknowns x give u and v at the sum points ts (a float array).
    Each u slot is one value of f: the rows i of u read the free coordinates
    0, 1, ... in order, so u is the offset cu (the boundary values) with
    x[:len(i)] added at the rows i.  The other rows read only boundary
    values, and the later coordinates of x (f(b-1) of a natural CAPUTO
    problem, the multiplier) enter no u slot.  As a map, u = U x + cu with U
    the 0/1 selection of those rows, and U^T y is y[i] in the first len(i)
    coordinates; no code forms U.  The v slots are v = V x + cv.  With L_1,
    L_2 the Lagrangian partials at the sum points, the residual is the
    gradient V^T L_2 + U^T L_1 and the Jacobian its Hessian.  V is a slice
    of one lower-triangular Toeplitz matrix W = T(w(-alpha)) on the N points
    [a, b-1]; w(1-alpha) enters only as boundary vectors.  A difference of a
    w(1-alpha) sum is a w(-alpha) convolution, since w(-1) * w(1-alpha) =
    w(-alpha) (Chu-Vandermonde), so these maps are the operators'
    compositions exactly, and in floats they never difference two sums.  The
    problem's _Case gives su, V = W[1:, lo:] and w(1-alpha)'s role.  A
    border adds the multiplier x[-1], its column c = -reversed(w(1-alpha)[:m])
    and row c f + A, so J stays symmetric; c and A are None without one.

    V^T L_vv V is the product at the system's first Jacobian.  From the
    second on, when L_vv has one value at every sum point, as in both
    built-in Lagrangians, it is that value times the Gram matrix V^T V,
    formed on first use, so a one-step solve holds no more than J.  The
    Gram matrix is the product with L_vv = 1, bit for bit: V^T V of a copy
    of V, since numpy sends V^T V itself to a symmetric BLAS routine that
    rounds otherwise.
    """

    def __init__(self, p: VariationalProblem):
        case, N, al = p._case, p.grid.N, p.alpha.alpha
        m = N - 1                              # sum points a+1 .. b-1
        _el_shift(p)                           # solve ends in el_residual
        W = _toeplitz(weights(-al, m), N)
        Mv, su, c = W[1:, case.lo:], case.su, None
        if case.w1_column:                     # the point f(a)
            Mv[:, 0] = -weights(1 - al, m)[:m]
        if case.border:                        # L_2(b)'s column
            c = -weights(1 - al, m)[m - 1::-1]

        # f on f_domain() at x = 0: the fixed boundary values
        fixed = np.zeros(N - case.lo)
        if case.fix_lo:
            fixed[0] = float(p.boundary.A)
        if case.fix_hi:
            fixed[-1] = float(p.boundary.B)
        free = self.free = p._free()
        V = np.zeros((m, len(free) + int(c is not None)))
        V[:, :len(free)] = Mv[:, free.start:free.stop]
        self.lagrangian, self.lo, self.fixed = (p.lagrangian,
                                                p.f_domain()[0], fixed)
        self.ts = np.array(_sum_points(p), dtype=float)
        self.i = np.arange(max(free.start - su, 0), min(free.stop - su, m))
        self.cu, self.V, self.cv, self.c = fixed[su:su + m], V, Mv @ fixed, c
        self.A = None if c is None else float(p.boundary.A)
        self.jacobians, self._gram = 0, None

    def at(self, x: np.ndarray) -> "_Point":
        return _Point(self, x)

    def f(self, x) -> GridFn:
        """f on f_domain(): the fixed boundary values, then x on the free
        coordinates (a multiplier after them is not read)."""
        vals = self.fixed.copy()
        vals[self.free.start:self.free.stop] = x[:len(self.free)]
        return GridFn(self.lo, tuple(vals.tolist()))

    def _vv(self, dvv: np.ndarray) -> np.ndarray:
        """V^T L_vv V: the product, or from the second Jacobian on L_vv's
        one value times the Gram matrix (see the class docstring)."""
        self.jacobians += 1
        if self.jacobians > 1 and (dvv == dvv[0]).all():
            if self._gram is None:
                self._gram = self.V.T @ self.V.copy()
            return dvv[0] * self._gram
        return self.V.T @ (dvv[:, None] * self.V)


class _Point:
    """The system at x: the residual r (see _System), and the Jacobian from
    the same u, v and partials when asked for; each partial is called at
    most once, on arrays of all the sum points, a scalar result broadcast."""

    def __init__(self, system: _System, x: np.ndarray):
        s = self.system = system
        self.x = x
        u = s.cu.copy()
        u[s.i] += x[:len(s.i)]
        self._uv = u, s.V @ x + s.cv
        l1, l2 = self._partials("d_u", "d_v")
        r = s.V.T @ l2
        r[:len(s.i)] += l1[s.i]
        if s.c is not None:
            r[:-1] += x[-1] * s.c
            r[-1] = s.c @ x[:-1] + s.A
        self.r = r

    def _partials(self, *names) -> list:
        ts = self.system.ts
        lag = self.system.lagrangian
        out = [np.asarray(getattr(lag, name)(ts, *self._uv), dtype=float)
               for name in names]
        return [y if y.shape == ts.shape else np.broadcast_to(y, ts.shape)
                for y in out]

    @cached_property
    def _second(self) -> list:
        return self._partials("d_uu", "d_uv", "d_vv")

    def jacobian(self) -> np.ndarray:
        """The Hessian of J on the free coordinates, V^T (L_uv U + L_vv V) +
        U^T (L_uu U + L_uv V), bordered in the RIEMANN_B fixed case:
        symmetric in every formulation.  U^T selects the rows i (see
        _System), so the U terms are added without forming U: B = (L_uv V)[i]
        as the first len(i) rows and, transposed, columns, and L_uu[i] on
        the diagonal.  B is skipped when L_uv is zero, as in both built-in
        Lagrangians."""
        s = self.system
        duu, duv, dvv = self._second
        J = s._vv(dvv)
        n = len(s.i)
        if duv.any():
            B = duv[s.i, None] * s.V[s.i]
            J[:n] += B
            J[:, :n] += B.T
        # J[:n, :n]'s diagonal
        J.ravel()[:n * (len(J) + 1):len(J) + 1] += duu[s.i]
        if s.c is not None:
            J[:-1, -1] = J[-1, :-1] = s.c
        return J

    @cached_property
    def step(self) -> "_Point":
        """The point one full Newton step on, formed once; LinAlgError when
        J is singular."""
        return self.system.at(
            self.x + np.linalg.solve(self.jacobian(), -self.r))


# A solve's continuation takes at most _PATH_STEPS * max_iter predictor
# steps over its traces: 100 at the default max_iter = 50, where the
# benchmark's continued quartic problems at N = 64 (seeds 1101-1110) took
# 45 in the median and 82 at most.
_PATH_STEPS = 2
# Predictor step sizes, in arclength of (x, lam): the first, the largest,
# and the floor below which a trace ends.
_H_START, _H_MAX, _H_MIN = 0.1, 1.0, 1e-6
# The corrector accepts a point once the error left, estimated from the
# contraction of its last two corrections, is at most _CTOL (1 + |y|); it
# fails when a correction does not shrink by _CONTRACT or after
# _CORRECTOR_ITER of them.  A step accepted after at most _FAST corrections
# doubles the next one.
_CTOL, _CONTRACT, _CORRECTOR_ITER, _FAST = 1e-4, 0.5, 5, 2


def _newton(point: _Point, tol: float, max_iter: int):
    """Full Newton steps from point for as long as each one lowers |r|_2 or
    meets max |r| <= tol, up to max_iter of them.  Returns (point, steps,
    status): the last accepted point, the steps taken and "converged",
    "max_iter" or "stalled"; a rejected step, a singular Jacobian or a
    non-finite step stalls the run.  A converged point forms no Jacobian."""
    steps = 0
    while not np.max(np.abs(point.r)) <= tol:
        if steps == max_iter:
            return point, steps, "max_iter"
        try:
            cand = point.step
        except np.linalg.LinAlgError:
            return point, steps, "stalled"
        if not (np.max(np.abs(cand.r)) <= tol
                or np.linalg.norm(cand.r) < np.linalg.norm(point.r)):
            return point, steps, "stalled"
        point = cand
        steps += 1
    return point, steps, "converged"


def _correct(system: _System, r0, M, rhs, z):
    """Newton's method on H(y) = 0 within the hyperplane through the
    predictor z normal to the tangent t, which borders M (see _path).
    Returns (y, the next tangent unnormalised, corrections), or None when
    the corrector fails (see _CTOL) or H turns non-finite or M singular.

    Each iteration evaluates the system once at z and solves M once with
    two right-hand sides: (-H, 0), the correction, which keeps
    t^T (y - z) = 0, and (0, 1), whose solution solves J s + R(x0) s_lam = 0
    and t^T s = 1: the tangent at y, oriented along t."""
    n, prev = len(r0), np.inf
    for k in range(1, _CORRECTOR_ITER + 1):
        point = system.at(z[:-1])
        H = point.r - (1 - z[-1]) * r0
        if not np.isfinite(H).all():
            return None
        M[:n, :n], rhs[:n, 0] = point.jacobian(), -H
        try:
            dz, tz = np.linalg.solve(M, rhs).T
        except np.linalg.LinAlgError:
            return None
        z = z + dz
        size = np.linalg.norm(dz)
        left = size if k == 1 else size * size / prev
        if left <= _CTOL * (1 + np.linalg.norm(z)):
            return z, tz, k
        if not size <= _CONTRACT * prev:
            return None
        prev = size
    return None


def _path(start: _Point):
    """Pseudo-arclength continuation (Keller) of the Newton homotopy
    H(x, lam) = R(x) - (1 - lam) R(x0) from (x0, 0), x0 = start.x.  Yields,
    per predictor step, the accepted path point y = (x, lam) and its unit
    tangent t, or None when the step was rejected.  Ends when the step size
    falls below _H_MIN, or at once when R(x0) is not finite or J(x0)
    singular.

    The path passes folds of lam, where J is singular but the bordered
    matrix M = [[J, R(x0)], [t^T, 0]] is not, and keeps its direction:
    t^T t_prev > 0 (see _correct).  The first tangent solves M bordered by
    e_lam instead, so it is (dx0, 1) normalised, dx0 the Newton step at x0.
    The step size starts at _H_START; an accepted step may double it, up
    to _H_MAX (see _FAST), and a rejected one is retried at half the
    size."""
    n = len(start.x)
    r0 = start.r
    if not np.isfinite(r0).all():
        return
    M = np.zeros((n + 1, n + 1))
    M[:n, :n], M[:n, n], M[n, n] = start.jacobian(), r0, 1.0
    rhs = np.zeros((n + 1, 2))
    rhs[n, 1] = 1.0
    try:
        t = np.linalg.solve(M, rhs[:, 1])
    except np.linalg.LinAlgError:
        return
    t /= np.linalg.norm(t)
    y, h = np.append(start.x, 0.0), _H_START
    while h >= _H_MIN:
        M[n] = t
        got = _correct(start.system, r0, M, rhs, y + h * t)
        if got is None:
            h /= 2
            yield None
            continue
        y, t, k = got
        t /= np.linalg.norm(t)
        if k <= _FAST:
            h = min(2 * h, _H_MAX)
        yield y, t


def _continue(start: _Point, tol: float, max_iter: int):
    """The continuation of a solve whose full Newton steps from start
    stalled (see solve).  Returns (x, steps, status): x is the converged
    point's unknowns, or None unless status is "converged"; steps counts
    the predictor and final Newton steps."""
    try:
        starts = (start, start.step)
    except np.linalg.LinAlgError as exc:
        raise DomainError("singular Jacobian in Newton solve") from exc
    budget, steps = _PATH_STEPS * max_iter, 0
    for trace in starts:
        prev = np.append(trace.x, 0.0)
        for point in islice(_path(trace), budget):
            budget, steps = budget - 1, steps + 1
            if point is None:
                continue
            y = point[0]
            if (prev[-1] < 1) != (y[-1] < 1):
                # x at lam = 1, on the chord between the two path points
                s = (1 - prev[-1]) / (y[-1] - prev[-1])
                x1 = prev[:-1] + s * (y[:-1] - prev[:-1])
                end, more, status = _newton(start.system.at(x1), tol,
                                            max_iter)
                steps += more
                if status == "converged":
                    return end.x, steps, status
            prev = y
    return None, steps, "max_iter" if budget == 0 else "stalled"


def solve(p: VariationalProblem, initial: Optional[GridFn] = None,
          tol: float = 1e-10, max_iter: int = 50) -> Solution:
    """Newton's method on the square residual system (float backend),
    continued along a homotopy path when full steps stall.

    Convergence means max |residual row| <= tol; the returned gradient_norm
    is recomputed independently by the gradient oracle (projected onto the
    constraint manifold in the RIEMANN_B fixed case).

    From the start x0 (zero, or initial on the free coordinates) the solve
    takes full Newton steps for as long as each one lowers |r|_2 or meets
    tol, up to max_iter of them; a solve that ends there has path "newton".
    When a full step fails to lower |r|_2 (path "continuation"), the solve
    traces the Newton homotopy R(x) - (1 - lam) R(x0) from (x0, 0) by
    pseudo-arclength continuation (see _path).  Where the trace crosses
    lam = 1 it interpolates x between the two path points around the
    crossing and finishes with full Newton steps, as above; if they fail,
    the trace goes on to its next crossing.  A trace that ends without a
    converged crossing is followed by a second from x0 + dx0, dx0 the
    Newton step at x0.  The traces share a budget of _PATH_STEPS * max_iter
    predictor steps, accepted or rejected.

    iterations counts the full Newton steps, the predictor steps and the
    final Newton steps.  status is "converged"; "max_iter" when the Newton
    steps or the predictor budget ran out; or "stalled" when a full step
    failed and the traces ended without converging.  An unconverged solve
    returns the last iterate of its first full Newton steps.  A singular
    Jacobian at x0 raises DomainError.  One _System, built here, evaluates
    every point of the solve.
    """
    if p.exact:
        raise DomainError("solve runs in the float backend")
    system = _System(p)
    c = system.c
    x0 = np.zeros(system.V.shape[1])           # a multiplier starts at 0
    if initial is not None:
        free = p.free_points()
        x0[:len(free)] = initial.restrict(free[0], free[-1]).values
    start = system.at(x0)
    end, iterations, status = _newton(start, tol, max_iter)
    x, path = end.x, "newton"
    if status == "stalled":
        path = "continuation"
        xc, steps, status = _continue(start, tol, max_iter)
        iterations += steps
        if status == "converged":
            x = xc

    lam = None if c is None else float(x[-1])
    f = system.f(x)
    el = el_residual(p, f, l2_at_b=lam)
    grad = gradient_oracle(p, f)
    gvals = np.array(grad.values, dtype=float)
    if c is not None:
        gvals = gvals + lam * c                # the multiplier's column
    return Solution(f=f, el_residual=el,
                    gradient_norm=float(np.max(np.abs(gvals))),
                    iterations=iterations, status=status, path=path,
                    multiplier=lam)
