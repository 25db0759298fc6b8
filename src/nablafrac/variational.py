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
              endpoints f(a) = A, f(b-1) = B fixed, or natural conditions
              on _b nabla^{-(1-alpha)} L_2 at a and b-1.

The Euler-Lagrange residuals assembled here coincide with the partial
derivatives of J on the free coordinates; the gradient oracle recomputes
those derivatives by direct differencing of J and never touches the
operator-based assembly.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import DomainError, Grid, GridFn, _offset, shift_sigma
from .numerics import FracOrder, weights
from .operators import (caputo_left, caputo_right, nabla_left_riemann,
                        nabla_right_riemann, nabla_right_sum_fn,
                        operator_matrix)

__all__ = ["Lagrangian", "Formulation", "Boundary", "VariationalProblem",
           "Solution", "action", "first_variation", "eta_shift_decomposition",
           "el_residual", "el_residual_forms", "gradient_oracle", "solve"]


@dataclass(frozen=True)
class Lagrangian:
    """L(t, u, v) with first and second partials in the u and v slots."""

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

    def check_partials(self, rel_tol: float = 1e-6) -> None:
        """Float-mode self check: analytic first partials against central
        differences of eval at a few probe points."""
        h = 1e-6
        for t, u, v in ((0.0, 0.7, -0.4), (2.0, -1.3, 0.9), (5.0, 0.2, 1.7)):
            fd_u = (self.eval(t, u + h, v) - self.eval(t, u - h, v)) / (2 * h)
            fd_v = (self.eval(t, u, v + h) - self.eval(t, u, v - h)) / (2 * h)
            for got, want, slot in ((self.d_u(t, u, v), fd_u, "u"),
                                    (self.d_v(t, u, v), fd_v, "v")):
                if abs(got - want) > rel_tol * (1 + abs(want)):
                    raise ValueError(
                        f"Lagrangian {self.name}: d_{slot} disagrees with "
                        f"central differences at (t,u,v)=({t},{u},{v})")


class Formulation(enum.Enum):
    RIEMANN_A = "riemann_a"
    RIEMANN_B = "riemann_b"
    CAPUTO = "caputo"


@dataclass(frozen=True)
class Boundary:
    """Boundary data.  kind='fixed' fixes f(a)=A (RIEMANN_A), the terminal
    fractional sum (RIEMANN_B), or f(a)=A and f(b-1)=B (CAPUTO);
    kind='natural' leaves endpoints free."""

    kind: str
    A: object = None
    B: object = None


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
        a = self.alpha
        a.require_noninteger("variational formulations")
        if self.formulation is Formulation.RIEMANN_A:
            if self.boundary.kind != "fixed" or self.boundary.A is None:
                raise DomainError("RIEMANN_A requires fixed f(a) = A")
        else:
            if not 0 < a.alpha < 1:
                raise DomainError(
                    f"{self.formulation.value} requires 0 < alpha < 1")
        if self.boundary.kind not in ("fixed", "natural"):
            raise DomainError(f"unknown boundary kind {self.boundary.kind!r}")
        if self.formulation is Formulation.RIEMANN_B \
                and self.boundary.kind == "fixed" and self.boundary.A is None:
            raise DomainError("RIEMANN_B fixed case requires the terminal "
                              "fractional sum value A")
        if self.formulation is Formulation.CAPUTO \
                and self.boundary.kind == "fixed" \
                and (self.boundary.A is None or self.boundary.B is None):
            raise DomainError("CAPUTO fixed case requires both A and B")
        if not self.exact:
            self.lagrangian.check_partials()

    # domain of f required by the formulation
    def f_domain(self):
        a, b = self.grid.a, self.grid.b
        if self.formulation is Formulation.RIEMANN_B:
            return a + 1, b - 1
        return a, b - 1

    def _free(self) -> range:
        """Indices of the free coordinates in the f_domain() vector."""
        N = self.grid.N
        if self.formulation is Formulation.RIEMANN_B:
            return range(N - 1)
        if self.formulation is Formulation.RIEMANN_A:
            return range(1, N)                 # f(a) fixed
        if self.boundary.kind == "fixed":
            return range(1, N - 1)             # f(a), f(b-1) fixed
        return range(N)

    def free_points(self):
        lo = self.f_domain()[0]
        return [lo + k for k in self._free()]


def _sum_points(p: VariationalProblem):
    a = p.grid.a
    return [a + k for k in range(1, p.grid.N)]


def _v_fn(p: VariationalProblem, f: GridFn) -> GridFn:
    """The formulation's fractional slot as a grid function on [a+1, b-1]."""
    a, b = p.grid.a, p.grid.b
    form = p.formulation
    if form is Formulation.RIEMANN_A:
        return nabla_left_riemann(f, p.alpha, a - 1).restrict(a + 1, b - 1)
    if form is Formulation.RIEMANN_B:
        return nabla_left_riemann(f.restrict(a + 1, b - 1), p.alpha, a)
    return caputo_left(f, p.alpha, a).restrict(a + 1, b - 1)


def _u_of(p: VariationalProblem, f: GridFn, t):
    if p.formulation is Formulation.CAPUTO:
        return f(t - 1)
    return f(t)


def action(p: VariationalProblem, f: GridFn):
    """J(f) = sum over t = a+1 .. b-1 of L(t, u(t), v(t))."""
    lo, hi = p.f_domain()
    f = f.restrict(lo, hi)
    v = _v_fn(p, f)
    return sum(p.lagrangian.eval(t, _u_of(p, f, t), v(t))
               for t in _sum_points(p))


def _l1_l2(p: VariationalProblem, f: GridFn):
    v = _v_fn(p, f)
    pts = _sum_points(p)
    l1 = GridFn(pts[0], tuple(
        p.lagrangian.d_u(t, _u_of(p, f, t), v(t)) for t in pts))
    l2 = GridFn(pts[0], tuple(
        p.lagrangian.d_v(t, _u_of(p, f, t), v(t)) for t in pts))
    return l1, l2


def first_variation(p: VariationalProblem, f: GridFn, eta: GridFn):
    """Directional derivative of J at f along eta:
    sum of eta-slot * L_1 + (D^alpha eta) * L_2 over t = a+1 .. b-1."""
    lo, hi = p.f_domain()
    f = f.restrict(lo, hi)
    eta = eta.restrict(lo, hi)
    l1, l2 = _l1_l2(p, f)
    d_eta = _v_fn(p, eta)
    total = None
    for t in _sum_points(p):
        term = _u_of(p, eta, t) * l1(t) + d_eta(t) * l2(t)
        total = term if total is None else total + term
    return total


def eta_shift_decomposition(eta: GridFn, alpha, a, t):
    """Split (nabla_{a-1}^alpha eta)(t) into (nabla_a^alpha eta)(t) plus the
    correction carried by eta(a).

    The correction is eta(a) * w_{t-a}(-alpha) = eta(a) *
    (t-a+1)^{rising(-alpha-1)} / Gamma(-alpha); the two parts sum to the
    a-1 anchored difference exactly.
    """
    alpha = alpha if isinstance(alpha, FracOrder) else FracOrder(alpha)
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


def _el_riemann_b(p: VariationalProblem, f: GridFn, l2_at_b=None) -> GridFn:
    """E2 residual with the v-partial extended to t = b."""
    l1, l2x = _l1_l2_to_b(p, f, l2_at_b)
    cr = caputo_right(l2x, p.alpha, p.grid.b + 1, truncate=True)
    return GridFn(l1.lo, tuple(l1(t) + cr(t) for t in _sum_points(p)))


def el_residual_forms(p: VariationalProblem, f: GridFn, l2_at_b=None):
    """The two algebraically equal assemblies of the second-formulation
    residual: through the v-partial shifted down and differentiated from b,
    and through the unshifted v-partial differentiated from b + 1.  Returns
    (shifted_form, direct_form), both on [a + 1, b - 1]."""
    if p.formulation is not Formulation.RIEMANN_B:
        raise DomainError("residual forms exist only for the terminal-sum "
                          "formulation")
    lo, hi = p.f_domain()
    f = f.restrict(lo, hi)
    l1, l2x = _l1_l2_to_b(p, f, l2_at_b)
    cr = caputo_right(shift_sigma(l2x), p.alpha, p.grid.b, truncate=True)
    shifted = GridFn(l1.lo, tuple(l1(s) + cr(s - 1) for s in _sum_points(p)))
    return shifted, _el_riemann_b(p, f, l2_at_b)


def el_residual(p: VariationalProblem, f: GridFn,
                l2_at_b=None) -> GridFn:
    """Euler-Lagrange residual on the formulation's stated index range:

    RIEMANN_A : L_1(s) + (_b nabla^alpha L_2)(s),        s in [a+1, b-1]
    RIEMANN_B : L_1(s) + (C_{b+1}-nabla^alpha L_2)(s),   s in [a+1, b-1]
    CAPUTO    : L_1(s+1) + (_b nabla^alpha L_2)(s),      s in [a+1, b-2]

    l2_at_b overrides the RIEMANN_B extension value of L_2 at t = b.
    """
    lo, hi = p.f_domain()
    f = f.restrict(lo, hi)
    a, b = p.grid.a, p.grid.b
    if p.formulation is Formulation.RIEMANN_B:
        return _el_riemann_b(p, f, l2_at_b)
    l1, l2 = _l1_l2(p, f)
    rr = nabla_right_riemann(l2, p.alpha, b)
    if p.formulation is Formulation.RIEMANN_A:
        return GridFn(l1.lo, tuple(l1(t) + rr(t) for t in _sum_points(p)))
    if p.grid.N < 3:
        raise DomainError("CAPUTO residual needs b - a >= 3")
    pts = [a + k for k in range(1, p.grid.N - 1)]
    return GridFn(pts[0], tuple(l1(s + 1) + rr(s) for s in pts))


def gradient_oracle(p: VariationalProblem, f: GridFn) -> GridFn:
    """dJ/df(u) on the free coordinates, by direct differencing of the
    action.

    Float backend: central differences with step 1e-6 (1 + |f(u)|).  Exact
    backend: the five-point first-derivative stencil with unit steps, which
    differentiates polynomial Lagrangians of degree <= 5 exactly.
    """
    lo, hi = p.f_domain()
    f = f.restrict(lo, hi)
    free = p._free()

    def bumped(i, step):
        vals = list(f.values)
        vals[i] += step
        return GridFn(lo, tuple(vals))

    out = []
    for i in free:
        if p.exact:
            one = f.values[0] * 0 + 1
            pm = [action(p, bumped(i, one * s)) for s in (-2, -1, 1, 2)]
            out.append((pm[0] - 8 * pm[1] + 8 * pm[2] - pm[3]) / 12)
        else:
            h = 1e-6 * (1 + abs(f.values[i]))
            out.append((action(p, bumped(i, h)) - action(p, bumped(i, -h)))
                       / (2 * h))
    return GridFn(lo + free[0], tuple(out))


# -- Newton solver -----------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    f: GridFn
    el_residual: GridFn
    gradient_norm: float
    iterations: int
    converged: bool
    multiplier: Optional[float] = None

    @property
    def max_el_residual(self) -> float:
        return max(abs(v) for v in self.el_residual.values)


def _terminal_sum_weights(p: VariationalProblem) -> np.ndarray:
    """Coefficients of f(a+1..b-1) in nabla_a^{-(1-alpha)} f(b-1)."""
    return np.array(weights(1 - p.alpha.alpha, p.grid.N - 2)[::-1],
                    dtype=float)


def _f_vector(p: VariationalProblem, x) -> np.ndarray:
    """Values on f_domain(): the fixed boundary values, then x on the free
    coordinates."""
    lo, hi = p.f_domain()
    vals = np.zeros(_offset(hi, lo) + 1)
    free = p._free()
    if free.start == 1:
        vals[0] = float(p.boundary.A)
    if free.stop == len(vals) - 1:
        vals[-1] = float(p.boundary.B)
    vals[free] = x
    return vals


def _build_f(p: VariationalProblem, x: Sequence[float]) -> GridFn:
    return GridFn(p.f_domain()[0], tuple(_f_vector(p, x).tolist()))


def _natural_boundary_sums(p: VariationalProblem, f: GridFn):
    """CAPUTO natural conditions: _b nabla^{-(1-alpha)} L_2 at a and b-1.

    L_2 at t = a is evaluated with v = 0 (empty Caputo sum) and u = f(a)
    standing in for the unavailable f(a-1)."""
    a, b = p.grid.a, p.grid.b
    _, l2 = _l1_l2(p, f)
    l2a = p.lagrangian.d_v(a, f(a), f(a) * 0)
    l2x = GridFn(a, (l2a,) + l2.values)            # on [a, b-1]
    rs = nabla_right_sum_fn(l2x, 1 - p.alpha.alpha, b)
    return rs(a), rs(b - 1)


def _residual_vector(p: VariationalProblem, x: np.ndarray) -> np.ndarray:
    form, bnd = p.formulation, p.boundary
    constrained = form is Formulation.RIEMANN_B and bnd.kind == "fixed"
    lam = x[-1] if constrained else None
    f = _build_f(p, x[:-1] if constrained else x)
    if form is Formulation.RIEMANN_B:
        rows = list(_el_riemann_b(p, f, lam).values)
        if constrained:
            c = _terminal_sum_weights(p)
            rows.append(sum(ci * v for ci, v in zip(c, f.values))
                        - float(bnd.A))
    else:
        rows = list(el_residual(p, f).values)
        if form is Formulation.CAPUTO and bnd.kind == "natural":
            rows.extend(_natural_boundary_sums(p, f))
    return np.array(rows, dtype=float)


def _jacobian(p: VariationalProblem, x: np.ndarray, assembly) -> np.ndarray:
    """Jacobian by the chain rule through the constant operator matrices."""
    U, cu, V, cv, P, Q, extra = assembly
    form, bnd = p.formulation, p.boundary
    constrained = form is Formulation.RIEMANN_B and bnd.kind == "fixed"
    xf = x[:-1] if constrained else x
    u = U @ xf + cu
    v = V @ xf + cv
    pts = _sum_points(p)
    lag = p.lagrangian
    duu = np.array([lag.d_uu(t, ui, vi) for t, ui, vi in zip(pts, u, v)])
    duv = np.array([lag.d_uv(t, ui, vi) for t, ui, vi in zip(pts, u, v)])
    dvv = np.array([lag.d_vv(t, ui, vi) for t, ui, vi in zip(pts, u, v)])
    dl1 = duu[:, None] * U + duv[:, None] * V
    dl2 = duv[:, None] * U + dvv[:, None] * V
    core = P @ dl1 + Q @ dl2
    return extra(core, u, v, dl2)


def _assembly(p: VariationalProblem):
    """Constant matrices: slot maps U, V (with offsets cu, cv from boundary
    values) and residual maps P (L_1 factor) and Q (the right fractional
    operator acting on L_2), plus a closure appending constraint and natural
    condition rows."""
    a, b = p.grid.a, p.grid.b
    form, bnd = p.formulation, p.boundary
    free = p._free()
    lo, hi = p.f_domain()
    pts = _sum_points(p)

    # map full f-vector -> free part + constant part
    fixed = _f_vector(p, 0.0)

    def vmap(e_full: GridFn) -> np.ndarray:
        return np.array(_v_fn(p, e_full).values, dtype=float)

    _, rows = operator_matrix(
        lambda e: GridFn(pts[0], tuple(vmap(e))), lo, hi, 1.0, 0.0)
    Mv = np.array(rows)
    V = Mv[:, free]
    cv = Mv @ fixed

    # u slot at t = a+1 .. b-1: f(t) (Riemann) or f(t-1) (Caputo)
    shift = 1 if form is Formulation.CAPUTO else 0
    Mu = np.eye(len(pts), len(fixed), 1 - shift - _offset(lo, a))
    U = Mu[:, free]
    cu = Mu @ fixed

    # right operator acting on L_2 over [a+1, b-1]
    if form is Formulation.RIEMANN_B:
        def qop(e):
            ext = GridFn(e.lo, e.values + (0.0,))
            out = caputo_right(ext, p.alpha, b + 1, truncate=True)
            return out.restrict(a + 1, b - 1)
    else:
        def qop(e):
            return nabla_right_riemann(e, p.alpha, b)
    _, qrows = operator_matrix(qop, pts[0], pts[-1], 1.0, 0.0)
    Qfull = np.array(qrows)

    if form is Formulation.CAPUTO:
        # rows s = a+1 .. b-2 pair L_1(s+1) with the operator at s
        Q = Qfull[:-1]
        P = np.eye(len(pts) - 1, len(pts), 1)
    else:
        Q = Qfull
        P = np.eye(len(pts))

    wlam = _terminal_sum_weights(p) if form is Formulation.RIEMANN_B else None

    def extra(core, u, v, dl2):
        if form is Formulation.RIEMANN_B and bnd.kind == "fixed":
            # multiplier column on the EL rows, then the constraint row
            top = np.hstack([core, -wlam[:, None]])
            bottom = np.hstack([wlam, [0.0]])
            return np.vstack([top, bottom])
        if form is Formulation.CAPUTO and bnd.kind == "natural":
            # natural rows are right sums of L_2 over [a, b-1]; the t = a
            # slot has v = 0 and u = f(a)
            wnat = np.array(weights(1 - p.alpha.alpha, p.grid.N - 1),
                            dtype=float)
            dl2a = np.zeros(core.shape[1])
            dl2a[0] = float(p.lagrangian.d_uv(a, u[0], 0.0))  # f(a) is free
            row_a = wnat[1:p.grid.N] @ dl2 + wnat[0] * dl2a
            row_b1 = dl2[-1, :]
            return np.vstack([core, row_a, row_b1])
        return core

    return U, cu, V, cv, P, Q, extra


def solve(p: VariationalProblem, initial: Optional[GridFn] = None,
          tol: float = 1e-10, max_iter: int = 50) -> Solution:
    """Damped Newton on the square residual system (float backend).

    Convergence means max |residual row| <= tol; the returned gradient_norm
    is recomputed independently by the gradient oracle (projected onto the
    constraint manifold in the RIEMANN_B fixed case).
    """
    if p.exact:
        raise DomainError("solve runs in the float backend")
    constrained = (p.formulation is Formulation.RIEMANN_B
                   and p.boundary.kind == "fixed")
    free = p.free_points()
    m = len(free) + (1 if constrained else 0)
    if initial is None:
        x = np.zeros(m)
    else:
        x = np.array([float(initial(t)) for t in free] +
                     ([0.0] if constrained else []))
    assembly = _assembly(p)
    r = _residual_vector(p, x)
    iterations = 0
    converged = bool(np.max(np.abs(r)) <= tol)
    while not converged and iterations < max_iter:
        J = _jacobian(p, x, assembly)
        try:
            dx = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise DomainError("singular Jacobian in Newton solve") from exc
        step, best = 1.0, None
        for _ in range(30):
            cand = x + step * dx
            rc = _residual_vector(p, cand)
            if np.linalg.norm(rc) < np.linalg.norm(r) \
                    or np.max(np.abs(rc)) <= tol:
                best = (cand, rc)
                break
            step /= 2
        if best is None:
            break
        x, r = best
        iterations += 1
        converged = bool(np.max(np.abs(r)) <= tol)

    lam = float(x[-1]) if constrained else None
    f = _build_f(p, x[:-1] if constrained else x)
    el = el_residual(p, f, l2_at_b=lam) \
        if p.formulation is Formulation.RIEMANN_B else el_residual(p, f)
    grad = gradient_oracle(p, f)
    gvals = np.array(grad.values, dtype=float)
    if constrained:
        gvals = gvals - lam * _terminal_sum_weights(p)
    return Solution(f=f, el_residual=el,
                    gradient_norm=float(np.max(np.abs(gvals))),
                    iterations=iterations, converged=converged,
                    multiplier=lam)
