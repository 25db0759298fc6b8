import math
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from nablafrac.backend import rational
from nablafrac.grid import DomainError, Grid, GridFn, shift_sigma
from nablafrac.identities import FLOAT_TOLERANCE
from nablafrac import variational
from nablafrac.numerics import FracOrder, weights
from nablafrac.operators import (caputo_right, nabla_left_riemann,
                                 nabla_left_sum, nabla_left_sum_fn,
                                 nabla_right_riemann, nabla_right_sum_fn,
                                 operator_matrix)
from nablafrac.variational import (Boundary, Formulation, Lagrangian,
                                   VariationalProblem, _sum_points, _System,
                                   _v_fn, action,
                                   el_residual, el_residual_forms,
                                   eta_shift_decomposition, first_variation,
                                   gradient_oracle, solve)


def rat(text):
    return rational(text)


def random_fn(seed, lo, hi):
    rng = random.Random(seed)
    return GridFn(lo, tuple(rational(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(int(hi - lo) + 1)))


def _u_of(p, f, t):
    """The u slot at t, point by point: the reference for its slices."""
    return f(t - 1) if p.formulation is Formulation.CAPUTO else f(t)


# L = u^2/2 + |v|^(3/2): L_vv = 3/4 |v|^(-1/2) varies with v, and is
# infinite at v = 0
THREE_HALVES = Lagrangian(
    "three-halves", eval=lambda t, u, v: u * u / 2 + abs(v) ** 1.5,
    d_u=lambda t, u, v: u,
    d_v=lambda t, u, v: 1.5 * np.copysign(abs(v) ** 0.5, v),
    d_uu=lambda t, u, v: 1.0, d_uv=lambda t, u, v: 0.0,
    d_vv=lambda t, u, v: 0.75 * abs(v) ** -0.5)


def make_problem(form, bnd, alpha="1/2", N=8, lag=None, exact=True):
    lag = lag or Lagrangian.quadratic_potential(
        rat("3/2") if exact else 1.5)
    return VariationalProblem(Grid(0, N), FracOrder.parse(alpha, exact),
                              form, bnd, lag, exact=exact)


class TestLagrangian:
    def test_partials_self_check_passes(self):
        Lagrangian.quadratic_potential(2.0).check_partials()
        Lagrangian.quartic_potential().check_partials()

    def test_partials_self_check_catches_errors(self):
        bad = Lagrangian("bad", eval=lambda t, u, v: u * u,
                         d_u=lambda t, u, v: u,  # should be 2u
                         d_v=lambda t, u, v: 0.0,
                         d_uu=lambda t, u, v: 1.0,
                         d_uv=lambda t, u, v: 0.0,
                         d_vv=lambda t, u, v: 0.0)
        with pytest.raises(ValueError):
            bad.check_partials()

    def test_eval_must_take_arrays(self):
        # math.sin takes scalars only; the oracle calls eval on arrays in
        # both backends
        lag = Lagrangian("sine", eval=lambda t, u, v: v * v / 2 + math.sin(u),
                         d_u=lambda t, u, v: math.cos(u),
                         d_v=lambda t, u, v: v,
                         d_uu=lambda t, u, v: -math.sin(u),
                         d_uv=lambda t, u, v: 0.0,
                         d_vv=lambda t, u, v: 1.0)
        with pytest.raises(ValueError, match="elementwise on numpy arrays"):
            make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=1.0),
                         lag=lag, exact=False)
        with pytest.raises(ValueError, match="elementwise on numpy arrays"):
            make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")),
                         lag=lag)

    def test_eval_must_be_elementwise(self):
        # a scalar per call passes the scalar probes but not the array one
        lag = Lagrangian("summed",
                         eval=lambda t, u, v: float(np.sum(v * v / 2)),
                         d_u=lambda t, u, v: 0.0, d_v=lambda t, u, v: v,
                         d_uu=lambda t, u, v: 0.0, d_uv=lambda t, u, v: 0.0,
                         d_vv=lambda t, u, v: 1.0)
        with pytest.raises(ValueError, match="elementwise on numpy arrays"):
            lag.check_partials()

    # L = v^2/2 + sin(u) written with numpy; each case swaps in one partial
    # that takes scalars only (math.*) or sums its arrays
    ELEMENTWISE = dict(eval=lambda t, u, v: v * v / 2 + np.sin(u),
                       d_u=lambda t, u, v: np.cos(u), d_v=lambda t, u, v: v,
                       d_uu=lambda t, u, v: -np.sin(u),
                       d_uv=lambda t, u, v: 0.0,
                       d_vv=lambda t, u, v: u * 0 + 1)

    def test_partials_may_return_a_scalar(self):
        Lagrangian("sine", **self.ELEMENTWISE).check_partials()

    def test_exact_eval_must_take_rational_arrays(self):
        # np.sin has no Fraction loop: the float problem builds, the exact
        # one is refused at construction, before any oracle call
        lag = Lagrangian("sine", **self.ELEMENTWISE)
        make_problem(Formulation.RIEMANN_B, Boundary("natural"), lag=lag,
                     exact=False)
        with pytest.raises(ValueError, match="eval must work elementwise "
                           "on numpy arrays") as info:
            make_problem(Formulation.RIEMANN_B, Boundary("natural"), lag=lag)
        assert isinstance(info.value.__cause__, TypeError)

    def test_exact_eval_must_return_rationals(self):
        # a float coefficient turns every exact value into a float
        lag = replace(Lagrangian.quadratic_potential(rat("3/2")),
                      eval=lambda t, u, v: v * v / 2 - 2.25 * u * u / 2)
        make_problem(Formulation.RIEMANN_B, Boundary("natural"), lag=lag,
                     exact=False)
        with pytest.raises(ValueError, match="eval must work elementwise "
                           "on numpy arrays"):
            make_problem(Formulation.RIEMANN_B, Boundary("natural"), lag=lag)

    @pytest.mark.parametrize("name,partial", [
        ("d_u", lambda t, u, v: math.cos(u)),
        ("d_uu", lambda t, u, v: -math.sin(u)),
        ("d_uv", lambda t, u, v: math.copysign(0.0, u)),
        ("d_vv", lambda t, u, v: float(np.sum(u * 0 + 1))),
    ], ids=["d_u", "d_uu", "d_uv", "d_vv-summed"])
    def test_partials_must_be_elementwise(self, name, partial):
        lag = Lagrangian("sine", **dict(self.ELEMENTWISE, **{name: partial}))
        with pytest.raises(ValueError, match=f"{name} must work elementwise "
                           f"on numpy arrays"):
            lag.check_partials()


class TestValidation:
    def test_riemann_a_needs_fixed_start(self):
        with pytest.raises(DomainError):
            make_problem(Formulation.RIEMANN_A, Boundary("natural"))
        make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")))

    def test_riemann_a_allows_large_alpha(self):
        make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")),
                     alpha="5/4")

    def test_unit_interval_for_others(self):
        with pytest.raises(DomainError):
            make_problem(Formulation.RIEMANN_B, Boundary("natural"),
                         alpha="5/4")
        with pytest.raises(DomainError):
            make_problem(Formulation.CAPUTO, Boundary("natural"),
                         alpha="3/2")

    def test_integer_alpha_rejected(self):
        with pytest.raises(DomainError):
            make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")),
                         alpha="2")

    def test_constrained_needs_value(self):
        with pytest.raises(DomainError):
            make_problem(Formulation.RIEMANN_B, Boundary("fixed"))

    def test_caputo_fixed_needs_both(self):
        with pytest.raises(DomainError):
            make_problem(Formulation.CAPUTO, Boundary("fixed", A=rat("1")))

    @staticmethod
    def expected(form, kind, alpha, data):
        """None if the problem builds, else its DomainError's text; the
        checks run in this order."""
        if alpha == "1":
            return "variational formulations requires a non-integer " \
                   "order, got 1"
        if form is Formulation.RIEMANN_A:
            if kind != "fixed" or "A" not in data:
                return "RIEMANN_A requires fixed f(a) = A"
            reads = "A"
        elif alpha == "3/2":
            return f"{form.value} requires 0 < alpha < 1"
        elif kind == "periodic":
            return "unknown boundary kind 'periodic'"
        elif kind == "natural":
            reads = ""
        elif form is Formulation.RIEMANN_B:
            if "A" not in data:
                return "RIEMANN_B fixed case requires the terminal " \
                       "fractional sum value A"
            reads = "A"
        elif data != "AB":
            return "CAPUTO fixed case requires both A and B"
        else:
            reads = "AB"
        # data the case does not read is refused, the first in "AB" order
        unread = [x for x in data if x not in reads]
        return f"{form.name} {kind} case does not read {unread[0]}" \
            if unread else None

    @pytest.mark.parametrize(
        "form,kind,alpha,data",
        list(product(Formulation, ("fixed", "natural", "periodic"),
                     ("1/2", "1", "3/2"), ("", "A", "AB"))),
        ids=lambda v: v.value if isinstance(v, Formulation) else v or "-")
    def test_every_pair_and_message(self, form, kind, alpha, data):
        bnd = Boundary(kind, A=rat("1") if "A" in data else None,
                       B=rat("-1/2") if "B" in data else None)
        want = self.expected(form, kind, alpha, data)
        if want is None:
            make_problem(form, bnd, alpha=alpha)
            return
        with pytest.raises(DomainError) as exc:
            make_problem(form, bnd, alpha=alpha)
        assert str(exc.value) == want


class TestAction:
    def test_zero_function(self):
        p = make_problem(Formulation.RIEMANN_B, Boundary("natural"))
        z = GridFn(1, (rat("0"),) * 7)
        assert action(p, z) == 0

    def test_direct_evaluation_oracle(self):
        # independent evaluation of J through raw weight sums
        alpha = rat("1/2")
        p = make_problem(Formulation.RIEMANN_B, Boundary("natural"), N=4)
        f = random_fn(1, 1, 3)
        total = rat("0")
        w = weights(rat("1/2"), 3)  # order 1-alpha sum weights
        prev = rat("0")
        for t in (1, 2, 3):
            s = sum(w[t - k] * f(k) for k in range(1, t + 1))
            v = s - prev
            prev = s
            total += v * v / 2 - rat("9/4") * f(t) * f(t) / 2
        assert action(p, f) == total


class TestFirstVariation:
    def test_zero_eta(self):
        p = make_problem(Formulation.RIEMANN_B, Boundary("natural"))
        f = random_fn(2, 1, 7)
        z = GridFn(1, (rat("0"),) * 7)
        assert first_variation(p, f, z) == 0

    def test_antisymmetry(self):
        p = make_problem(Formulation.CAPUTO, Boundary("natural"))
        f = random_fn(3, 0, 7)
        eta = random_fn(4, 0, 7)
        minus = GridFn(0, tuple(-v for v in eta.values))
        assert first_variation(p, f, eta) == -first_variation(p, f, minus)

    def test_directional_derivative_exact(self):
        # J is quadratic in epsilon, so the centered two-point formula is
        # exact in the rational backend
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")))
        f = random_fn(5, 0, 7)
        eta = random_fn(6, 0, 7)
        eps = rat("1/7")
        fp = GridFn(0, tuple(v + eps * e for v, e in zip(f.values,
                                                         eta.values)))
        fm = GridFn(0, tuple(v - eps * e for v, e in zip(f.values,
                                                         eta.values)))
        assert first_variation(p, f, eta) == \
            (action(p, fp) - action(p, fm)) / (2 * eps)

    def test_equals_el_pairing_riemann_a(self):
        # sum eta(s) el(s) = delta J(eta, f) when eta(a) = 0
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")))
        f = random_fn(7, 0, 7)
        eta = GridFn(0, (rat("0"),) + random_fn(8, 1, 7).values)
        el = el_residual(p, f)
        paired = sum(eta(s) * el(s) for s in range(1, 8))
        assert paired == first_variation(p, f, eta)


class TestEtaShift:
    def test_zero_at_anchor(self):
        eta = GridFn(0, (rat("0"),) + random_fn(9, 1, 6).values)
        base, corr = eta_shift_decomposition(eta, FracOrder(rat("1/2")), 0, 4)
        assert corr == 0

    def test_reconstruction_exact(self):
        for alpha_text in ("1/3", "1/2", "3/4", "5/4"):
            alpha = FracOrder(rat(alpha_text))
            eta = random_fn(10, 0, 8)
            for t in range(1, 9):
                base, corr = eta_shift_decomposition(eta, alpha, 0, t)
                assert base + corr == nabla_left_riemann(eta, alpha, -1)(t)

    def test_indicator_of_anchor(self):
        alpha = FracOrder(rat("2/3"))
        eta = GridFn(0, (rat("1"),) + (rat("0"),) * 6)
        for t in range(1, 7):
            base, corr = eta_shift_decomposition(eta, alpha, 0, t)
            assert base + corr == nabla_left_riemann(eta, alpha, -1)(t)


class TestElEqualsGradient:
    @pytest.mark.parametrize("alpha_text", ["1/3", "1/2", "3/4", "5/4"])
    def test_riemann_a(self, alpha_text):
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")),
                         alpha=alpha_text)
        f = GridFn(0, (rat("1"),) + random_fn(11, 1, 7).values)
        el = el_residual(p, f)
        g = gradient_oracle(p, f)
        assert all(el(t) == g(t) for t in p.free_points())

    def test_riemann_b_natural(self):
        p = make_problem(Formulation.RIEMANN_B, Boundary("natural"))
        f = random_fn(12, 1, 7)
        el = el_residual(p, f)
        g = gradient_oracle(p, f)
        assert all(el(t) == g(t) for t in p.free_points())

    def test_caputo_fixed(self):
        p = make_problem(Formulation.CAPUTO,
                         Boundary("fixed", A=rat("1"), B=rat("-1/2")))
        f = GridFn(0, (rat("1"),) + random_fn(13, 1, 6).values +
                   (rat("-1/2"),))
        el = el_residual(p, f)
        g = gradient_oracle(p, f)
        assert all(el(t) == g(t) for t in p.free_points())

    def test_caputo_natural_interior(self):
        p = make_problem(Formulation.CAPUTO, Boundary("natural"))
        f = random_fn(14, 0, 7)
        el = el_residual(p, f)
        g = gradient_oracle(p, f)
        assert all(el(t) == g(t) for t in range(1, 7))

    def test_quartic_float(self):
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=0.8),
                         lag=Lagrangian.quartic_potential(), exact=False)
        rng = random.Random(15)
        f = GridFn(0, (0.8,) + tuple(rng.uniform(-1, 1) for _ in range(7)))
        el = el_residual(p, f)
        g = gradient_oracle(p, f)
        assert all(abs(el(t) - g(t)) <= 1e-6 for t in p.free_points())


class TestE2Forms:
    def test_forms_agree_exactly(self):
        p = make_problem(Formulation.RIEMANN_B, Boundary("natural"))
        f = random_fn(16, 1, 7)
        a, b = el_residual_forms(p, f)
        assert a.lo == b.lo and a.values == b.values

    def test_forms_agree_with_extension(self):
        p = make_problem(Formulation.RIEMANN_B,
                         Boundary("fixed", A=rat("1/2")))
        f = random_fn(17, 1, 7)
        a, b = el_residual_forms(p, f, l2_at_b=rat("5/7"))
        assert a.values == b.values

    def test_other_formulations_rejected(self):
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")))
        with pytest.raises(DomainError):
            el_residual_forms(p, random_fn(18, 0, 7))


class TestTranslationInvariance:
    """Operators never read point values and the quadratic Lagrangian does
    not read t, so a solve at a non-integer anchor must reproduce the
    anchor-0 solve."""

    CASES = [(Formulation.RIEMANN_A, "fixed", 0.4),
             (Formulation.RIEMANN_B, "natural", 0.4),
             (Formulation.RIEMANN_B, "fixed", 0.4),
             (Formulation.CAPUTO, "fixed", 0.4),
             (Formulation.CAPUTO, "natural", 0.4),
             (Formulation.RIEMANN_A, "fixed", 1.4)]

    @staticmethod
    def problem(form, kind, alpha, N, anchor):
        bnd = Boundary(kind)
        if kind == "fixed":
            bnd = Boundary("fixed", A=0.8,
                           B=-0.3 if form is Formulation.CAPUTO else None)
        return VariationalProblem(Grid(anchor, anchor + N), FracOrder(alpha),
                                  form, bnd,
                                  Lagrangian.quadratic_potential(1.3))

    def solve_at(self, case, N, anchor):
        p = self.problem(*case, N, anchor)
        initial = None
        if p.boundary.kind == "natural":
            # start away from the zero solution so Newton takes steps
            lo, _ = p.f_domain()
            rng = random.Random(N)
            initial = GridFn(lo, tuple(rng.uniform(-1, 1)
                                       for _ in p.free_points()))
        return solve(p, initial)

    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("case", CASES,
                             ids=lambda c: f"{c[0].value}-{c[1]}-{c[2]}")
    def test_solve_matches_anchor_zero(self, case, N):
        ref = self.solve_at(case, N, 0.0)
        assert ref.converged
        for anchor in (0.1, 1 / 3, 0.7, -2.3):
            sol = self.solve_at(case, N, anchor)
            assert sol.converged, anchor
            assert sol.gradient_norm <= 1e-6, anchor
            assert len(sol.f) == len(ref.f)
            for x, y in zip(sol.f.values, ref.f.values):
                assert abs(x - y) <= FLOAT_TOLERANCE * (
                    1 + max(abs(x), abs(y))), anchor

    def test_oracle_bumps_every_coordinate(self):
        rng = random.Random(19)
        vals = tuple(rng.uniform(-1, 1) for _ in range(15))
        grads = []
        for anchor in (0.0, 1 / 3):
            p = self.problem(Formulation.RIEMANN_B, "fixed", 0.4, 16, anchor)
            grads.append(gradient_oracle(p, GridFn(anchor + 1, vals)).values)
        assert len(grads[1]) == 15
        assert grads[1] == grads[0]


class _ProductSystem(_System):
    """_System with V^T L_vv V formed as the product at every Jacobian, as
    before a solve kept the Gram matrix."""

    def _vv(self, dvv):
        return self.V.T @ (dvv[:, None] * self.V)


class TestSolve:
    def test_quadratic_one_step(self):
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=1.0),
                         exact=False)
        sol = solve(p, tol=1e-12)
        assert sol.converged and sol.iterations == 1
        assert sol.max_el_residual <= 1e-12
        assert sol.gradient_norm <= 1e-8

    def test_quartic_converges(self):
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=0.1),
                         lag=Lagrangian.quartic_potential(), exact=False)
        sol = solve(p, tol=1e-11)
        assert (sol.status, sol.path) == ("converged", "newton")
        assert sol.gradient_norm < 1e-9

    def test_natural_solution_trivial(self):
        p = make_problem(Formulation.RIEMANN_B, Boundary("natural"),
                         exact=False)
        sol = solve(p)
        assert sol.converged
        assert all(v == 0 for v in sol.f.values)

    def test_constrained_multiplier_and_el(self):
        # the EL equations hold at the constrained stationary point with the
        # v-partial extended by the multiplier
        p = make_problem(Formulation.RIEMANN_B, Boundary("fixed", A=0.7),
                         exact=False)
        sol = solve(p, tol=1e-12)
        assert sol.converged
        assert sol.multiplier is not None
        assert sol.max_el_residual <= 1e-9
        assert sol.gradient_norm <= 1e-8
        # the terminal fractional sum hits the prescribed value
        from nablafrac.operators import nabla_left_sum
        got = nabla_left_sum(sol.f, 0.5, 0, 7)
        assert got == pytest.approx(0.7, abs=1e-10)

    def test_caputo_fixed_boundary_respected(self):
        p = make_problem(Formulation.CAPUTO, Boundary("fixed", A=1.0, B=0.5),
                         exact=False)
        sol = solve(p, tol=1e-12)
        assert sol.converged
        assert sol.f(0) == 1.0 and sol.f(7) == 0.5
        assert sol.gradient_norm <= 1e-8

    def test_caputo_fixed_never_reads_the_anchor(self):
        # L = u^2/2 + |v|^(3/2) has d_vv infinite at v = 0; the fixed system
        # sums over a+1 .. b-1 only, so t = a (where v = 0) is never read
        p = make_problem(Formulation.CAPUTO, Boundary("fixed", A=1.0, B=0.5),
                         lag=THREE_HALVES, exact=False)
        sol = solve(p)
        assert sol.converged
        assert sol.f(0) == 1.0 and sol.f(7) == 0.5
        assert sol.gradient_norm <= 1e-8

    # quartic problems at N = 64 on which full Newton steps from zero stall
    STALLS = {
        "riemann_a-converges": (Formulation.RIEMANN_A, 1.7400267356551151,
                                0.08557734934827463, None),
        "caputo-converges": (Formulation.CAPUTO, 0.7402796020105412,
                             0.05334405299466591, 0.0873154604547306),
        "riemann_a-fails": (Formulation.RIEMANN_A, 1.3884480657427773,
                            -0.06247371553300121, None),
        # problems of the solve_newton benchmark (seeds 1101-1110) that
        # damped Newton with an undamped retry failed to solve
        "riemann_a-alpha-0.76": (Formulation.RIEMANN_A, 0.7630205611332143,
                                 -0.06972663739597162, None),
        "riemann_a-alpha-0.82": (Formulation.RIEMANN_A, 0.8174410745198043,
                                 -0.06070122782972964, None),
        "riemann_a-alpha-1.22": (Formulation.RIEMANN_A, 1.2224185204659204,
                                 -0.08901870944982532, None),
        "riemann_a-small-A": (Formulation.RIEMANN_A, 1.718936266030752,
                              -0.005119885579802849, None),
        "caputo-alpha-0.83": (Formulation.CAPUTO, 0.8319029345071227,
                              -0.06504289918475228, -0.061482254402672076),
        "caputo-alpha-0.47": (Formulation.CAPUTO, 0.467584665705162,
                              0.08431741977346405, 0.05092882883944161),
    }

    @classmethod
    def stall(cls, name):
        form, alpha, A, B = cls.STALLS[name]
        return VariationalProblem(Grid(0, 64), FracOrder(alpha), form,
                                  Boundary("fixed", A=A, B=B),
                                  Lagrangian.quartic_potential())

    @staticmethod
    def newton_run(p, x):
        """The full Newton steps of a solve from x, without continuation and
        with the product V^T (L_vv V) in every Jacobian: (last iterate,
        steps, status)."""
        end, steps, status = variational._newton(_ProductSystem(p).at(x),
                                                 1e-10, 50)
        return end.x, steps, status

    @staticmethod
    def quartic_n8():
        # the fixed-start quartic problem at A = 1: full steps from zero
        # stall past the first fold of its solution branch
        return make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=1.0),
                            lag=Lagrangian.quartic_potential(), exact=False)

    @pytest.mark.parametrize("name", [*STALLS, "n8"])
    def test_stalled_solve_converges_by_continuation(self, name):
        p = self.quartic_n8() if name == "n8" else self.stall(name)
        x0 = np.zeros(len(p._free()))
        assert self.newton_run(p, x0)[2] == "stalled"
        sol = solve(p)
        assert (sol.status, sol.path) == ("converged", "continuation")
        assert sol.converged
        assert sol.max_el_residual <= 1e-10 and sol.gradient_norm <= 1e-9

    def test_each_point_evaluated_once(self, monkeypatch):
        # over a continued solve each partial is called at most once at each
        # distinct x (read as its slot values): the residual and the
        # Jacobian at a point share u, v and the partials, and x0, where the
        # first trace starts, is not evaluated again
        names = ("d_u", "d_v", "d_uu", "d_uv", "d_vv")
        calls = Counter()

        def counted(lag):
            def count(partial):
                def call(t, u, v):
                    if np.ndim(u):      # not the GridFn references' calls
                        calls[partial, u.tobytes(), v.tobytes()] += 1
                    return getattr(lag, partial)(t, u, v)
                return call
            return replace(lag, **{name: count(name) for name in names})

        p = self.stall("riemann_a-fails")
        p = replace(p, lagrangian=counted(p.lagrangian))
        calls.clear()                   # the problem's self check
        sol = solve(p)
        assert (sol.status, sol.path) == ("converged", "continuation")
        assert {name for name, *_ in calls} == set(names)
        assert len(calls) > 100 and max(calls.values()) == 1

        # the walled problem also starts a second trace, from the first
        # Newton step x0 + dx0 = 3 (J = I): neither start is evaluated
        # again.  (Its step control meets one predictor point twice.)
        calls.clear()
        sol = solve(self.walled(counted(self.WALLED)))
        assert (sol.status, sol.path) == ("stalled", "continuation")
        zero, three = np.zeros(7).tobytes(), np.full(7, 3.0).tobytes()
        at_starts = {(name, u): n for (name, u, _), n in calls.items()
                     if u in (zero, three)}
        # R(x0 + dx0) is not finite, so no Jacobian is formed there
        assert set(at_starts) == {(name, zero) for name in names} | {
            ("d_u", three), ("d_v", three)}
        assert max(at_starts.values()) == 1

        # a one-step quadratic solve forms one Jacobian and no Gram matrix
        systems = []

        class Recorded(_System):
            def __init__(self, p):
                super().__init__(p)
                systems.append(self)

        monkeypatch.setattr(variational, "_System", Recorded)
        sol = solve(make_problem(Formulation.RIEMANN_A,
                                 Boundary("fixed", A=1.0), exact=False),
                    tol=1e-12)
        assert sol.converged and sol.iterations == 1
        (system,) = systems
        assert system.jacobians == 1 and system._gram is None

    # quartic RIEMANN_A problems of the solve_newton benchmark (seed 2,
    # blocks 51 and 73, N = 64) with |A| < 1e-3
    SMALL_A = [(1.4344350349890858, 0.0006401675272943025),
               (1.3445701948137412, -0.0009440865904320195)]

    @pytest.mark.xfail(strict=True, reason=(
        "after the first full step |r| is about u^3 = 8.5e-8; the quartic's "
        "-3u^2 shift is as small as the least eigenvalue of V^T V, full "
        "steps stall near 1e-7 with cond(J) 1e5-9e5, and the continuation "
        "ends max_iter after 101 iterations"))
    def test_small_amplitude_quartic_converges(self):
        for alpha, A in self.SMALL_A:
            p = VariationalProblem(Grid(0, 64), FracOrder(alpha),
                                   Formulation.RIEMANN_A,
                                   Boundary("fixed", A=A),
                                   Lagrangian.quartic_potential())
            sol = solve(p)
            assert sol.converged, (alpha, sol.status, sol.iterations)
            assert sol.gradient_norm <= 1e-9

    @pytest.mark.parametrize("form,kind,alpha,N,seed", [
        (Formulation.RIEMANN_B, "fixed", 0.8, 16, None),
        (Formulation.CAPUTO, "natural", 0.7, 16, 1)],
        ids=["riemann_b-fixed", "caputo-natural"])
    def test_bordered_and_natural_problems_continue(self, form, kind,
                                                    alpha, N, seed):
        # the multiplier of the bordered problem, and a natural problem's
        # start away from zero, need no code of their own
        bnd = Boundary("fixed", A=0.5) if kind == "fixed" else Boundary(kind)
        p = VariationalProblem(Grid(0, N), FracOrder(alpha), form, bnd,
                               Lagrangian.quartic_potential())
        initial = None
        if seed is not None:
            lo, hi = p.f_domain()
            initial = GridFn(lo, tuple(np.random.default_rng(seed).uniform(
                -1, 1, int(hi - lo) + 1).tolist()))
        sol = solve(p, initial)
        assert (sol.status, sol.path) == ("converged", "continuation")
        assert sol.max_el_residual <= 1e-10 and sol.gradient_norm <= 1e-9
        if kind == "fixed":
            got = nabla_left_sum(sol.f, 1 - alpha, 0, N - 1)
            assert got == pytest.approx(0.5, abs=1e-10)

    def test_full_steps_keep_the_product_bits(self):
        # a solve that converges on full steps takes the Gram matrix from
        # its second Jacobian on, and ends on the bits of Newton's method
        # with the product V^T (L_vv V) at every step
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=0.1),
                         lag=Lagrangian.quartic_potential(), N=64,
                         exact=False)
        x, steps, status = self.newton_run(p, np.zeros(len(p._free())))
        sol = solve(p)
        assert (sol.status, sol.path) == ("converged", "newton")
        assert status == "converged" and steps > 1
        assert sol.iterations == steps
        assert sol.f == _System(p).f(x)

    def test_budget_too_small_reports_max_iter(self):
        # the traces share 2 max_iter predictor steps; an unconverged solve
        # returns the last iterate of its first Newton run
        p = self.stall("riemann_a-fails")
        x, steps, _ = self.newton_run(p, np.zeros(len(p._free())))
        sol = solve(p, max_iter=3)
        assert (sol.status, sol.path) == ("max_iter", "continuation")
        assert not sol.converged
        assert sol.iterations >= steps + 2 * 3
        assert sol.f == _System(p).f(x)

    def test_singular_jacobian_at_the_start_raises(self):
        # L = u + v: every second partial is 0, so J = 0
        lag = Lagrangian("linear", eval=lambda t, u, v: u + v,
                         d_u=lambda t, u, v: 1.0, d_v=lambda t, u, v: 1.0,
                         d_uu=lambda t, u, v: 0.0, d_uv=lambda t, u, v: 0.0,
                         d_vv=lambda t, u, v: 0.0)
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=1.0),
                         lag=lag, exact=False)
        with pytest.raises(DomainError, match="singular Jacobian"):
            solve(p)

    # L_1 = u - 3 up to |u| = 1.5 and infinite past it
    WALLED = Lagrangian(
        "walled", eval=lambda t, u, v: (u - 3) ** 2 / 2,
        d_u=lambda t, u, v: np.where(np.abs(u) <= 1.5, u - 3, np.inf),
        d_v=lambda t, u, v: 0.0, d_uu=lambda t, u, v: 1.0,
        d_uv=lambda t, u, v: 0.0, d_vv=lambda t, u, v: 0.0)

    @staticmethod
    def walled(lag):
        return VariationalProblem(Grid(0, 8), FracOrder(0.5),
                                  Formulation.RIEMANN_B, Boundary("natural"),
                                  lag)

    def test_walled_lagrangian_ends_unconverged(self):
        # the full step lands at u = 3, where the residual is not finite,
        # and the path x = 3 lam of the homotopy runs into the wall at
        # lam = 1/2
        p = self.walled(self.WALLED)
        sol = solve(p)
        assert (sol.status, sol.path) == ("stalled", "continuation")
        assert sol.f == _System(p).f(np.zeros(len(p._free())))

    @pytest.mark.parametrize("bnd", [Boundary("fixed", A=1.0, B=0.5),
                                     Boundary("natural")],
                             ids=lambda b: b.kind)
    def test_caputo_too_short_rejected(self, bnd):
        p = make_problem(Formulation.CAPUTO, bnd, N=2, exact=False)
        with pytest.raises(DomainError):
            solve(p)

    @pytest.mark.parametrize("form,bnd", [
        (Formulation.RIEMANN_A, Boundary("fixed", A=1.0)),
        (Formulation.RIEMANN_B, Boundary("natural")),
        (Formulation.RIEMANN_B, Boundary("fixed", A=1.0))],
        ids=["riemann_a-fixed", "riemann_b-natural", "riemann_b-fixed"])
    def test_shortest_grid_solves(self, form, bnd):
        # b - a = 2 leaves one sum point: enough for every residual but
        # Caputo's, which meets L_1(s + 1) at s
        sol = solve(make_problem(form, bnd, N=2, exact=False))
        assert sol.converged and len(sol.el_residual.values) == 1

    def test_exact_backend_rejected(self):
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=rat("1")))
        with pytest.raises(DomainError):
            solve(p)

    def test_classical_limit(self):
        N, omega, A = 8, 0.5, 1.0
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=A),
                         alpha=str(1 - 1e-6), N=N,
                         lag=Lagrangian.quadratic_potential(omega),
                         exact=False)
        sol = solve(p, tol=1e-12)
        assert sol.converged
        # classical alpha = 1 oscillator as an independent linear solve
        m = N - 1

        def grad(x):
            f = np.concatenate([[A], x])
            g = np.zeros(m)
            for u in range(1, N):
                g[u - 1] = (f[u] - f[u - 1]) - omega ** 2 * f[u]
                if u + 1 < N:
                    g[u - 1] -= f[u + 1] - f[u]
            return g

        g0 = grad(np.zeros(m))
        H = np.column_stack([grad(np.eye(m)[j]) - g0 for j in range(m)])
        classical = np.linalg.solve(H, -g0)
        ours = np.array([sol.f(t) for t in range(1, N)])
        assert np.max(np.abs(ours - classical)) <= 1e-3


def _close(got, want, tol=FLOAT_TOLERANCE):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bound = tol * (1 + np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want))


class TestAssembly:
    """The Newton system's Toeplitz maps against the GridFn operators they
    stand for, probed by operator_matrix, and its residual against the
    GridFn Euler-Lagrange residual."""

    CASES = TestTranslationInvariance.CASES[:5] + [
        (Formulation.RIEMANN_A, "fixed", 1.6)]

    # L = v^2/2 - u^4/4 + t u v: nonlinear, and it reads the point t
    LAG = Lagrangian("mixed",
                     eval=lambda t, u, v: v * v / 2 - u ** 4 / 4 + t * u * v,
                     d_u=lambda t, u, v: -u ** 3 + t * v,
                     d_v=lambda t, u, v: v + t * u,
                     d_uu=lambda t, u, v: -3 * u * u,
                     d_uv=lambda t, u, v: t + u * 0,
                     d_vv=lambda t, u, v: u * 0 + 1)

    @classmethod
    def problem(cls, form, kind, alpha, N, anchor, lag=None):
        bnd = Boundary(kind)
        if kind == "fixed":
            bnd = Boundary("fixed", A=0.8,
                           B=-0.3 if form is Formulation.CAPUTO else None)
        return VariationalProblem(Grid(anchor, anchor + N), FracOrder(alpha),
                                  form, bnd, lag or cls.LAG)

    @staticmethod
    def probe(op, lo, hi):
        return np.array(operator_matrix(op, lo, hi, 1.0, 0.0)[1])

    PARAMS = pytest.mark.parametrize(
        "case,N,anchor",
        [(c, N, anchor) for c in CASES for N in (3, 8, 64)
         for anchor in (0.0, 1 / 3)],
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else f"{v:.3g}")

    @PARAMS
    def test_maps_match_probed_operators(self, case, N, anchor):
        form, kind, alpha = case
        p = self.problem(form, kind, alpha, N, anchor)
        system = _System(p)
        ts, i, cu, V, cv, c = (system.ts, system.i, system.cu, system.V,
                               system.cv, system.c)
        a, b = p.grid.a, p.grid.b
        lo, hi = p.f_domain()
        free, fixed = p._free(), system.fixed
        nfree = len(free)

        # slot maps on the sum points
        assert list(ts) == _sum_points(p)
        Mu = self.probe(lambda e: GridFn(
            ts[0], tuple(_u_of(p, e, t) for t in ts)), lo, hi)
        Mv = self.probe(lambda e: _v_fn(p, e), lo, hi)
        _close(V[:, :nfree], Mv[:, free])
        _close(cv, Mv @ fixed)
        assert not V[:, nfree:].any()

        # u is cu with x[:len(i)] added at the rows i: row i[k] reads the
        # free coordinate k, and no other row reads a free coordinate
        select = np.zeros((len(ts), nfree))
        select[i, range(len(i))] = 1
        assert np.array_equal(Mu[:, free], select)
        _close(cu, Mu @ fixed)

        # the multiplier's column: L_2(b)'s column of the right operator,
        # and the terminal fractional sum negated
        if form is Formulation.RIEMANN_B and kind == "fixed":
            Qx = self.probe(lambda e: caputo_right(
                e, alpha, b + 1, truncate=True).restrict(a + 1, b - 1),
                a + 1, b)
            row = self.probe(lambda e: nabla_left_sum_fn(
                e, 1 - alpha, a).restrict(b - 1, b - 1), a + 1, b - 1)[0]
            _close(c, Qx[:, N - 1])
            _close(-c, row)
            assert system.A == 0.8
        else:
            assert c is None and system.A is None

    @PARAMS
    def test_residual_matches_gridfn_reference(self, case, N, anchor):
        form, kind, alpha = case
        p = self.problem(form, kind, alpha, N, anchor)
        a, b = p.grid.a, p.grid.b
        constrained = form is Formulation.RIEMANN_B and kind == "fixed"
        rng = np.random.default_rng(N)
        x = rng.uniform(-1, 1, len(p._free()) + constrained)
        lam = float(x[-1]) if constrained else None
        system = _System(p)
        f = system.f(x[:-1] if constrained else x)

        want = list(el_residual(p, f, l2_at_b=lam).values)
        if form is Formulation.CAPUTO and kind == "natural":
            # the rows of f(a) and f(b-1) around those of a+1 .. b-2, with
            # L_2 on the sum points
            v = _v_fn(p, f)
            l2 = [self.LAG.d_v(t, _u_of(p, f, t), v(t))
                  for t in _sum_points(p)]
            rs = nabla_right_sum_fn(GridFn(a + 1, tuple(l2)), 1 - alpha, b)
            want = ([self.LAG.d_u(a + 1, f(a), v(a + 1)) - rs(a + 1)] + want
                    + [rs(b - 1)])
        if constrained:
            want.append(0.8 - nabla_left_sum(f, 1 - alpha, a, b - 1))
        r = system.at(x).r
        _close(r, want)

        # the Jacobian is the derivative of that residual
        dx = rng.uniform(-1, 1, len(x))
        h = 1e-6
        fd = (system.at(x + h * dx).r - system.at(x - h * dx).r) / (2 * h)
        _close(system.at(x).jacobian() @ dx, fd, tol=1e-6)

    @PARAMS
    def test_residual_is_the_gradient(self, case, N, anchor):
        # the oracle differences J itself; the constrained residual adds
        # the multiplier's column to the gradient
        form, kind, alpha = case
        p = self.problem(form, kind, alpha, N, anchor)
        constrained = form is Formulation.RIEMANN_B and kind == "fixed"
        rng = np.random.default_rng(N + 1)
        x = rng.uniform(-1, 1, len(p._free()) + constrained)
        system = _System(p)
        g = np.array(gradient_oracle(
            p, system.f(x[:-1] if constrained else x)).values)
        r = system.at(x).r
        if constrained:
            g, r = g + x[-1] * system.c, r[:-1]
        assert r.shape == g.shape
        assert np.all(np.abs(r - g) <= 1e-9 * (1 + np.abs(g))), \
            np.max(np.abs(r - g))

    @PARAMS
    def test_jacobian_is_symmetric(self, case, N, anchor):
        form, kind, alpha = case
        p = self.problem(form, kind, alpha, N, anchor)
        constrained = form is Formulation.RIEMANN_B and kind == "fixed"
        x = np.random.default_rng(N + 2).uniform(
            -1, 1, len(p._free()) + constrained)
        J = _System(p).at(x).jacobian()
        assert np.max(np.abs(J - J.T)) <= 1e-14 * np.max(np.abs(J))

    @staticmethod
    def dense_jacobian(p, x, system):
        """_Point.jacobian as it was built with the 0/1 selection U formed,
        and the partials called point by point."""
        ts, i, cu, V, cv, c = (system.ts, system.i, system.cu, system.V,
                               system.cv, system.c)
        U = np.zeros(V.shape)
        U[i, range(len(i))] = 1
        lag = p.lagrangian
        uv = list(zip(ts.tolist(), (U @ x + cu).tolist(),
                      (V @ x + cv).tolist()))
        duu, duv, dvv = (np.array([d(*y) for y in uv], dtype=float)[:, None]
                         for d in (lag.d_uu, lag.d_uv, lag.d_vv))
        J = V.T @ (duv * U + dvv * V)
        J[:len(i)] += (duu * U + duv * V)[i]
        if c is not None:
            J[:-1, -1] = J[-1, :-1] = c
        return J

    # L_vv = 5/2 at every point
    SCALED = Lagrangian("scaled", eval=lambda t, u, v: 5 * v * v / 4
                        - u ** 4 / 4,
                        d_u=lambda t, u, v: -u ** 3,
                        d_v=lambda t, u, v: 5 * v / 2,
                        d_uu=lambda t, u, v: -3 * u * u,
                        d_uv=lambda t, u, v: u * 0,
                        d_vv=lambda t, u, v: u * 0 + 2.5)

    @pytest.mark.parametrize("cached", [False, True], ids=["product", "gram"])
    @pytest.mark.parametrize("lag", ["quadratic", "quartic", "mixed",
                                     "scaled", "three-halves"])
    @PARAMS
    def test_jacobian_matches_dense_selection(self, case, N, anchor, lag,
                                              cached):
        # the built-in Lagrangians have L_uv = 0, where the one product
        # V^T (L_vv V) is the dense one bit for bit, and so, with L_vv = 1,
        # is the Gram matrix V^T V that a system's second Jacobian scales;
        # with L_uv = t the U terms are added in another order, a constant
        # L_vv = 5/2 scales the Gram matrix after its sums, and
        # L_vv = 3/4 |v|^(-1/2) varies, so no Gram matrix is formed and the
        # partials' array and scalar calls may round apart
        form, kind, alpha = case
        p = self.problem(form, kind, alpha, N, anchor, {
            "quadratic": Lagrangian.quadratic_potential(1.3),
            "quartic": Lagrangian.quartic_potential(),
            "mixed": self.LAG, "scaled": self.SCALED,
            "three-halves": THREE_HALVES}[lag])
        constrained = form is Formulation.RIEMANN_B and kind == "fixed"
        x = np.random.default_rng(N + 3).uniform(
            -1, 1, len(p._free()) + constrained)
        system = _System(p)
        point = system.at(x)
        got = point.jacobian()
        if cached:
            got = point.jacobian()     # the system's second Jacobian
        want = self.dense_jacobian(p, x, system)
        assert got.shape == want.shape
        assert (system._gram is not None) == (cached
                                              and lag != "three-halves")
        if cached:
            assert np.array_equal(point.jacobian(), got)
        if lag in ("mixed", "three-halves"):
            assert np.max(np.abs(got - want)) <= \
                1e-14 * np.max(np.abs(want))
        elif lag == "scaled" and cached:
            _close(got, want)
        else:
            assert np.array_equal(got, want)
        if lag == "three-halves":
            assert np.array_equal(got, _System(p).at(x).jacobian())

    # L = v^2/2 - 0.49 u^2/2 plus a t u or a u v term: the natural problem
    # then has a nonzero solution, where the rows of f(a) and f(b-1) must
    # be dJ/df there for the oracle to read zero
    CAPUTO_NATURAL_LAGS = [
        Lagrangian("tu", eval=lambda t, u, v: v * v / 2 - 0.49 * u * u / 2
                   + 0.3 * t * u,
                   d_u=lambda t, u, v: -0.49 * u + 0.3 * t,
                   d_v=lambda t, u, v: v,
                   d_uu=lambda t, u, v: u * 0 - 0.49,
                   d_uv=lambda t, u, v: u * 0,
                   d_vv=lambda t, u, v: u * 0 + 1),
        Lagrangian("uv", eval=lambda t, u, v: v * v / 2 - 0.49 * u * u / 2
                   + 0.2 * u * v + 0.3 * u,
                   d_u=lambda t, u, v: -0.49 * u + 0.2 * v + 0.3,
                   d_v=lambda t, u, v: v + 0.2 * u,
                   d_uu=lambda t, u, v: u * 0 - 0.49,
                   d_uv=lambda t, u, v: u * 0 + 0.2,
                   d_vv=lambda t, u, v: u * 0 + 1),
    ]

    @pytest.mark.parametrize("anchor", [0.0, 2.0])
    @pytest.mark.parametrize("N", [8, 32])
    @pytest.mark.parametrize("lag", CAPUTO_NATURAL_LAGS, ids=lambda l: l.name)
    def test_caputo_natural_solve_is_stationary(self, lag, N, anchor):
        p = self.problem(Formulation.CAPUTO, "natural", 0.5, N, anchor, lag)
        sol = solve(p)
        assert sol.converged
        assert sol.gradient_norm <= 1e-9


class TestAssemblyAccuracy:
    """Every entry of the float map V is one weight of w(-alpha) or
    w(1-alpha), never a difference of two: at N = 512 each entry is within
    1e-13 relative of the correctly rounded exact weight.  (TestAssembly
    probes which entry each weight belongs to; this checks its value.)"""

    @staticmethod
    def rounded_toeplitz(w):
        """The lower-triangular Toeplitz matrix of the exact weights w,
        each entry rounded once."""
        n = len(w)
        k = np.subtract.outer(np.arange(n), np.arange(n))
        w = np.array([float(x) for x in w])
        return np.where(k >= 0, w[np.maximum(k, 0)], 0.0)

    @pytest.mark.parametrize("alpha", ["1/20", "1/2"])
    @pytest.mark.parametrize("case", TestAssembly.CASES[:5],
                             ids=lambda c: f"{c[0].value}-{c[1]}")
    def test_entries_match_exact_weights(self, case, alpha):
        form, kind, _ = case
        N, al = 512, rat(alpha)
        p = TestAssembly.problem(form, kind, float(al), N, 0.0)
        V = _System(p).V
        W = self.rounded_toeplitz(weights(-al, N - 1))
        w1 = np.array([float(x) for x in weights(1 - al, N - 1)])
        if form is Formulation.RIEMANN_B:
            want = W[1:, 1:]
        else:
            want = W[1:]
            if form is Formulation.CAPUTO:
                want[:, 0] = -w1[:-1]          # the point f(a)
        free = p._free()
        got, want = V[:, :len(free)], want[:, free]
        assert got.shape == want.shape
        nz = want != 0
        assert not got[~nz].any()
        rel = np.abs(got[nz] - want[nz]) / np.abs(want[nz])
        assert rel.max() <= 1e-13, rel.max()


class TestPointwiseReference:
    """action, first_variation, el_residual and el_residual_forms read their
    values by offset slices; they must give exactly (==) what the
    pointwise definitions give, in both backends."""

    CASES = TestAssembly.CASES
    LAG = TestAssembly.LAG

    @classmethod
    def problem(cls, form, kind, alpha, N, anchor, exact, lag=None):
        if not exact:
            return TestAssembly.problem(form, kind, alpha, N, anchor, lag)
        cv = lambda x: rational(round(10 * x), 10)
        a = rational(round(3 * anchor), 3)
        bnd = Boundary(kind)
        if kind == "fixed":
            bnd = Boundary("fixed", A=cv(0.8),
                           B=cv(-0.3) if form is Formulation.CAPUTO else None)
        return VariationalProblem(Grid(a, a + N), FracOrder(cv(alpha)), form,
                                  bnd, lag or cls.LAG, exact=True)

    @staticmethod
    def draw(p, seed):
        lo, hi = p.f_domain()
        rng = random.Random(seed)
        n = round(hi - lo) + 1
        if p.exact:
            vals = (rational(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(n))
        else:
            vals = (rng.uniform(-1, 1) for _ in range(n))
        return GridFn(lo, tuple(vals))

    def partials(self, p, f):
        pts, v = _sum_points(p), _v_fn(p, f)
        uv = [(t, _u_of(p, f, t), v(t)) for t in pts]
        return (GridFn(pts[0], tuple(self.LAG.d_u(*x) for x in uv)),
                GridFn(pts[0], tuple(self.LAG.d_v(*x) for x in uv)))

    PARAMS = pytest.mark.parametrize(
        "case,N,anchor,exact",
        [(c, N, anchor, exact) for c in CASES for N in (3, 8, 64)
         for anchor in (0.0, 1 / 3) for exact in (False, True)],
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else ("exact" if v else "float") if isinstance(v, bool)
        else f"{v:.3g}")

    @PARAMS
    def test_action(self, case, N, anchor, exact):
        p = self.problem(*case, N, anchor, exact)
        f = self.draw(p, N)
        v = _v_fn(p, f)
        want = sum(self.LAG.eval(t, _u_of(p, f, t), v(t))
                   for t in _sum_points(p))
        assert action(p, f) == want

    @PARAMS
    def test_first_variation(self, case, N, anchor, exact):
        p = self.problem(*case, N, anchor, exact)
        f, eta = self.draw(p, N), self.draw(p, N + 1)
        l1, l2 = self.partials(p, f)
        d_eta = _v_fn(p, eta)
        want = None
        for t in _sum_points(p):
            term = _u_of(p, eta, t) * l1(t) + d_eta(t) * l2(t)
            want = term if want is None else want + term
        assert first_variation(p, f, eta) == want

    @PARAMS
    def test_el_residual(self, case, N, anchor, exact):
        form, kind, _ = case
        p = self.problem(*case, N, anchor, exact)
        f = self.draw(p, N)
        l1, l2 = self.partials(p, f)
        alpha, b, pts = p.alpha, p.grid.b, _sum_points(p)
        lam = None
        if form is Formulation.RIEMANN_B:
            if kind == "fixed":
                lam = rational(5, 7) if exact else 5 / 7
            l2x = GridFn(l2.lo, l2.values + (
                l2.values[0] * 0 if lam is None else lam,))
            cr = caputo_right(l2x, alpha, b + 1, truncate=True)
            want = [l1(t) + cr(t) for t in pts]
            cs = caputo_right(shift_sigma(l2x), alpha, b, truncate=True)
            shifted, direct = el_residual_forms(p, f, l2_at_b=lam)
            assert (shifted.lo, direct.lo) == (pts[0], pts[0])
            assert shifted.values == tuple(l1(s) + cs(s - 1) for s in pts)
            assert direct.values == tuple(want)
        else:
            rr = nabla_right_riemann(l2, alpha, b)
            if form is Formulation.RIEMANN_A:
                want = [l1(t) + rr(t) for t in pts]
            else:
                want = [l1(s + 1) + rr(s) for s in pts[:-1]]
        got = el_residual(p, f, l2_at_b=lam)
        assert got.lo == pts[0]
        assert got.values == tuple(want)


def reference_oracle(p, f):
    """The gradient oracle by whole actions: 2 per free coordinate (float)
    or 4 (exact), each through `action` on f with that coordinate bumped."""
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


class TestOracleReference:
    """gradient_oracle probes each free coordinate once and differences only
    the terms its bump reaches; it must give what differencing whole actions
    gives: exactly (==) in the rational backend, within 1e-6 (1 + |g|) in
    floats."""

    CASES = TestAssembly.CASES
    LAGS = {
        "quadratic": lambda exact: Lagrangian.quadratic_potential(
            rational(13, 10) if exact else 1.3),
        "quartic": lambda exact: Lagrangian.quartic_potential(),
        "mixed": lambda exact: TestAssembly.LAG,
    }

    @classmethod
    def problem(cls, case, N, anchor, exact, lag="mixed"):
        return TestPointwiseReference.problem(*case, N, anchor, exact,
                                              cls.LAGS[lag](exact))

    @pytest.mark.parametrize(
        "case,N,anchor,exact,lag",
        list(product(CASES, (3, 8, 64), (0.0, 1 / 3), (False, True), LAGS)),
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else ("exact" if v else "float") if isinstance(v, bool)
        else v if isinstance(v, str) else f"{v:.3g}")
    def test_matches_whole_action_differences(self, case, N, anchor, exact,
                                              lag):
        p = self.problem(case, N, anchor, exact, lag)
        f = TestPointwiseReference.draw(p, N)
        got, want = gradient_oracle(p, f), reference_oracle(p, f)
        assert got.lo == want.lo and len(got) == len(want)
        if exact:
            assert got.values == want.values
        else:
            for g, w in zip(got.values, want.values):
                assert abs(g - w) <= 1e-6 * (1 + abs(w))

    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("exact", [False, True],
                             ids=["float", "exact"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0].value}-"
                             f"{c[1]}-{c[2]}")
    def test_at_most_two_operator_probes(self, monkeypatch, case, exact, N):
        p = self.problem(case, N, 1 / 3, exact)
        f = TestPointwiseReference.draw(p, N)
        calls = []

        def counted(p, f):
            calls.append(f)
            return v_fn(p, f)

        v_fn = variational._v_fn
        monkeypatch.setattr(variational, "_v_fn", counted)
        gradient_oracle(p, f)
        assert len(calls) == 1 + min(2, len(p._free()))

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0].value}-"
                             f"{c[1]}-{c[2]}")
    def test_never_reads_the_newton_maps(self, monkeypatch, case):
        p = self.problem(case, 8, 0.0, False)
        f = TestPointwiseReference.draw(p, 8)
        want = reference_oracle(p, f)

        def forbidden(*args):
            raise AssertionError("the oracle read the Newton maps")

        monkeypatch.setattr(variational, "_System", forbidden)
        monkeypatch.setattr(variational, "_toeplitz", forbidden)
        got = gradient_oracle(p, f)
        for g, w in zip(got.values, want.values):
            assert abs(g - w) <= 1e-6 * (1 + abs(w))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_no_free_coordinate_rejected(self, exact):
        # CAPUTO fixed at N = 2 fixes both points of its f_domain
        A, B = (rat("1"), rat("1/2")) if exact else (1.0, 0.5)
        p = make_problem(Formulation.CAPUTO, Boundary("fixed", A=A, B=B),
                         N=2, exact=exact)
        assert not p._free()
        with pytest.raises(DomainError, match="no free coordinate"):
            gradient_oracle(p, GridFn(0, (A, B)))


class TestProbeRows:
    """The oracle's probe rows are the slots of the basis functions e_u:
    two operator probes and shifts of the second must give what probing
    every free coordinate gives, exactly (==) up to 512 points, where the
    float convolutions are direct sums."""

    CASES = TestAssembly.CASES

    @staticmethod
    def want(p, f, u):
        """_slots of the basis function e_u, probed through the operators."""
        zero = f.values[0] * 0
        e = [zero] * len(f)
        e[u] = zero + 1
        return variational._slots(p, GridFn(f.lo, tuple(e)))

    @classmethod
    def rows(cls, case, N, anchor, exact):
        p = TestPointwiseReference.problem(*case, N, anchor, exact)
        f = TestPointwiseReference.draw(p, N).restrict(*p.f_domain())
        free = p._free()
        rows = variational._probe_rows(p, f)
        return p, f, free, rows

    @pytest.mark.parametrize(
        "case,N,anchor,exact",
        [(c, N, anchor, exact) for c in CASES for N in (2, 3, 8, 64)
         for anchor in (0.0, 1 / 3) for exact in (False, True)
         if not (c[0] is Formulation.CAPUTO and c[1] == "fixed" and N == 2)],
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else ("exact" if v else "float") if isinstance(v, bool)
        else f"{v:.3g}")
    def test_rows_are_the_probed_slots(self, case, N, anchor, exact):
        p, f, free, rows = self.rows(case, N, anchor, exact)
        whole = rows(0, len(free))
        for k, u in enumerate(free):
            want = self.want(p, f, u)
            # each row alone, as the oracle's chunks read it, and in the
            # stack of all rows
            for got in (rows(k, k + 1), [x[k:k + 1] for x in whole]):
                for g, w in zip(got, want):
                    assert g.shape == (1, len(w))
                    if exact:
                        assert tuple(g[0]) == tuple(w)
                    else:
                        assert np.array_equal(g[0], np.array(w))

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0].value}-"
                             f"{c[1]}-{c[2]}")
    def test_rows_past_the_fft_crossover(self, case):
        # past 512 points the operators convolve by blocked FFTs, whose
        # rounding is not shift-invariant; the rows stay within 1e-12
        p, f, free, rows = self.rows(case, 600, 1 / 3, False)
        eu, ev = rows(0, len(free))
        for k, u in enumerate(free):
            for g, w in zip((eu[k], ev[k]), self.want(p, f, u)):
                w = np.array(w)
                assert np.all(np.abs(g - w) <= 1e-12 * (1 + np.abs(w)))


class TestFloatOracle:
    """The float oracle evaluates L on stacked chunks of probes with the
    five-point stencil at h = 1e-3 (1 + |f(u)|)."""

    CASES = TestAssembly.CASES
    LAGS = TestOracleReference.LAGS

    def test_converged_caputo_reads_rounding_level_gradient(self):
        # the first variation of this converged quadratic solve is ~1e-14;
        # a central difference with h = 1e-6 read 1.14e-6 on it
        p = VariationalProblem(
            Grid(0, 256), FracOrder(0.6103220044948473), Formulation.CAPUTO,
            Boundary("fixed", A=0.4122235204420035, B=-0.1961187365458199),
            Lagrangian.quadratic_potential(1.3374392724338622))
        sol = solve(p)
        assert sol.converged
        assert sol.gradient_norm <= 1e-8

    @pytest.mark.parametrize("chunk", [1, 200])
    @pytest.mark.parametrize(
        "case,N,lag", list(product(CASES, (8, 64), LAGS)),
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else str(v))
    def test_chunks_only_partition_the_work(self, monkeypatch, case, N, lag,
                                            chunk):
        p = TestOracleReference.problem(case, N, 1 / 3, False, lag)
        f = TestPointwiseReference.draw(p, N)
        want = gradient_oracle(p, f)
        monkeypatch.setattr(variational, "_ORACLE_CHUNK", chunk)
        got = gradient_oracle(p, f)
        assert got.lo == want.lo
        assert got.values == want.values

    @pytest.mark.parametrize(
        "case,N,anchor,lag",
        list(product(CASES, (3, 8, 64, 256), (0.0, 1 / 3),
                     ("quadratic", "quartic"))),
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else v if isinstance(v, str) else f"{v:.3g}")
    def test_matches_per_row_sums(self, monkeypatch, case, N, anchor, lag):
        # one reduction over all the sum points, in place of per-row sums
        # from each row's first column, moves only the summation order
        p = TestOracleReference.problem(case, N, anchor, False, lag)
        f = TestPointwiseReference.draw(p, N)
        got = gradient_oracle(p, f)
        monkeypatch.setattr(variational, "_stencil_rows",
                            _stencil_rows_per_row)
        want = gradient_oracle(p, f)
        assert got.lo == want.lo and len(got) == len(want)
        g, w = np.array(got.values), np.array(want.values)
        assert np.all(np.abs(g - w) <= 1e-15 * (1 + np.abs(w))), \
            np.max(np.abs(g - w) / (1 + np.abs(w)))

    @pytest.mark.parametrize(
        "case,lag", list(product(CASES, LAGS)),
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else str(v))
    def test_matches_exact_oracle(self, case, lag):
        # the stencil is exact for these polynomial Lagrangians, so the
        # float oracle on rational data differs from the exact one by
        # rounding only, within the noise floor 1.5 eps sum|L| / h (the
        # worst case here reads 0.43 of it; h = 1e-6 central differences
        # read about 1000 times more)
        N = 64
        pe = TestOracleReference.problem(case, N, 0.0, True, lag)
        pf = TestOracleReference.problem(case, N, 0.0, False, lag)
        f = TestPointwiseReference.draw(pe, N)
        ff = GridFn(f.lo, tuple(map(float, f.values)))
        want, got = gradient_oracle(pe, f), gradient_oracle(pf, ff)
        assert got.lo == want.lo and len(got) == len(want)
        total = sum(abs(pf.lagrangian.eval(*x)) for x in
                    zip(_sum_points(pf), *variational._slots(pf, ff)))
        for u, g, w in zip(pf.free_points(), got.values, want.values):
            h = 1e-3 * (1 + abs(ff(u)))
            assert abs(g - float(w)) <= 1.5 * np.finfo(float).eps * total / h


class TestHessianReference:
    """Newton's Jacobian against a second-order reference that shares no
    code with its maps.  On the free block, J d is the derivative in s of
    the gradient at f + s d: the five-point stencil in s of the exact
    oracle, with unit steps, gives it exactly, since the gradient is at most
    cubic in s for these Lagrangians.  The float product must match it
    within TOL (1 + |reference|); the worst case measured reads 2.5e-15."""

    CASES = TestAssembly.CASES
    TOL = 1e-13

    @staticmethod
    def state(pe, seed):
        """A rational f on f_domain() that holds the fixed boundary values at
        the fixed ends, and a rational direction d on the free coordinates."""
        free, bnd = pe._free(), pe.boundary
        vals = list(TestPointwiseReference.draw(pe, seed).values)
        if free.start:
            vals[0] = bnd.A
        if free.stop < len(vals):
            vals[-1] = bnd.B
        rng = random.Random(seed + 1)
        d = [rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in free]
        return vals, d

    @pytest.mark.parametrize(
        "case,N,anchor,lag",
        list(product(CASES, (3, 8, 16), (0.0, 1 / 3),
                     TestOracleReference.LAGS)),
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else v if isinstance(v, str) else f"{v:.3g}")
    def test_jacobian_products_match_exact_oracle_stencil(self, case, N,
                                                           anchor, lag):
        pe = TestOracleReference.problem(case, N, anchor, True, lag)
        pf = TestOracleReference.problem(case, N, anchor, False, lag)
        free, lo = pe._free(), pe.f_domain()[0]
        vals, d = self.state(pe, N)

        def grad(s):
            moved = list(vals)
            for i, di in zip(free, d):
                moved[i] += s * di
            return gradient_oracle(pe, GridFn(lo, tuple(moved))).values

        g = {s: grad(s) for s in (-2, -1, 1, 2)}
        want = np.array([float((m2 - 8 * m1 + 8 * p1 - p2) / 12) for
                         m2, m1, p1, p2 in zip(g[-2], g[-1], g[1], g[2])])
        constrained = case[:2] == (Formulation.RIEMANN_B, "fixed")
        x = np.array([float(vals[i]) for i in free] + [0.0] * constrained)
        J = _System(pf).at(x).jacobian()
        n = len(free)
        got = J[:n, :n] @ np.array([float(di) for di in d])
        err = np.abs(got - want) / (1 + np.abs(want))
        assert err.max() <= self.TOL, err.max()

    @pytest.mark.parametrize("N", [3, 8, 16])
    @pytest.mark.parametrize("anchor", [0.0, 1 / 3], ids="{:.3g}".format)
    def test_border_is_minus_the_terminal_sum_gradient(self, N, anchor):
        # the multiplier's column and row are -d/df of the constrained
        # value nabla_a^{-(1-alpha)} f(b-1), which is linear in f: probed on
        # the basis functions through the exact GridFn operator
        case = (Formulation.RIEMANN_B, "fixed", 0.4)
        pe = TestOracleReference.problem(case, N, anchor, True, "quadratic")
        pf = TestOracleReference.problem(case, N, anchor, False, "quadratic")
        (lo, hi), a, n = pe.f_domain(), pe.grid.a, len(pe._free())
        want = []
        for i in pe._free():
            e = GridFn(lo, tuple(rat("1") if k == i else rat("0")
                                 for k in range(n)))
            want.append(float(nabla_left_sum_fn(e, 1 - pe.alpha.alpha,
                                                a)(hi)))
        J = _System(pf).at(np.zeros(n + 1)).jacobian()
        want = np.array(want)
        for got in (J[:-1, -1], J[-1, :-1]):
            err = np.abs(got + want) / (1 + np.abs(want))
            assert err.max() <= self.TOL, err.max()


def _stencil_rows_per_row(lag, ts, us, vs, eu, ev, h):
    """_stencil_rows as it was built before: u and v both moved on the whole
    array, and each row summed from its own first reached column."""
    js = ((eu != 0) | (ev != 0)).argmax(axis=1)
    j0 = js.min()
    ts, us, vs, eu, ev = ts[j0:], us[j0:], vs[j0:], eu[:, j0:], ev[:, j0:]

    def at(s):
        sh = (s * h)[:, None]
        return lag(ts, us + sh * eu, vs + sh * ev)

    d = 8 * (at(1) - at(-1)) - (at(2) - at(-2))
    return np.array([row[j:].sum() for row, j in zip(d, js - j0)]) / (12 * h)


def _toeplitz_by_index_matrix(w, n):
    """_toeplitz as it was built before: from an N^2 index matrix."""
    k = np.subtract.outer(np.arange(n), np.arange(n))
    return np.where(k >= 0, np.array(w[:n], dtype=float)[np.maximum(k, 0)],
                    0.0)


def _maps_by_index_matrix(p):
    """_System's maps as they were built before: W from the index matrix,
    the free columns read by a range of indices, and u read through the
    explicit 0/1 selection U, whose rows i and offset cu are returned, as
    (ts, i, cu, V, cv, c)."""
    form, bnd, N = p.formulation, p.boundary, p.grid.N
    m = N - 1
    al = p.alpha.alpha
    c = None
    W = _toeplitz_by_index_matrix(weights(-al, m), N)
    if form is Formulation.RIEMANN_A:
        Mu, Mv = np.eye(m, N, 1), W[1:]
    else:
        w1 = np.array(weights(1 - al, m), dtype=float)
        if form is Formulation.RIEMANN_B:
            Mu, Mv = np.eye(m), W[1:, 1:]
            if bnd.kind == "fixed":
                c = -w1[m - 1::-1]
        else:
            Mu, Mv = np.eye(m, N), W[1:]
            Mv[:, 0] = -w1[:m]
    free = p._free()
    # f at x = 0: the fixed values f(a) = A and, in Caputo, f(b-1) = B
    fixed = np.zeros(N - (form is Formulation.RIEMANN_B))
    if form is not Formulation.RIEMANN_B and bnd.kind == "fixed":
        fixed[0] = bnd.A
        if form is Formulation.CAPUTO:
            fixed[-1] = bnd.B
    nx = len(free) + int(c is not None)

    def on_x(M):
        X = np.zeros((len(M), nx))
        X[:, :len(free)] = M[:, free]
        return X, M @ fixed

    U, cu = on_x(Mu)
    V, cv = on_x(Mv)
    # the rows of the selection U that read a free coordinate, in order
    i = np.flatnonzero(U.any(axis=1))
    assert np.array_equal(U[i], np.eye(len(i), U.shape[1]))
    return np.array(_sum_points(p), dtype=float), i, cu, V, cv, c


class TestAssemblyFromSlices:
    """_toeplitz builds its matrix from a sliding window of the weights, and
    _System reads V's free columns as a slice and the u slots' rows as an
    index range; every map must stay bit-identical to the index-matrix
    construction with its explicit selection U, since last-bit changes to
    Newton's residual can flip a solve's verdict."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 300])
    @pytest.mark.parametrize("beta", [-0.4, 0.6, rat("-1/3")],
                             ids=str)
    def test_toeplitz(self, beta, n):
        w = weights(beta, n - 1)
        got = variational._toeplitz(w, n)
        want = _toeplitz_by_index_matrix(w, n)
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()     # signed zeros too

    @pytest.mark.parametrize(
        "case,N", list(product(TestAssembly.CASES, (3, 8, 64, 300))),
        ids=lambda v: f"{v[0].value}-{v[1]}-{v[2]}" if isinstance(v, tuple)
        else str(v))
    def test_maps_bit_identical(self, case, N):
        p = TestAssembly.problem(*case, N, 1 / 3)
        system, want = _System(p), _maps_by_index_matrix(p)
        for name, w in zip(("ts", "i", "cu", "V", "cv", "c"), want):
            g = getattr(system, name)
            if w is None:
                assert g is None
            else:
                assert g.shape == w.shape and np.array_equal(g, w)
