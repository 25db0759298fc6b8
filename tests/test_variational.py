import random

import numpy as np
import pytest

from nablafrac.backend import rational
from nablafrac.grid import DomainError, Grid, GridFn
from nablafrac.identities import FLOAT_TOLERANCE
from nablafrac.numerics import FracOrder
from nablafrac.operators import nabla_left_riemann
from nablafrac.variational import (Boundary, Formulation, Lagrangian,
                                   VariationalProblem, action, el_residual,
                                   el_residual_forms, eta_shift_decomposition,
                                   first_variation, gradient_oracle, solve)


def rat(text):
    return rational(text)


def random_fn(seed, lo, hi):
    rng = random.Random(seed)
    return GridFn(lo, tuple(rational(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(int(hi - lo) + 1)))


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
        from nablafrac.numerics import weights
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
        assert sol.converged
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

    def test_nonconvergence_reported(self):
        p = make_problem(Formulation.RIEMANN_A, Boundary("fixed", A=1.0),
                         lag=Lagrangian.quartic_potential(), exact=False)
        sol = solve(p, max_iter=8)  # beyond the fold, no solution to find
        assert not sol.converged

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
