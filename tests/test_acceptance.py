"""Acceptance gate: the eight primary criteria, one test (and one pass/fail
line under pytest -v) each."""
import math
import random
import time

import numpy as np

from nablafrac.backend import rational
from nablafrac.grid import DomainError, Grid, GridFn, _offset
from nablafrac.identities import VERIFY_ALPHAS, VERIFY_SIZES, run_trial
from nablafrac.numerics import FracOrder, weights
from nablafrac.operators import (caputo_left, caputo_right, delta_left_sum,
                                 delta_right_sum, nabla_left_riemann,
                                 nabla_left_sum, nabla_left_sum_fn,
                                 nabla_right_riemann, nabla_right_sum)
from nablafrac.variational import (Boundary, Formulation, Lagrangian,
                                   VariationalProblem, el_residual,
                                   el_residual_forms, eta_shift_decomposition,
                                   gradient_oracle, solve)

IDENTITIES = ("P21", "P22", "P23", "P24", "T25", "T26", "SHIFT")
UNIT_INTERVAL = ("T25", "T26")
TRIALS = 100


def _random_fn(rng, lo, hi, make):
    return GridFn(lo, tuple(make(rng.randint(-9, 9))
                            for _ in range(int(hi - lo) + 1)))


def test_criterion_1_exact_identity_suite():
    start = time.time()
    checks = 0
    for ident in IDENTITIES:
        for alpha_text in VERIFY_ALPHAS:
            alpha = FracOrder.parse(alpha_text, exact=True)
            if ident in UNIT_INTERVAL and not alpha.alpha < 1:
                continue
            for n in VERIFY_SIZES:
                for seed in range(TRIALS):
                    # Fraction anchors, as `verify --backend rational` uses
                    for rep in run_trial(ident, alpha, rational(0),
                                         rational(n), seed, True, rational):
                        assert rep.residual == 0, \
                            (ident, alpha_text, n, seed)
                        checks += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"criterion 1 PASS: {checks} exact residuals all 0 "
          f"in {elapsed:.1f}s")


def test_criterion_2_float_identity_suite():
    sizes = tuple(VERIFY_SIZES) + (32, 64)
    worst = 0.0
    for ident in IDENTITIES:
        for alpha_text in VERIFY_ALPHAS:
            alpha = FracOrder.parse(alpha_text, exact=False)
            if ident in UNIT_INTERVAL and not alpha.alpha < 1:
                continue
            for n in sizes:
                for seed in range(TRIALS):
                    for rep in run_trial(ident, alpha, 0.0, float(n), seed,
                                         False, float):
                        scale = 1.0 + max(abs(rep.lhs), abs(rep.rhs))
                        rel = abs(rep.residual) / scale
                        worst = max(worst, rel)
                        assert rel <= 1e-9, (ident, alpha_text, n, seed)
    print(f"criterion 2 PASS: max relative float residual {worst:.2e} "
          f"<= 1e-9")


def test_criterion_3_kernel_checks():
    rng = random.Random(3)
    # nabla of the rising power: nabla(t^{rising a}) = a t^{rising(a-1)},
    # exact after dividing out the common Gamma(1+a)
    for _ in range(20):
        a = rational(rng.randint(1, 9), rng.randint(2, 10))
        t = rng.randint(2, 12)

        def q_of(t, a=a):
            num = rational(1)
            for j in range(1, t):
                num = num * (j + a)
            return num / math.factorial(t - 1)

        rhs = rational(1)
        for j in range(t - 1):
            rhs = rhs * (j + a)
        assert q_of(t) - q_of(t - 1) == rhs / math.factorial(t - 1)
    # weight recurrence against the explicit Gamma-ratio product
    for _ in range(20):
        beta = rational(rng.randint(1, 9), rng.randint(2, 10))
        w = weights(beta, 10)
        for k in range(11):
            num = rational(1)
            for j in range(k):
                num = num * (beta + j)
            assert w[k] == num / math.factorial(k)
    # the closed-form sum value
    ones = GridFn(0, (rational(1),) * 6)
    assert nabla_left_sum(ones, rational("1/2"), 0, 3) == rational("15/8")
    # semigroup of fractional sums
    for k in range(20):
        alpha = rational(rng.randint(1, 9), rng.randint(2, 10))
        beta = rational(rng.randint(1, 9), rng.randint(2, 10))
        f = _random_fn(rng, 1, 9, rational)
        inner = nabla_left_sum_fn(f, beta, 0)
        lhs = nabla_left_sum_fn(inner.restrict(1, 9), alpha, 0)
        rhs = nabla_left_sum_fn(f, alpha + beta, 0)
        assert all(lhs(t) == rhs(t) for t in range(0, 10))
    print("criterion 3 PASS: kernel identities exact "
          "(rising power, weights, 15/8, semigroup x20)")


def test_criterion_4_delta_dual_consistency():
    rng = random.Random(4)
    for k in range(50):
        alpha = rational(rng.randint(1, 9), rng.randint(2, 10))
        n = rng.randint(2, 10)
        f = _random_fn(rng, 1, n - 1, rational)
        d = delta_left_sum(f, alpha, 0)
        for s in range(1, n):
            assert d(s + alpha) == nabla_left_sum(f, alpha, 0, s)
        d = delta_right_sum(f, alpha, n)
        for s in range(1, n):
            assert d(s - alpha) == nabla_right_sum(f, alpha, n, s)
    print("criterion 4 PASS: delta sums equal nabla values under the "
          "argument shift, 50 exact instances")


def _formulation_cases(amp):
    return (
        (Formulation.RIEMANN_A, Boundary("fixed", A=amp)),
        (Formulation.RIEMANN_B, Boundary("natural")),
        (Formulation.CAPUTO, Boundary("fixed", A=amp, B=-amp / 2)),
        (Formulation.CAPUTO, Boundary("natural")),
    )


def _defined_at(f, t):
    """Whether t is one of the grid points of f's domain."""
    try:
        k = _offset(t, f.lo)
    except DomainError:
        return False
    return 0 <= k < len(f)


def _random_state(p, rng):
    lo, hi = p.f_domain()
    vals = [rational(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(int(hi - lo) + 1)]
    if p.boundary.kind == "fixed":
        if lo == p.grid.a:
            vals[0] = p.boundary.A
        if p.formulation is Formulation.CAPUTO:
            vals[-1] = p.boundary.B
    return GridFn(lo, tuple(vals))


def test_criterion_5_variational_equivalence():
    rng = random.Random(5)
    solves = equalities = 0
    for alpha_text in ("1/3", "1/2", "3/4"):
        for N in (6, 8, 12):
            grid = Grid(0, N)
            # (i) exact backend, quadratic L: el_residual == gradient_oracle
            alpha = FracOrder.parse(alpha_text, exact=True)
            lag = Lagrangian.quadratic_potential(rational("3/2"))
            for form, bnd in _formulation_cases(rational(1)):
                p = VariationalProblem(grid, alpha, form, bnd, lag,
                                       exact=True)
                f = _random_state(p, rng)
                el = el_residual(p, f)
                g = gradient_oracle(p, f)
                pts = [t for t in p.free_points() if _defined_at(el, t)]
                assert pts
                assert all(el(t) == g(t) for t in pts)
                equalities += 1
            # (iii) the two residual forms of the terminal-sum formulation
            p = VariationalProblem(grid, alpha, Formulation.RIEMANN_B,
                                   Boundary("natural"), lag, exact=True)
            f = _random_state(p, rng)
            fa, fb = el_residual_forms(p, f)
            assert fa.lo == fb.lo and fa.values == fb.values
            # (i) float backend, quartic L: agreement to 1e-6
            alpha_f = FracOrder.parse(alpha_text, exact=False)
            lag4 = Lagrangian.quartic_potential()
            for form, bnd in _formulation_cases(0.1):
                p = VariationalProblem(grid, alpha_f, form, bnd, lag4)
                # the exact twin sets only the boundary fields bnd sets
                bnd_q = Boundary(
                    bnd.kind, A=None if bnd.A is None else rational(1),
                    B=None if bnd.B is None else rational("-1/2"))
                f = GridFn(p.f_domain()[0],
                           tuple(float(v) for v in _random_state(
                               VariationalProblem(grid, alpha, form, bnd_q,
                                                  lag, exact=True),
                               rng).values))
                el = el_residual(p, f)
                g = gradient_oracle(p, f)
                pts = [t for t in p.free_points() if _defined_at(el, t)]
                assert all(abs(el(t) - g(t)) <= 1e-6 for t in pts)
            # (ii) solves converge with oracle-verified gradients
            for lag_f, amp in ((Lagrangian.quadratic_potential(1.5), 1.0),
                               (lag4, 0.1)):
                for form, bnd in _formulation_cases(amp):
                    p = VariationalProblem(grid, alpha_f, form, bnd, lag_f)
                    sol = solve(p, tol=1e-11)
                    assert sol.converged, (alpha_text, N, form, bnd.kind,
                                           lag_f.name)
                    assert sol.gradient_norm <= 1e-8
                    solves += 1
    print(f"criterion 5 PASS: {equalities} exact el/gradient equalities, "
          f"{solves} convergent solves with |grad| <= 1e-8, "
          f"residual forms equal")


def test_criterion_6_eta_shift_reconstruction():
    rng = random.Random(6)
    for k in range(50):
        alpha = rational(rng.randint(1, 9), rng.randint(2, 10))
        while alpha == int(alpha):
            alpha = rational(rng.randint(1, 9), rng.randint(2, 10))
        alpha = FracOrder(alpha)
        n = rng.randint(2, 10)
        eta = _random_fn(rng, 0, n, rational)
        if k % 2 == 0 and eta(0) == 0:
            eta = GridFn(0, (rational(1),) + eta.values[1:])
        full = nabla_left_riemann(eta, alpha, -1)
        for t in range(1, n + 1):
            base, corr = eta_shift_decomposition(eta, alpha, 0, t)
            assert base + corr == full(t), (k, t)
    print("criterion 6 PASS: 50 exact reconstructions of the shifted-anchor "
          "difference, anchor value free")


def test_criterion_7_composed_operator_structure():
    rng = random.Random(7)
    a, b = 0, 9
    alpha = FracOrder(rational("2/3"))
    omega = rational("3/2")
    lag = Lagrangian.quadratic_potential(omega)
    # oscillator action with the left Riemann difference as velocity:
    # el_residual(s) = (right Caputo from b+1 of the left Riemann
    # difference)(s) - V'(y(s)), same sign as the assembled residual
    p = VariationalProblem(Grid(a, b), alpha, Formulation.RIEMANN_B,
                           Boundary("natural"), lag, exact=True)
    y = _random_fn(rng, a + 1, b - 1, rational)
    el = el_residual(p, y)
    r = nabla_left_riemann(y, alpha, a)
    zero = rational(0)
    glued = GridFn(a + 1, r.values + (zero,))  # natural condition at b
    composed = caputo_right(glued, alpha, b + 1, truncate=True)
    for s in range(a + 1, b):
        assert el(s) == composed(s) - omega * omega * y(s)
    # oscillator action with the left Caputo difference as velocity:
    # el_residual(s) = (right Riemann of the left Caputo difference)(s)
    # - V'(y(rho(sigma(s)))) = that difference minus V'(y(s))
    p = VariationalProblem(Grid(a, b), alpha, Formulation.CAPUTO,
                           Boundary("natural"), lag, exact=True)
    y = _random_fn(rng, a, b - 1, rational)
    el = el_residual(p, y)
    composed = nabla_right_riemann(caputo_left(y, alpha, a), alpha, b)
    for s in range(a + 1, b - 1):
        assert el(s) == composed(s) - omega * omega * y(s)
    print("criterion 7 PASS: assembled residuals match the composed-operator "
          "expressions exactly (same sign)")


def test_criterion_8_classical_limit():
    N, omega, A = 8, 0.5, 1.0
    p = VariationalProblem(Grid(0, N), FracOrder(1 - 1e-6),
                           Formulation.RIEMANN_A, Boundary("fixed", A=A),
                           Lagrangian.quadratic_potential(omega))
    sol = solve(p, tol=1e-12)
    assert sol.converged
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
    diff = float(np.max(np.abs(ours - classical)))
    assert diff <= 1e-3
    print(f"criterion 8 PASS: alpha = 1 - 1e-6 solution within {diff:.1e} "
          f"of the classical linear solve (tolerance 1e-3)")
