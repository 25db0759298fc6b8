import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import identities
from nablafrac.backend import rational
from nablafrac.grid import GridFn
from nablafrac.identities import (FLOAT_TOLERANCE, VERIFY_ALPHAS,
                                  VERIFY_SIZES, IdentityReport,
                                  check_caputo_by_parts,
                                  check_riemann_caputo_by_parts,
                                  check_shift_properties, check_sum_by_parts,
                                  random_gridfn, run_trial)
from nablafrac.numerics import FracOrder

ALL_IDENTITIES = ("P21", "P22", "P23", "P24", "T25", "T26", "SHIFT")
UNIT_INTERVAL = ("T25", "T26")


def exact_make(n):
    return rational(n)


def random_fn(seed, lo, hi):
    rng = random.Random(seed)
    return GridFn(lo, tuple(rational(rng.randint(-9, 9))
                            for _ in range(int(hi - lo) + 1)))


class TestExactLattice:
    @pytest.mark.parametrize("ident", ALL_IDENTITIES)
    def test_residual_zero_on_lattice(self, ident):
        for alpha_text in VERIFY_ALPHAS:
            alpha = FracOrder.parse(alpha_text, exact=True)
            if ident in UNIT_INTERVAL and not alpha.alpha < 1:
                continue
            for n in (2, 5, 12):
                for seed in range(3):
                    reports = run_trial(ident, alpha, 0, n, seed, True,
                                        exact_make)
                    for rep in reports:
                        assert rep.passed, (ident, alpha_text, n, seed,
                                            rep.identity_id, rep.residual)
                        assert rep.residual == 0

    def test_shifted_grid_start(self):
        # nothing pins the interval to integer coordinates
        alpha = FracOrder(rational("1/2"))
        a = rational("3/2")
        for seed in range(3):
            for rep in run_trial("P21", alpha, a, a + 6, seed, True,
                                 exact_make):
                assert rep.residual == 0


class TestFloatLattice:
    @pytest.mark.parametrize("ident", ALL_IDENTITIES)
    def test_within_tolerance(self, ident):
        for alpha_text in VERIFY_ALPHAS:
            alpha = FracOrder.parse(alpha_text, exact=False)
            if ident in UNIT_INTERVAL and not alpha.alpha < 1:
                continue
            for n in (2, 8, 32):
                for rep in run_trial(ident, alpha, 0.0, float(n), 0, False,
                                     float):
                    assert rep.passed, (ident, alpha_text, n, rep.residual)

    def test_non_integer_anchors(self):
        # the verify lattice started at float anchors off the half-integers
        for anchor in (0.1, 1 / 3, 0.7, -2.3):
            for ident in ALL_IDENTITIES:
                for alpha_text in VERIFY_ALPHAS:
                    alpha = FracOrder.parse(alpha_text, exact=False)
                    if ident in UNIT_INTERVAL and not alpha.alpha < 1:
                        continue
                    for n in VERIFY_SIZES:
                        for rep in run_trial(ident, alpha, anchor, anchor + n,
                                             0, False, float):
                            assert rep.passed, (anchor, ident, alpha_text, n,
                                                rep.identity_id, rep.residual)

    def test_trial_inputs_do_not_depend_on_anchor(self, monkeypatch):
        # (0.1 + 4) - 0.1 is 3.9999999999999996; the trial is seeded by the
        # grid's integer length, so it draws what it draws at anchor 0
        drawn = []

        def recording(*args):
            f = random_gridfn(*args)
            drawn.append(f.values)
            return f

        monkeypatch.setattr(identities, "random_gridfn", recording)
        runs = []
        for anchor in (0.0, 0.1):
            drawn.clear()
            (rep,) = run_trial("P21", FracOrder(0.5), anchor, anchor + 4, 0,
                               False, float)
            runs.append((rep, list(drawn)))
        (r0, inputs0), (r1, inputs1) = runs
        assert inputs1 == inputs0
        for x, y in ((r0.lhs, r1.lhs), (r0.rhs, r1.rhs)):
            assert abs(x - y) <= FLOAT_TOLERANCE * (1 + max(abs(x), abs(y)))


class TestProperties:
    @given(alpha=st.builds(rational, st.integers(1, 9), st.integers(2, 10)),
           seed=st.integers(0, 10 ** 6), n=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_sum_by_parts_random(self, alpha, seed, n):
        f = random_fn(seed, 0, n)
        g = random_fn(seed + 1, 0, n)
        rep = check_sum_by_parts(f, g, alpha, 0, n)
        assert rep.residual == 0

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 10),
           num=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_caputo_by_parts_random(self, seed, n, num):
        alpha = FracOrder(rational(num, 10))
        f = random_fn(seed, 0, n)
        g = random_fn(seed + 1, 0, n)
        rep = check_caputo_by_parts(f, g, alpha, 0, n)
        assert rep.residual == 0

    def test_constant_f_caputo(self):
        # Caputo annihilates constants, so lhs = 0 and rhs = -boundary
        c = GridFn(0, (rational(4),) * 8)
        g = random_fn(3, 0, 7)
        rep = check_caputo_by_parts(c, g, FracOrder(rational("1/2")), 0, 7)
        assert rep.lhs == 0
        assert rep.rhs + rep.boundary_term == 0

    def test_riemann_caputo_checks_both_forms(self):
        f = random_fn(5, 0, 9)
        g = random_fn(6, 0, 9)
        rep = check_riemann_caputo_by_parts(f, g, FracOrder(rational("2/3")),
                                            0, 9)
        assert rep.residual == 0

    def test_unit_interval_guard(self):
        f = random_fn(1, 0, 6)
        g = random_fn(2, 0, 6)
        with pytest.raises(ValueError):
            check_caputo_by_parts(f, g, FracOrder(rational("5/4")), 0, 6)

    def test_shift_reports_all_six(self):
        f = random_fn(7, 0, 8)
        reports = check_shift_properties(f, FracOrder(rational("1/2")), 0, 8)
        assert [r.identity_id for r in reports] == \
            ["S1", "S2", "S3", "S4", "S5", "S6"]


class TestReport:
    def test_float_tolerance_policy(self):
        good = IdentityReport("P21", 1e6, 1e6, 0.0, 9e-4, "d")
        assert good.passed  # scaled by 1 + max(|lhs|, |rhs|)
        bad = IdentityReport("P21", 1.0, 1.0, 0.0, 1e-8, "d")
        assert not bad.passed

    def test_json_fields(self):
        rep = IdentityReport("T25", rational(1), rational(1), rational(0),
                             rational(0), "d")
        rec = json.loads(rep.to_json(rational("1/2"), rational(0),
                                     rational(8), 7))
        assert rec == {"identity_id": "T25", "alpha": "1/2", "a": "0/1",
                       "b": "8/1", "seed": 7, "residual": "0/1",
                       "pass": True}

    def test_trial_determinism(self):
        alpha = FracOrder(rational("1/2"))
        a = run_trial("T26", alpha, 0, 9, 42, True, exact_make)
        b = run_trial("T26", alpha, 0, 9, 42, True, exact_make)
        assert [(r.lhs, r.rhs) for r in a] == [(r.lhs, r.rhs) for r in b]

    def test_lattice_constants(self):
        assert VERIFY_ALPHAS == ("1/3", "1/2", "2/3", "3/4", "5/4", "3/2")
        assert tuple(VERIFY_SIZES) == tuple(range(2, 13))
        assert FLOAT_TOLERANCE == 1e-9
