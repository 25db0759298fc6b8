import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import identities
from nablafrac.backend import rational
from nablafrac.grid import GridFn, _offset, shift_rho, shift_sigma
from nablafrac.identities import (FLOAT_TOLERANCE, VERIFY_ALPHAS,
                                  VERIFY_SIZES, IdentityReport, _report,
                                  check_caputo_by_parts,
                                  check_riemann_caputo_by_parts,
                                  check_shift_properties, check_sum_by_parts,
                                  random_gridfn, run_trial)
from nablafrac.numerics import FracOrder, _order, _order_value
from nablafrac.operators import (caputo_left, caputo_right,
                                 delta_left_riemann, delta_left_sum,
                                 delta_right_riemann, delta_right_sum,
                                 nabla_left_riemann, nabla_left_sum_fn,
                                 nabla_right_riemann, nabla_right_sum_fn)

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
        good = IdentityReport("P21", 1e6, 1e6, 0.0, 9e-4)
        assert good.passed  # scaled by 1 + max(|lhs|, |rhs|)
        bad = IdentityReport("P21", 1.0, 1.0, 0.0, 1e-8)
        assert not bad.passed

    def test_json_fields(self):
        rep = IdentityReport("T25", rational(1), rational(1), rational(0),
                             rational(0))
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


# -- pointwise references ----------------------------------------------------
# The checks read their operands by offset slices and add exact products as
# one integer dot product.  These are the pointwise bodies they replaced: one
# GridFn.__call__ per point and one Fraction product per term, in the same
# order.  Every report must equal theirs field for field.

def pointwise_inner_sum(f, g, lo, hi):
    if _offset(hi, lo) < 0:
        return 0
    return sum(f(lo + k) * g(lo + k) for k in range(_offset(hi, lo) + 1))


def pointwise_p23(f, g, alpha, a, b):
    av = _order_value(alpha)
    dls = delta_left_sum(f.restrict(a + 1, b - 1), av, a)
    drs = delta_right_sum(g.restrict(a + 1, b - 1), av, b)
    pts = [a + k for k in range(1, _offset(b, a))]
    lhs = sum(g(s) * dls(s + av) for s in pts)
    rhs = sum(f(s) * drs(s - av) for s in pts)
    return _report("P23", lhs, rhs, lhs * 0)


def pointwise_p24(f, g, alpha, a, b):
    alpha = _order(alpha)
    av = alpha.alpha
    dlr = delta_left_riemann(g.restrict(a + 1, b - 1), alpha, a)
    drr = delta_right_riemann(f.restrict(a + 1, b - 1), alpha, b)
    pts = [a + k for k in range(1, _offset(b, a))]
    lhs = sum(f(s) * dlr(s - av) for s in pts)
    rhs = sum(g(s) * drr(s + av) for s in pts)
    return _report("P24", lhs, rhs, lhs * 0)


def pointwise_t25(f, g, alpha, a, b):
    alpha = _order(alpha)
    av = alpha.alpha
    cl = caputo_left(f.restrict(a, b - 1), alpha, a)
    rs = nabla_right_sum_fn(g.restrict(a, b - 1), 1 - av, b)
    rr = nabla_right_riemann(g.restrict(a, b - 1), alpha, b)
    pts = [a + k for k in range(1, _offset(b, a))]
    lhs = sum(g(s) * cl(s) for s in pts)
    boundary = f(b - 1) * rs(b - 1) - f(a) * rs(a)
    rhs = sum(f(s - 1) * rr(s - 1) for s in pts)
    return _report("T25", lhs, rhs, boundary)


def pointwise_t26(f, g, alpha, a, b):
    alpha = _order(alpha)
    av = alpha.alpha
    lr = nabla_left_riemann(g.restrict(a + 1, b - 1), alpha, a)
    ls = nabla_left_sum_fn(g.restrict(a + 1, b - 1), 1 - av, a)
    cr = caputo_right(f.restrict(a, b - 1), alpha, b, truncate=True)
    pts = [a + k for k in range(1, _offset(b, a))]
    lhs = sum(f(s - 1) * lr(s) for s in pts)
    boundary = f(b - 1) * ls(b - 1) - f(a) * ls(a)
    rhs1 = sum(g(s + 1) * cr(s) for s in [a] + pts[:-1])
    rhs2 = sum(g(s) * cr(s - 1) for s in pts)
    residuals = [lhs - boundary - rhs1, lhs - boundary - rhs2, rhs1 - rhs2]
    worst = max(residuals, key=abs)
    return IdentityReport("T26", lhs, rhs1, boundary, worst)


def pointwise_shift(f, alpha, a, b):
    alpha = _order(alpha)
    av = alpha.alpha
    n = alpha.n
    fr = shift_rho(f)
    fs = shift_sigma(f)

    def cmp(ident, left, right, lo, hi, arg):
        worst = None
        for k in range(_offset(hi, lo) + 1):
            t = lo + k
            lv, rv = left(t), right(arg(t))
            d = lv - rv
            if worst is None or abs(d) > abs(worst[2]):
                worst = (lv, rv, d)
        return IdentityReport(ident, worst[0], worst[1], worst[2] * 0,
                              worst[2])

    rho = lambda t: t - 1
    sigma = lambda t: t + 1
    return [
        cmp("S1", nabla_left_sum_fn(fr, av, a),
            nabla_left_sum_fn(f, av, a - 1), a + 1, b + 1, rho),
        cmp("S2", nabla_left_riemann(fr, alpha, a),
            nabla_left_riemann(f, alpha, a - 1), a + 1, b + 1, rho),
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


REFERENCE_ANCHORS = [
    (True, 0), (True, rational(0)), (True, rational(1, 3)),
    (False, 0.0), (False, 0.1), (False, -2.3),
]


def lattice_reports(ident, exact, a):
    make = exact_make if exact else float
    reports = []
    for alpha_text in VERIFY_ALPHAS:
        alpha = FracOrder.parse(alpha_text, exact)
        if ident in UNIT_INTERVAL and not alpha.alpha < 1:
            continue
        for n in VERIFY_SIZES:
            for seed in (0, 1):
                reports += run_trial(ident, alpha, a, a + n, seed, exact,
                                     make)
    return reports


class TestPointwiseReference:
    @pytest.mark.parametrize("exact,a", REFERENCE_ANCHORS,
                             ids=["exact-int-0", "exact-0", "exact-1/3",
                                  "float-0", "float-0.1", "float-minus-2.3"])
    @pytest.mark.parametrize("ident", ALL_IDENTITIES)
    def test_lattice_equals_pointwise(self, monkeypatch, ident, exact, a):
        got = lattice_reports(ident, exact, a)
        monkeypatch.setattr(identities, "inner_sum", pointwise_inner_sum)
        monkeypatch.setattr(identities, "check_shift_properties",
                            pointwise_shift)
        for key, ref in (("P23", pointwise_p23), ("P24", pointwise_p24),
                         ("T25", pointwise_t25), ("T26", pointwise_t26)):
            monkeypatch.setitem(identities._CHECKS, key, ref)
        want = lattice_reports(ident, exact, a)
        assert len(got) == len(want) > 0
        for rep, ref in zip(got, want):
            assert rep == ref
            for name in ("lhs", "rhs", "boundary_term", "residual"):
                assert type(getattr(rep, name)) is type(getattr(ref, name))


class TestShiftWorstPoint:
    """On the lattice both sides of every shift property agree at every
    point, so the worst-point rule never runs there.  Here the left side of
    each property is bumped by a pattern with ties in magnitude and both
    signs; the report must still equal the pointwise reference's: the first
    point of largest |lhs - rhs|."""

    PATTERN = (0, 3, -3, 1, 3, -2, 0, -3)

    def bump(self, op, side_anchor, one):
        def bumped(f, alpha, anchor, **kw):
            out = op(f, alpha, anchor, **kw)
            if anchor != side_anchor:
                return out
            return GridFn(out.lo, tuple(
                v + one * self.PATTERN[k % len(self.PATTERN)]
                for k, v in enumerate(out.values)))
        return bumped

    @pytest.mark.parametrize("exact,a", REFERENCE_ANCHORS,
                             ids=["exact-int-0", "exact-0", "exact-1/3",
                                  "float-0", "float-0.1", "float-minus-2.3"])
    def test_first_point_of_largest_difference(self, monkeypatch, exact, a):
        one = rational(1) if exact else 1.0
        make = exact_make if exact else float
        nonzero = 0
        for alpha_text in VERIFY_ALPHAS:
            alpha = FracOrder.parse(alpha_text, exact)
            for n in VERIFY_SIZES:
                b = a + n
                for name, side in (("nabla_left_sum_fn", a),
                                   ("nabla_left_riemann", a),
                                   ("caputo_left", a + 1),
                                   ("nabla_right_sum_fn", b),
                                   ("nabla_right_riemann", b),
                                   ("caputo_right", b)):
                    bumped = self.bump(getattr(identities, name), side, one)
                    monkeypatch.setattr(identities, name, bumped)
                    monkeypatch.setitem(globals(), name, bumped)
                f = random_gridfn(random.Random(n), a, b, make)
                got = check_shift_properties(f, alpha, a, b)
                want = pointwise_shift(f, alpha, a, b)
                monkeypatch.undo()
                assert got == want
                nonzero += sum(rep.residual != 0 for rep in got)
        assert nonzero > 0
