import random
from operator import mul

import pytest

from nablafrac.backend import format_scalar, rational
from nablafrac.grid import (DomainError, Grid, GridFn, _offset, dot,
                            inner_sum, read_gridfn_csv, shift_rho,
                            shift_sigma, write_gridfn_csv)


class TestGrid:
    def test_basic(self):
        g = Grid(0, 5)
        assert g.N == 5
        assert list(g.points()) == [0, 1, 2, 3, 4, 5]

    def test_shifted_anchor(self):
        g = Grid(rational("1/2"), rational("7/2"))
        assert g.N == 3

    def test_off_grid_endpoint(self):
        with pytest.raises(DomainError):
            Grid(0, rational("5/2"))

    def test_reversed(self):
        with pytest.raises(DomainError):
            Grid(3, 1)


class TestOffset:
    @pytest.mark.parametrize("t,lo,k", [
        (5, 2, 3),
        (rational(5), 2, 3),
        (5, rational(2), 3),
        (rational("7/2"), rational("1/2"), 3),
        (rational("-5/3"), rational("1/3"), -2),
    ])
    def test_exact_points(self, t, lo, k):
        got = _offset(t, lo)
        assert type(got) is int and got == k
        assert len(range(got)) == max(k, 0)

    @pytest.mark.parametrize("t,lo", [
        (rational("5/2"), 0),
        (3, rational("1/3")),
        (rational("7/3"), rational("1/2")),
    ])
    def test_off_grid_exact_point(self, t, lo):
        with pytest.raises(DomainError):
            _offset(t, lo)


class TestGridFn:
    def test_call_and_domain(self):
        f = GridFn(2, (10, 20, 30))
        assert f(2) == 10 and f(4) == 30
        assert f.hi == 4 and len(f) == 3
        with pytest.raises(DomainError):
            f(5)
        with pytest.raises(DomainError):
            f(rational("5/2"))

    def test_float_snap(self):
        f = GridFn(0.0, (1.0, 2.0))
        assert f(1.0 + 1e-12) == 2.0
        with pytest.raises(DomainError):
            f(0.5)

    def test_restrict(self):
        f = GridFn(0, (1, 2, 3, 4))
        r = f.restrict(1, 2)
        assert r.lo == 1 and r.values == (2, 3)
        with pytest.raises(DomainError):
            f.restrict(-1, 2)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            GridFn(0, ())

    def test_shifts_roundtrip(self):
        f = GridFn(0, (1, 2, 3))
        assert shift_rho(f)(1) == f(0)
        assert shift_sigma(f)(-1) == f(0)
        back = shift_sigma(shift_rho(f))
        assert back.lo == f.lo and back.values == f.values

    def test_inner_sum(self):
        f = GridFn(0, (1, 2, 3))
        g = GridFn(0, (4, 5, 6))
        assert inner_sum(f, g, 0, 2) == 4 + 10 + 18


class TestInnerSum:
    """inner_sum reads by offset slices; it must add the same products in
    the same order as the pointwise definition, and never truncate."""

    @staticmethod
    def pointwise(f, g, lo, hi):
        return sum(f(lo + k) * g(lo + k) for k in range(_offset(hi, lo) + 1))

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_anchor_one_third_matches_pointwise(self, exact):
        rng = random.Random(3)
        if exact:
            a = rational(1, 3)
            draw = lambda: rational(rng.randint(-99, 99), rng.randint(1, 9))
        else:
            a = 1 / 3
            draw = lambda: rng.uniform(-1e3, 1e3)
        f = GridFn(a, tuple(draw() for _ in range(40)))
        g = GridFn(a - 5, tuple(draw() for _ in range(50)))
        for lo, hi in ((a, a + 39), (a + 2, a + 30), (a + 7, a + 7)):
            got = inner_sum(f, g, lo, hi)
            assert got == self.pointwise(f, g, lo, hi)
            assert type(got) is type(f.values[0])

    @pytest.mark.parametrize("lo,hi", [(0, 3), (-1, 2), (1, 5), (2, 6)])
    def test_range_outside_an_operand_raises(self, lo, hi):
        f = GridFn(0, (1, 2, 3, 4, 5))          # [0, 4]
        g = GridFn(1, (1, 1, 1, 1, 1, 1))       # [1, 6]
        for x, y in ((f, g), (g, f)):
            with pytest.raises(DomainError):
                inner_sum(x, y, lo, hi)

    def test_empty_range_is_zero(self):
        f = GridFn(0, (1, 2, 3))
        assert inner_sum(f, f, 2, 1) == 0


class TestDot:
    """dot adds float products left to right, bit for bit, and exact
    values as one integer dot product equal to the sum of the products."""

    def test_exact_equals_sum_of_products(self):
        rng = random.Random(8)
        for n in (1, 2, 17, 60):
            xs = tuple(rational(rng.randint(-99, 99), rng.randint(1, 30))
                       for _ in range(n))
            ys = tuple(rational(rng.randint(-99, 99), rng.randint(1, 30))
                       for _ in range(n))
            got = dot(xs, ys)
            assert got == sum(map(mul, xs, ys))
            assert type(got) is type(xs[0])

    def test_float_bit_identical(self):
        rng = random.Random(9)
        for n in (1, 2, 17, 300):
            xs = tuple(rng.uniform(-1e3, 1e3) for _ in range(n))
            ys = tuple(rng.uniform(-1e-3, 1e3) for _ in range(n))
            assert dot(xs, ys).hex() == sum(map(mul, xs, ys)).hex()

    def test_ints_in_value_out(self):
        assert dot((1, -2, 3), (4, 5, -6)) == -24
        assert dot((7,), (0,)) == 0


class TestCsv:
    def test_roundtrip_rational(self, tmp_path):
        f = GridFn(rational("1/2"), (rational("1/3"), rational("-5"),
                                     rational("22/7")))
        path = tmp_path / "f.csv"
        write_gridfn_csv(f, path)
        g = read_gridfn_csv(path, exact=True)
        assert g.lo == f.lo and g.values == f.values

    def test_roundtrip_float_bit_identical(self, tmp_path):
        import random
        rng = random.Random(11)
        values = tuple(rng.uniform(-1e6, 1e6) for _ in range(64))
        values += (0.1, 1 / 3, 1e-300, -2.5e17)
        f = GridFn(0.0, values)
        path = tmp_path / "f.csv"
        write_gridfn_csv(f, path)
        g = read_gridfn_csv(path, exact=False)
        assert g.values == f.values

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time,val\n0,1\n")
        with pytest.raises(ValueError):
            read_gridfn_csv(path, exact=False)

    def test_non_unit_steps(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("t,value\n0,1\n2,2\n")
        with pytest.raises(ValueError):
            read_gridfn_csv(path, exact=False)

    def test_format_scalar_canonical(self):
        assert format_scalar(rational("-4/6")) == "-2/3"
        assert format_scalar(rational("5")) == "5/1"
        assert format_scalar(0.1) == "0.10000000000000001"
