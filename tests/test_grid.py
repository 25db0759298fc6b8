import pytest

from nablafrac.backend import format_scalar, rational
from nablafrac.grid import (DomainError, Grid, GridFn, _offset, inner_sum,
                            read_gridfn_csv, shift_rho, shift_sigma,
                            write_gridfn_csv)


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

    def test_defined_at(self):
        f = GridFn(0, (1, 2))
        assert f.defined_at(1)
        assert not f.defined_at(2)
        assert not f.defined_at(rational("1/2"))

    def test_restrict(self):
        f = GridFn(0, (1, 2, 3, 4))
        r = f.restrict(1, 2)
        assert r.lo == 1 and r.values == (2, 3)
        with pytest.raises(DomainError):
            f.restrict(-1, 2)

    def test_pad_zeros(self):
        f = GridFn(2, (5, 6))
        p = f.pad_zeros(0, 4)
        assert p.lo == 0 and p.values == (0, 0, 5, 6, 0)

    def test_from_callable(self):
        f = GridFn.from_callable(1, 3, lambda t: t * t)
        assert f.values == (1, 4, 9)

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
