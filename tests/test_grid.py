import random
import warnings
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from nablafrac.backend import format_scalar, parse_scalar, rational
from nablafrac.cli import _OPERATORS
from nablafrac.grid import (_CSV_BLOCK, DomainError, Grid, GridFn, _offset,
                            dot, inner_sum, read_gridfn_csv, shift_rho,
                            shift_sigma, write_gridfn_csv)
from nablafrac.numerics import FracOrder
from nablafrac.operators import nabla_left_sum_fn


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

    @pytest.mark.parametrize("t,lo", [
        (float("inf"), 0.0), (float("-inf"), 0.0), (float("nan"), 0.0),
        (1.0, float("inf")), (1.0, float("nan")),
        (float("inf"), float("inf")),
    ])
    def test_non_finite_float_point(self, t, lo):
        with pytest.raises(DomainError):
            _offset(t, lo)

    # Fractions over one denominator take _offset's integer path; every
    # other pair, its subtraction.  Both must give what one Fraction
    # subtraction gives: the same int, or a DomainError with the same text.
    @pytest.mark.parametrize("t,lo", [
        (Fraction(7, 3), Fraction(1, 3)),             # one denominator
        (Fraction(4, 3), Fraction(2, 3)),             # ... off the grid
        (Fraction(1, 3), Fraction(7, 3)),             # negative offsets
        (Fraction(-5, 3), Fraction(1, 3)),
        (Fraction(-1, 3), Fraction(1, 3)),            # ... off the grid
        (Fraction(-4, 3), Fraction(2, 3)),
        (Fraction(-7), Fraction(5)),                  # denominator 1
        (Fraction(3 * 10**20 + 1, 3), Fraction(1, 3)),
        (Fraction(7, 2), Fraction(1, 3)),             # unequal denominators
        (Fraction(5), Fraction(1, 2)),
        (Fraction(-1, 6), Fraction(5, 6) - 1),
        (5, Fraction(2)),                             # int / Fraction mixes
        (Fraction(5), 2),
        (-4, Fraction(3)),
        (3, Fraction(1, 3)),
        (Fraction(7, 3), 1),
        (4, 9),
    ])
    def test_matches_fraction_subtraction(self, t, lo):
        def by_subtraction(t, lo):
            d = Fraction(t) - Fraction(lo)
            if d.denominator != 1:
                raise DomainError(
                    f"point {t} is not on the grid anchored at {lo}")
            return d.numerator

        try:
            want = by_subtraction(t, lo)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                _offset(t, lo)
            assert str(got.value) == str(exc)
        else:
            got = _offset(t, lo)
            assert type(got) is int and got == want

    @pytest.mark.parametrize("b", [float("inf"), float("nan")])
    def test_non_finite_grid_end(self, b):
        with pytest.raises(DomainError):
            Grid(0.0, b)


class TestFloatRange:
    """Past 2^53 in magnitude floats lie two or more apart, so unit steps
    cannot be represented there.  Measured before Grid and GridFn refused
    such grids: Grid(a, a + 8) has 9 distinct points up to a = 2^53 - 8,
    and from a = 2^53 - 6 (b = 2^53 + 2) its points collide; Grid(1e17,
    1e17 + 8).N read 0, and a left sum of a 9-point GridFn at 1e16 + 1
    returned 10 values.  The last grid that fits and the first that does
    not are tested on both sides of 0."""

    EDGE = 2.0 ** 53

    @staticmethod
    def fn(lo, n):
        return GridFn(lo, tuple(float(k) for k in range(n)))

    def test_grids_up_to_the_edge(self):
        for a, b in ((self.EDGE - 8, self.EDGE), (-self.EDGE, 8 - self.EDGE)):
            g = Grid(a, b)
            assert g.N == 8 and len(set(g.points())) == 9
        # the left sum's anchor lo - 1 is a grid point too
        for lo in (self.EDGE - 8, 1 - self.EDGE):
            f = self.fn(lo, 9)
            assert f.hi == lo + 8 and f(f.hi) == 8.0
            assert len(nabla_left_sum_fn(f, 0.5, lo - 1)) == 10

    @pytest.mark.parametrize("a,b", [
        (EDGE - 6, EDGE + 2), (-EDGE - 2, 6 - EDGE), (1e17, 1e17 + 8)])
    def test_grids_past_the_edge_rejected(self, a, b):
        with pytest.raises(DomainError, match="2\\^53"):
            Grid(a, b)

    @pytest.mark.parametrize("lo,n", [
        (EDGE - 7, 9), (EDGE - 8, 10), (-EDGE - 2, 9), (1e16 + 1, 9)])
    def test_grid_functions_past_the_edge_rejected(self, lo, n):
        with pytest.raises(DomainError, match="2\\^53"):
            self.fn(lo, n)

    def test_exact_points_unbounded(self):
        f = GridFn(10 ** 20, (1, 2, 3))
        assert f.hi == 10 ** 20 + 2 and f(10 ** 20 + 1) == 2
        assert Grid(rational(10 ** 20, 3), rational(10 ** 20 + 24, 3)).N == 8

    def test_crossing_a_binade_below_the_edge_rejected(self):
        # below 2^53 a unit step rounds by less than 1/2, which _offset
        # sees: here by about 1.5e-8 past 2^27
        a = 2.0 ** 27 - 0.3
        with pytest.raises(DomainError, match="not on the grid"):
            Grid(a, a + 8)


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


def _reference_read(path, exact):
    """The row-by-row reader that read_gridfn_csv replaced: one
    parse_scalar per token and one _offset per row."""
    with open(path) as src:
        header = src.readline().strip()
        if header != "t,value":
            raise ValueError(f"bad GridFn CSV header: {header!r}")
        points, values = [], []
        for line in src:
            line = line.strip()
            if not line:
                continue
            t_text, v_text = line.split(",")
            points.append(parse_scalar(t_text, exact))
            values.append(parse_scalar(v_text, exact))
    if not points:
        raise ValueError("empty GridFn CSV")
    f = GridFn(points[0], tuple(values))
    for k, t in enumerate(points):
        if _offset(t, f.lo) != k:
            raise ValueError("GridFn CSV rows must ascend in exact unit steps")
    return f


def _reference_write(f, points=None):
    """The CSV text of the row-by-row writer that write_gridfn_csv
    replaced: format_scalar on every t and every value."""
    rows = zip(f.points() if points is None else points, f.values)
    return "t,value\n" + "".join(
        f"{format_scalar(t)},{format_scalar(v)}\n" for t, v in rows)


def _bits(f):
    """lo and values by type and repr, so -0.0, nan and Fraction vs float
    all count."""
    return [(type(x), repr(x)) for x in (f.lo, *f.values)]


def _rows(n, lo=0.0):
    rng = random.Random(n)
    return ["%.17g,%.17g" % (lo + k, rng.uniform(-1e3, 1e3))
            for k in range(n)]


_B = _CSV_BLOCK
# name -> CSV body after the header
READ_CASES = {
    "blank-lines": "0,1\n\n1,2\n   \n\t\n2,3\n\n",
    "blank-lines-at-block-boundary": "\n".join(
        _rows(_B - 1) + [""] * (_B + 2) + _rows(3, lo=_B - 1.0)
        + [""]) + "\n",
    "whitespace-and-crlf": " 0 , 1.5 \r\n\t1,\t-2\r\n2 ,3e-3\r\n",
    "p/q-tokens": "0,1/3\n1,-2/7\n2,0.5\n3,5\n",
    "p/q-t-column": "1/3,1\n4/3,2/9\n7/3,3\n",
    "p/q-in-second-block-only": "\n".join(
        _rows(_B) + [f"{_B},1/3"]) + "\n",
    "rows-block-minus-1": "\n".join(_rows(_B - 1)) + "\n",
    "rows-block": "\n".join(_rows(_B)) + "\n",
    "rows-block-plus-1": "\n".join(_rows(_B + 1)) + "\n",
    "snap-accepted": "0,1\n1,2\n2.0000000005,3\n3,4\n",
    "snap-rejected": "0,1\n1,2\n2.000000002,3\n3,4\n",
    "anchor-0.1": "\n".join(_rows(40, lo=0.1)) + "\n",
    "anchor-minus-2.3": "\n".join(_rows(40, lo=-2.3)) + "\n",
    "integer-t-column": "0,1\n1,-0\n2,inf\n3,nan\n4,5e-324\n",
    "one-field-row": "0,1\n1\n2,3\n",
    "three-field-row": "0,1\n1,2,3\n2,3\n",
    "three-field-row-t-column-on-grid": "0,7,1\n8,2\n",
    # the two fields too many and too few would make a unit-step grid if
    # the rows were split as one
    "three-then-one-field": "0,1,1\n2\n2,3\n",
    "one-then-three-field": "0,1\n1\n1,2,3\n",
    "steps-of-two": "0,1\n2,2\n",
    "descending": "1,1\n0,2\n",
    "bad-token": "0,1\n1,x\n",
    "only-blank-lines": "\n\n  \n",
}


class TestCsvBlocks:
    """The block reader and writer against the row-by-row ones they
    replaced: the same values (or the same ValueError) and the same
    bytes."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("name", list(READ_CASES))
    def test_read_matches_row_reader(self, tmp_path, name, exact):
        path = tmp_path / "f.csv"
        path.write_bytes(("t,value\n" + READ_CASES[name]).encode())
        try:
            want = _bits(_reference_read(path, exact))
        except ValueError:
            with pytest.raises(ValueError):
                read_gridfn_csv(path, exact)
            return
        assert _bits(read_gridfn_csv(path, exact)) == want

    @pytest.mark.parametrize("name,valid", [
        ("snap-accepted", True), ("snap-rejected", False),
        ("anchor-0.1", True), ("three-then-one-field", False),
        ("one-then-three-field", False),
        ("blank-lines-at-block-boundary", True)])
    def test_read_cases_in_float_mode(self, tmp_path, name, valid):
        # the comparison above must see both outcomes
        path = tmp_path / "f.csv"
        path.write_text("t,value\n" + READ_CASES[name])
        if valid:
            assert len(read_gridfn_csv(path, False)) > 1
        else:
            with pytest.raises(ValueError):
                read_gridfn_csv(path, False)

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e308"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_t_is_value_error(self, tmp_path, bad, row):
        # 1e308 - (-1e308) overflows to inf; no numpy warning escapes
        t = ["-1e308" if bad == "1e308" else "0", "1", "2", "3"]
        t[row] = bad
        path = tmp_path / "f.csv"
        path.write_text("t,value\n" + "".join(f"{x},1\n" for x in t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                read_gridfn_csv(path, False)

    @pytest.mark.parametrize("lo", [0.0, 2.0 ** 53 - 2 ** 14, -2.3,
                                    rational(1, 3), 5],
                             ids=["0", "2^53-2^14", "-2.3", "1/3", "int-5"])
    def test_write_matches_format_scalar(self, tmp_path, lo):
        rng = random.Random(5)
        special = (-0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
                   -2.5e17, 1e17, 0.1, 1 / 3)
        values = special + tuple(rng.uniform(-1, 1) * 10 ** rng.randint(
            -20, 20) for _ in range(2 * _B))
        for vals in (values, values[:_B - 1] + (7,) + values[_B:]):
            f = GridFn(lo, vals)
            path = tmp_path / "f.csv"
            write_gridfn_csv(f, path)
            assert path.read_bytes() == _reference_write(f).encode()

    @pytest.mark.parametrize("lo", [0.1, 0.0, -20000.0, 2.0 ** 53 - 2 ** 14,
                                    -0.0, 2.0 ** 53 - (2 * _B + 3)])
    def test_write_explicit_points(self, tmp_path, lo):
        # given points that are all integers are written by "%d": the bytes
        # stay format_scalar's, also in a block whose int value takes
        # format_scalar for the whole block
        rng = random.Random(9)
        values = (-0.0, 0.0, 0.1) + tuple(
            rng.uniform(-1, 1) * 10 ** rng.randint(-20, 20)
            for _ in range(2 * _B))
        for vals in (values, values[:_B + 1] + (7,) + values[_B + 2:]):
            f = GridFn(lo, vals)
            points = lo + np.arange(len(vals), dtype=float)
            path = tmp_path / "f.csv"
            for given in (points, points.tolist()):
                write_gridfn_csv(f, path, given)
                assert path.read_bytes() == _reference_write(
                    f, points.tolist()).encode()

    def test_write_points_minus_zero_and_int_points(self, tmp_path):
        path = tmp_path / "f.csv"
        write_gridfn_csv(GridFn(0.0, (0.5, -0.0)), path, [-0.0, 1.0])
        assert path.read_text() == "t,value\n-0,0.5\n1,-0\n"
        # a GridFn's own int points are rationals, whatever its values
        write_gridfn_csv(GridFn(5, (0.5, -0.0)), path)
        assert path.read_text() == "t,value\n5/1,0.5\n6/1,-0\n"

    def test_write_int_values_as_rationals(self, tmp_path):
        path = tmp_path / "f.csv"
        write_gridfn_csv(GridFn(0, (1, -2, 3)), path)
        assert path.read_text() == "t,value\n0/1,1/1\n1/1,-2/1\n2/1,3/1\n"

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("op", sorted(_OPERATORS))
    def test_operator_output_matches_format_scalar(self, tmp_path, op,
                                                   exact):
        rng = random.Random(op)
        if exact:
            lo, n = rational(1, 3), 40
            values = tuple(rational(rng.randint(-99, 99), rng.randint(1, 9))
                           for _ in range(n))
        else:
            lo, n = 1 / 3, _B + 5
            values = tuple(rng.uniform(-1, 1) for _ in range(n))
        fn, side = _OPERATORS[op]
        offset = 0 if op.startswith("caputo") else 1
        anchor = lo - offset if side == "a" else lo + (n - 1 + offset)
        for alpha in ("1/2", "3/2"):
            out = fn(GridFn(lo, values), FracOrder.parse(alpha, exact),
                     anchor)
            path = tmp_path / "f.csv"
            write_gridfn_csv(out, path)
            assert path.read_bytes() == _reference_write(out).encode()
            if not exact:
                assert _bits(read_gridfn_csv(path, False)) == _bits(
                    _reference_read(path, False))
