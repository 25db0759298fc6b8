import json

import pytest

from nablafrac.backend import rational
from nablafrac.cli import main
from nablafrac.grid import GridFn, read_gridfn_csv, write_gridfn_csv


def write_ones(path, lo=0, n=6, exact=True):
    one = rational(1) if exact else 1.0
    write_gridfn_csv(GridFn(lo if exact else float(lo), (one,) * n), path)


def problem_config(path, **overrides):
    cfg = {"alpha": "1/2", "a": 0, "b": 8,
           "formulation": "riemann_b",
           "boundary": {"kind": "natural"},
           "lagrangian": {"name": "quadratic_potential", "omega": 1.0},
           "tol": 1e-10, "max_iter": 50}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


class TestApply:
    def test_integer_order_running_sum(self, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_ones(src)
        code = main(["apply", "nabla-left-sum", "--alpha", "1", "--a", "0",
                     "--backend", "rational", "--input", str(src),
                     "--output", str(dst)])
        assert code == 0
        out = read_gridfn_csv(dst, exact=True)
        assert out.lo == 1 and out.values == (1, 2, 3, 4, 5)

    def test_half_order_value(self, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_ones(src)
        main(["apply", "nabla-left-sum", "--alpha", "1/2", "--a", "0",
              "--backend", "rational", "--input", str(src),
              "--output", str(dst)])
        out = read_gridfn_csv(dst, exact=True)
        assert out(3) == rational("15/8")
        assert dst.read_text().splitlines()[3].endswith("15/8")

    def test_caputo_of_constant_is_zero(self, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_ones(src)
        code = main(["apply", "caputo-left", "--alpha", "1/2", "--a", "0",
                     "--backend", "rational", "--input", str(src),
                     "--output", str(dst)])
        assert code == 0
        out = read_gridfn_csv(dst, exact=True)
        assert all(v == 0 for v in out.values)

    def test_roundtrip_float_bits(self, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        f = GridFn(0.0, (0.1, -2.5, 1 / 3, 7.25, 0.0, 9.125))
        write_gridfn_csv(f, src)
        main(["apply", "nabla-right-sum", "--alpha", "1/2", "--b", "6",
              "--input", str(src), "--output", str(dst)])
        again = read_gridfn_csv(dst, exact=False)
        back = tmp_path / "back.csv"
        write_gridfn_csv(again, back)
        assert dst.read_text() == back.read_text()

    def test_malformed_input_exit_2(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("garbage\n")
        code = main(["apply", "nabla-left-sum", "--alpha", "1/2", "--a", "0",
                     "--input", str(src), "--output",
                     str(tmp_path / "o.csv")])
        assert code == 2

    def test_domain_error_exit_1(self, tmp_path):
        src = tmp_path / "in.csv"
        write_ones(src, lo=3)
        code = main(["apply", "nabla-left-sum", "--alpha", "1/2", "--a", "0",
                     "--backend", "rational", "--input", str(src),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1

    def test_float_anchor_matches_integer_anchor(self, tmp_path):
        # the same values one step after anchor -0.9 and after anchor -1
        vals = (0.1, -2.5, 1 / 3, 7.25, 0.0, 9.125)
        out = {}
        for lo, anchor in ((0.1, "-0.9"), (0.0, "-1")):
            src, dst = tmp_path / f"in{lo}.csv", tmp_path / f"out{lo}.csv"
            write_gridfn_csv(GridFn(lo, vals), src)
            code = main(["apply", "nabla-left-sum", "--alpha", "1/2",
                         "--a", anchor, "--input", str(src),
                         "--output", str(dst)])
            assert code == 0
            out[lo] = read_gridfn_csv(dst, exact=False).values
        assert len(out[0.1]) == len(vals)
        assert out[0.1] == out[0.0]

    def test_missing_anchor_exit_2(self, tmp_path):
        src = tmp_path / "in.csv"
        write_ones(src)
        code = main(["apply", "nabla-left-sum", "--alpha", "1/2",
                     "--input", str(src), "--output",
                     str(tmp_path / "o.csv")])
        assert code == 2


class TestVerify:
    def test_rational_all_pass(self, tmp_path):
        rep = tmp_path / "rep.jsonl"
        code = main(["verify", "--backend", "rational", "--trials", "1",
                     "--output", str(rep)])
        assert code == 0
        lines = rep.read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert rec["pass"] is True
            assert rec["residual"] == "0/1"

    def test_float_all_pass(self, tmp_path):
        rep = tmp_path / "rep.jsonl"
        code = main(["verify", "--backend", "float", "--trials", "1",
                     "--output", str(rep)])
        assert code == 0

    def test_float_non_integer_anchor(self, tmp_path):
        rep = tmp_path / "rep.jsonl"
        code = main(["verify", "--backend", "float", "--a", "0.1",
                     "--trials", "1", "--output", str(rep)])
        assert code == 0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["verify", "--backend", "rational", "--trials", "1",
                         "--seed", "9", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_exit_2(self):
        assert main(["verify", "--trials", "0"]) == 2


class TestSolve:
    def test_natural_quadratic(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp)
        out = tmp_path / "sol.csv"
        code = main(["solve", "--input", str(cfgp), "--output", str(out)])
        assert code == 0
        side = json.loads((tmp_path / "sol.json").read_text())
        assert side["converged"] is True
        assert side["gradient_norm"] < 1e-9
        assert set(side) == {"gradient_norm", "iterations", "converged",
                             "max_el_residual"}

    def test_caputo_fixed(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, formulation="caputo",
                       boundary={"kind": "fixed", "A": 1.0, "B": 0.5})
        out = tmp_path / "sol.csv"
        code = main(["solve", "--input", str(cfgp), "--output", str(out)])
        assert code == 0
        sol = read_gridfn_csv(out, exact=False)
        assert sol(0.0) == 1.0 and sol(7.0) == 0.5

    def test_bad_config_exit_2(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, lagrangian={"name": "unknown"})
        code = main(["solve", "--input", str(cfgp), "--output",
                     str(tmp_path / "s.csv")])
        assert code == 2

    def test_nonconvergence_exit_1(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, formulation="riemann_a",
                       boundary={"kind": "fixed", "A": 1.0},
                       lagrangian={"name": "quartic_potential"})
        code = main(["solve", "--input", str(cfgp), "--output",
                     str(tmp_path / "s.csv"), "--max-iter", "8"])
        assert code == 1


class TestSweep:
    def test_three_alpha_blocks(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, formulation="riemann_a",
                       boundary={"kind": "fixed", "A": 1.0})
        out = tmp_path / "table.csv"
        code = main(["sweep", "--input", str(cfgp), "--output", str(out),
                     "--alpha-list", "1/4,1/2,3/4"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,t,y,max_el_residual,gradient_norm,converged"
        alphas = {line.split(",")[0] for line in lines[1:]}
        assert alphas == {"1/4", "1/2", "3/4"}
        assert all(line.endswith("true") for line in lines[1:])

    def test_duplicates_deduplicated_with_warning(self, tmp_path, capsys):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp)
        out = tmp_path / "table.csv"
        code = main(["sweep", "--input", str(cfgp), "--output", str(out),
                     "--alpha-list", "1/2,1/2"])
        assert code == 0
        assert "duplicate" in capsys.readouterr().err
        alphas = {line.split(",")[0]
                  for line in out.read_text().splitlines()[1:]}
        assert alphas == {"1/2"}

    def test_empty_list_exit_2(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp)
        code = main(["sweep", "--input", str(cfgp), "--output",
                     str(tmp_path / "t.csv"), "--alpha-list", " , "])
        assert code == 2


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
