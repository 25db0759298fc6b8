import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nablafrac import cli
from nablafrac.backend import format_scalar, rational
from nablafrac.cli import _OPERATORS, main
from nablafrac.grid import GridFn, read_gridfn_csv, write_gridfn_csv
from nablafrac.numerics import FracOrder

ROOT = Path(__file__).resolve().parent.parent


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

    # the CSV writes 0.1 as 0.10000000000000001, and -0.9 + 1 is
    # 0.099999999999999978; it writes 1/3 as 0.33333333333333331, and
    # (1/3 + 1) + 1 is 2.333333333333333 where 1/3 + 2 is
    # 2.3333333333333335: the nabla and Caputo outputs are published on the
    # input's points, not on the anchor's arithmetic
    INPUT_POINT_CASES = [
        ("nabla-left-sum", "--a", "-0.9", "0.10000000000000001", "1/2"),
        ("nabla-left-riemann", "--a", "-0.9", "0.10000000000000001", "1/2"),
        ("caputo-left", "--a", "0.1", "0.10000000000000001", "1/2"),
        ("nabla-right-sum", "--b", "8.1", "0.10000000000000001", "1/2"),
        ("nabla-right-riemann", "--b", "8.1", "0.10000000000000001", "1/2"),
        ("caputo-right", "--b", "7.1", "0.10000000000000001", "1/2"),
        ("nabla-left-sum", "--a", "0.33333333333333331",
         "0.33333333333333331", "1/2"),
        ("nabla-left-riemann", "--a", "0.33333333333333331",
         "0.33333333333333331", "1/2"),
        ("caputo-left", "--a", "0.33333333333333331",
         "0.33333333333333331", "1/2"),
        ("caputo-left", "--a", "0.33333333333333331",
         "0.33333333333333331", "3/2"),
    ]

    @pytest.mark.parametrize(
        "op,flag,anchor,lo,alpha", INPUT_POINT_CASES,
        ids=[f"{op}-{flag}-{anchor}" + ("" if alpha == "1/2" else f"-{alpha}")
             for op, flag, anchor, _, alpha in INPUT_POINT_CASES])
    def test_float_anchor_keeps_input_points(self, tmp_path, op, flag,
                                             anchor, lo, alpha):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_gridfn_csv(GridFn(float(lo), tuple(float(k * k - 5)
                                                 for k in range(8))), src)
        t_in = [row.split(",")[0] for row in src.read_text().splitlines()[1:]]
        assert t_in[0] == lo
        code = main(["apply", op, "--alpha", alpha, flag, anchor,
                     "--input", str(src), "--output", str(dst)])
        assert code == 0
        t_out = [row.split(",")[0] for row in dst.read_text().splitlines()[1:]]
        i = t_in.index(t_out[0])
        assert t_out == t_in[i:i + len(t_out)]

    @pytest.mark.parametrize("lo", [0.0, -20000.0, 2.0 ** 53 - 2 ** 14],
                             ids=["0", "-20000", "2^53-2^14"])
    @pytest.mark.parametrize("op", sorted(_OPERATORS))
    def test_integral_points_write_format_scalar_bytes(self, tmp_path, op,
                                                        lo):
        # the writer formats integral float points by "%d"; every t must
        # still read as format_scalar of the float point, the delta
        # operators' shifted points too
        n = 2000
        values = np.random.default_rng(n).uniform(-1, 1, n)
        values[7] = -0.0
        f = GridFn(lo, tuple(values.tolist()))
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_gridfn_csv(f, src)
        fn, side = _OPERATORS[op]
        shift = 0 if op.startswith("caputo") else 1
        anchor = lo - shift if side == "a" else f.hi + shift
        for alpha in ("0.37", "1.61"):
            code = main(["apply", op, "--alpha", alpha,
                         f"--{side}={format_scalar(anchor)}",
                         "--input", str(src), "--output", str(dst)])
            assert code == 0
            out = fn(f, FracOrder.parse(alpha, False), anchor)
            vals = out.values
            if op == "nabla-left-sum":
                vals = vals[1:]
            elif op == "nabla-right-sum":
                vals = vals[:-1]
            if op.startswith("delta-"):
                points = list(out.points())
            else:  # the input's points: left outputs end where f ends
                i = n - len(vals) if side == "a" else 0
                points = [lo + float(i + k) for k in range(len(vals))]
            assert dst.read_text() == "t,value\n" + "".join(
                f"{format_scalar(t)},{format_scalar(v)}\n"
                for t, v in zip(points, vals))

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

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_t_exit_2(self, tmp_path, capsys, bad):
        src = tmp_path / "in.csv"
        src.write_text(f"t,value\n0,1\n1,2\n{bad},3\n")
        code = main(["apply", "nabla-left-sum", "--alpha", "1/2", "--a",
                     "-1", "--input", str(src), "--output",
                     str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad input")

    @pytest.mark.parametrize("op,anchor", [
        ("nabla-left-sum", "--a=inf"), ("nabla-left-sum", "--a=nan"),
        ("nabla-right-sum", "--b=inf"), ("caputo-left", "--a=-inf"),
        ("delta-right-riemann", "--b=nan")])
    def test_non_finite_anchor_exit_1(self, tmp_path, capsys, op, anchor):
        src = tmp_path / "in.csv"
        write_ones(src, exact=False)
        code = main(["apply", op, "--alpha", "1/2", anchor, "--input",
                     str(src), "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: point ")

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

    # sha256 of the report, pinned so that a change to the exact path that
    # moves a single byte of it fails here
    @pytest.mark.parametrize("a,digest", [
        ("0", "7771751478c2f5fa5fe0faa8941e5628"
              "bbf1442d1d65d6d604a4adaf88f4a70e"),
        ("1/3", "d460d267fc52a396c079ac6e26fbe41a"
                "fee9cde5ca56eb3a543ee01252f839e2"),
    ])
    def test_pinned_rational_report(self, tmp_path, a, digest):
        rep = tmp_path / "rep.jsonl"
        assert main(["verify", "--backend", "rational", "--trials", "1",
                     "--seed", "9", f"--a={a}", "--output", str(rep)]) == 0
        text = rep.read_bytes()
        assert text.count(b"\n") == 748
        assert hashlib.sha256(text).hexdigest() == digest

    def test_zero_trials_exit_2(self):
        assert main(["verify", "--trials", "0"]) == 2

    def test_closed_stdout_exit_141(self):
        # the default run writes ~400 kB, far past a pipe's buffer, so the
        # process is still writing when the reader goes
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nablafrac.cli", "verify"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert json.loads(first)["identity_id"] == "P21"
        assert proc.returncode == 141
        assert err == b""


class TestSolve:
    def test_natural_quadratic(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp)
        out = tmp_path / "sol.csv"
        code = main(["solve", "--input", str(cfgp), "--output", str(out)])
        assert code == 0
        side = json.loads((tmp_path / "sol.json").read_text())
        assert side["gradient_norm"] < 1e-9
        assert side["max_el_residual"] < 1e-9
        del side["gradient_norm"], side["max_el_residual"]
        assert side == {"iterations": 0, "converged": True,
                        "status": "converged", "path": "newton"}

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

    def test_unread_boundary_data_exit_2(self, tmp_path, capsys):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, formulation="caputo",
                       boundary={"kind": "natural", "A": 5})
        out = tmp_path / "s.csv"
        code = main(["solve", "--input", str(cfgp), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: bad config: CAPUTO natural case does not read A\n"
        assert not out.exists()

    @pytest.mark.parametrize("max_iter,code,status", [
        ("8", 1, "max_iter"), ("50", 0, "converged")])
    def test_continuation_budget(self, tmp_path, max_iter, code, status):
        # full Newton steps stall on this problem; its continuation takes
        # more than the 16 predictor steps that --max-iter 8 allows
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, formulation="riemann_a",
                       boundary={"kind": "fixed", "A": 1.0},
                       lagrangian={"name": "quartic_potential"})
        got = main(["solve", "--input", str(cfgp), "--output",
                    str(tmp_path / "s.csv"), "--max-iter", max_iter])
        side = json.loads((tmp_path / "s.json").read_text())
        assert got == code
        assert (side["status"], side["path"]) == (status, "continuation")
        assert side["converged"] is (code == 0)


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

    def test_out_of_range_order_exit_2(self, tmp_path, capsys):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, formulation="caputo")
        out = tmp_path / "t.csv"
        code = main(["sweep", "--input", str(cfgp), "--output", str(out),
                     "--alpha-list", "1/2,3/2"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: bad config: caputo requires 0 < alpha < 1\n"
        assert not out.exists()

    def test_empty_list_exit_2(self, tmp_path):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp)
        code = main(["sweep", "--input", str(cfgp), "--output",
                     str(tmp_path / "t.csv"), "--alpha-list", " , "])
        assert code == 2

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_flags_override_config(self, tmp_path, command):
        # --tol and --max-iter give the bytes of a config holding the same
        # values
        quartic = dict(formulation="riemann_a",
                       boundary={"kind": "fixed", "A": 1.0},
                       lagrangian={"name": "quartic_potential"})
        extra = ["--alpha-list", "1/2,3/4"] if command == "sweep" else []
        outputs = []
        for name, cfg, flags in (
                ("flags", {}, ["--tol", "1e-4", "--max-iter", "3"]),
                ("config", {"tol": 1e-4, "max_iter": 3}, [])):
            cfgp = tmp_path / f"{name}.json"
            problem_config(cfgp, **quartic, **cfg)
            out = tmp_path / f"{name}.csv"
            code = main([command, "--input", str(cfgp), "--output", str(out),
                         *extra, *flags])
            outputs.append((code, out.read_text()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 1


class TestZeroDenominator:
    """A "p/0" token is bad input: exit 2 with one error line, in both
    backends and in every place a scalar is read."""

    @staticmethod
    def check(capsys, code):
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "zero denominator in '1/0'" in err

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("body", ["0,1/0\n1,2\n", "0,1\n1/0,2\n"],
                             ids=["value", "t"])
    def test_apply_csv_row(self, tmp_path, capsys, backend, body):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("t,value\n" + body)
        code = main(["apply", "nabla-left-sum", "--alpha", "1/2", "--a", "-1",
                     "--backend", backend, "--input", str(src),
                     "--output", str(dst)])
        self.check(capsys, code)
        assert not dst.exists()

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("flags", [["--alpha", "1/0", "--a", "-1"],
                                       ["--alpha", "1/2", "--a", "1/0"]],
                             ids=["alpha", "anchor"])
    def test_apply_flags(self, tmp_path, capsys, backend, flags):
        src = tmp_path / "in.csv"
        write_ones(src, exact=backend == "rational")
        code = main(["apply", "nabla-left-sum", *flags, "--backend", backend,
                     "--input", str(src), "--output",
                     str(tmp_path / "out.csv")])
        self.check(capsys, code)

    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_verify_anchor(self, tmp_path, capsys, backend):
        code = main(["verify", "--a", "1/0", "--backend", backend,
                     "--output", str(tmp_path / "r.jsonl")])
        self.check(capsys, code)

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("overrides", [
        {"alpha": "1/0"}, {"a": "1/0"},
        {"formulation": "riemann_a",
         "boundary": {"kind": "fixed", "A": "1/0"}}],
        ids=["alpha", "a", "A"])
    def test_config(self, tmp_path, capsys, command, overrides):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp, **overrides)
        out = tmp_path / "s.csv"
        extra = ["--alpha-list", "1/2"] if command == "sweep" else []
        code = main([command, "--input", str(cfgp), "--output", str(out),
                     *extra])
        self.check(capsys, code)
        assert not out.exists()

    def test_sweep_alpha_list(self, tmp_path, capsys):
        cfgp = tmp_path / "p.json"
        problem_config(cfgp)
        code = main(["sweep", "--input", str(cfgp), "--output",
                     str(tmp_path / "t.csv"), "--alpha-list", "1/2,1/0"])
        self.check(capsys, code)


class TestParser:
    """main builds its parser once per process, and parse_args keeps
    nothing of one call for the next."""

    def test_calls_match_a_fresh_parser(self, tmp_path):
        src, out = tmp_path / "in.csv", tmp_path / "out"
        write_ones(src, n=8, exact=False)
        files = ["--input", str(src), "--output", str(out)]
        report = ["--trials", "1", "--output", str(out)]
        calls = [
            ["apply", "nabla-left-sum", "--alpha", "1/2", "--a", "-1", *files],
            # a left operator given only --b: --a must not carry over
            ["apply", "nabla-left-sum", "--alpha", "1/2", "--b", "8", *files],
            ["apply", "nabla-right-sum", "--alpha", "1/2", "--b", "8", *files],
            ["verify", "--seed", "3", *report],
            ["verify", *report],
        ]

        def run(argv):
            out.unlink(missing_ok=True)
            code = main(argv)
            return code, out.read_bytes() if out.exists() else None

        cli._build_parser.cache_clear()
        kept = [run(argv) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert kept == fresh
        assert [code for code, _ in kept] == [0, 2, 0, 0, 0]
        assert kept[1][1] is None and kept[3][1] != kept[4][1]


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
