"""Command-line interface.

Subcommands: apply (run one operator over a CSV grid function), verify (the
randomized identity suite over the built-in alpha/size lattice), solve (one
variational problem from a JSON config), sweep (solve across an alpha list
and emit an aggregated table).

Exit codes: 0 success, 1 verification or convergence failure, 2 usage or
parse error, 141 when standard output is closed before the run ends (as in
`nablafrac verify | head -1`; 141 = 128 + SIGPIPE, what a shell reports for
a command that a closed pipe ends).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .backend import format_scalar, parse_scalar, rational
from .grid import (DomainError, Grid, _offset, read_gridfn_csv,
                   write_gridfn_csv)
from .identities import VERIFY_ALPHAS, VERIFY_SIZES, _UNIT_INTERVAL, run_trial
from .numerics import FracOrder
from .operators import (caputo_left, caputo_right, delta_left_riemann,
                        delta_left_sum, delta_right_riemann, delta_right_sum,
                        nabla_left_riemann, nabla_left_sum_fn,
                        nabla_right_riemann, nabla_right_sum_fn)
from .variational import (Boundary, Formulation, Lagrangian, Solution,
                          VariationalProblem, solve)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141

# operator name -> (callable(f, alpha, anchor), anchor side).  The nabla
# and Caputo outputs lie on the input's points and are published there, as
# f.lo + (i + k) for the output's row k starting i points into the input
# ((f.lo + i) + k can round to another float; in the rational backend the
# two are equal, and so are the output's own points); the delta operators'
# points are s +- alpha by definition and keep the points their anchor
# arithmetic gives.
_OPERATORS = {
    "nabla-left-sum": (nabla_left_sum_fn, "a"),
    "nabla-right-sum": (nabla_right_sum_fn, "b"),
    "nabla-left-riemann": (nabla_left_riemann, "a"),
    "nabla-right-riemann": (nabla_right_riemann, "b"),
    "caputo-left": (caputo_left, "a"),
    "caputo-right": (caputo_right, "b"),
    "delta-left-sum": (delta_left_sum, "a"),
    "delta-right-sum": (delta_right_sum, "b"),
    "delta-left-riemann": (delta_left_riemann, "a"),
    "delta-right-riemann": (delta_right_riemann, "b"),
}

_IDENTITY_ORDER = ("P21", "P22", "P23", "P24", "T25", "T26", "SHIFT")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args keeps no state in it."""
    top = argparse.ArgumentParser(prog="nablafrac")
    sub = top.add_subparsers(dest="subcommand", required=True)

    ap = sub.add_parser("apply", help="apply one operator to a GridFn CSV")
    ap.add_argument("operator", choices=sorted(_OPERATORS))
    ap.add_argument("--alpha", required=True, help="order, 'p/q' or decimal")
    ap.add_argument("--a", help="left anchor (left operators); a negative "
                    "fraction needs the '=' form, --a=-2/3")
    ap.add_argument("--b", help="right anchor (right operators); a negative "
                    "fraction needs the '=' form, --b=-2/3")
    ap.add_argument("--backend", choices=("float", "rational"),
                    default="float")
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)

    vp = sub.add_parser("verify", help="run the identity suite")
    vp.add_argument("--backend", choices=("float", "rational"),
                    default="rational")
    vp.add_argument("--trials", type=int, default=5)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--a", default="0", help="grid start (default 0); a "
                    "negative fraction needs the '=' form, --a=-2/3")
    vp.add_argument("--output", help="report path (default stdout)")

    sp = sub.add_parser("solve", help="solve a variational problem")
    sp.add_argument("--input", required=True, help="problem config JSON")
    sp.add_argument("--output", required=True, help="solution CSV path")
    sp.add_argument("--tol", type=float, help="override config tol")
    sp.add_argument("--max-iter", type=int, help="override config max_iter")

    wp = sub.add_parser("sweep", help="solve across a list of orders")
    wp.add_argument("--input", required=True, help="problem config JSON")
    wp.add_argument("--output", required=True, help="table CSV path")
    wp.add_argument("--alpha-list", required=True,
                    help="comma-separated orders, e.g. '1/4,1/2,3/4'")
    wp.add_argument("--tol", type=float)
    wp.add_argument("--max-iter", type=int)
    return top


def _cmd_apply(args) -> int:
    exact = args.backend == "rational"
    try:
        alpha = FracOrder.parse(args.alpha, exact)
        op, side = _OPERATORS[args.operator]
        anchor_text = args.a if side == "a" else args.b
        if anchor_text is None:
            print(f"error: {args.operator} needs --{side}", file=sys.stderr)
            return EXIT_USAGE
        anchor = parse_scalar(anchor_text, exact)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        f = read_gridfn_csv(args.input, exact)
    except (OSError, ValueError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out = op(f, alpha, anchor)
        # the sum routines carry the empty sum, 0 at the anchor, which the
        # identity checks read (T26 at a, S4 at b); the published domains
        # exclude it
        if args.operator == "nabla-left-sum":
            out = out.restrict(anchor + 1, out.hi)
        elif args.operator == "nabla-right-sum":
            out = out.restrict(out.lo, anchor - 1)
        points = None
        if not exact:  # one float array: lo + (i + k) for row k
            lo, i = ((out.lo, 0) if args.operator.startswith("delta-")
                     else (f.lo, _offset(out.lo, f.lo)))
            points = lo + np.arange(i, i + len(out), dtype=float)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    write_gridfn_csv(out, args.output, points)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    exact = args.backend == "rational"
    try:
        a = parse_scalar(args.a, exact)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    make = (lambda n: rational(n)) if exact else float
    sink = open(args.output, "w") if args.output else sys.stdout
    failures = 0
    try:
        for ident in _IDENTITY_ORDER:
            for alpha_text in VERIFY_ALPHAS:
                alpha = FracOrder.parse(alpha_text, exact)
                if ident in _UNIT_INTERVAL and not alpha.alpha < 1:
                    continue
                for n in VERIFY_SIZES:
                    b = a + n
                    for k in range(args.trials):
                        seed = args.seed + k
                        for rep in run_trial(ident, alpha, a, b, seed,
                                             exact, make):
                            print(rep.to_json(alpha.alpha, a, b, seed),
                                  file=sink)
                            if not rep.passed:
                                failures += 1
    finally:
        if sink is not sys.stdout:
            sink.close()
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _load_problem(args):
    """(problem, tol, max_iter) from the config at args.input; --tol and
    --max-iter override the config's values when given."""
    with open(args.input) as src:
        cfg = json.load(src)
    alpha = FracOrder.parse(str(cfg["alpha"]), exact=False)
    a = parse_scalar(str(cfg["a"]), exact=False)
    b = parse_scalar(str(cfg["b"]), exact=False)
    form = Formulation(cfg["formulation"])
    bc = cfg["boundary"]
    bnd = Boundary(kind=bc["kind"],
                   A=None if bc.get("A") is None
                   else parse_scalar(str(bc["A"]), exact=False),
                   B=None if bc.get("B") is None
                   else parse_scalar(str(bc["B"]), exact=False))
    lc = cfg["lagrangian"]
    if lc["name"] == "quadratic_potential":
        lag = Lagrangian.quadratic_potential(float(lc["omega"]))
    elif lc["name"] == "quartic_potential":
        lag = Lagrangian.quartic_potential()
    else:
        raise ValueError(f"unknown lagrangian {lc['name']!r}")
    problem = VariationalProblem(Grid(a, b), alpha, form, bnd, lag)
    tol, max_iter = float(cfg.get("tol", 1e-10)), int(cfg.get("max_iter", 50))
    return (problem, tol if args.tol is None else args.tol,
            max_iter if args.max_iter is None else args.max_iter)


def _sidecar(sol: Solution) -> dict:
    return {"gradient_norm": sol.gradient_norm,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "status": sol.status,
            "path": sol.path,
            "max_el_residual": sol.max_el_residual}


def _cmd_solve(args) -> int:
    try:
        problem, tol, max_iter = _load_problem(args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sol = solve(problem, tol=tol, max_iter=max_iter)
    write_gridfn_csv(sol.f, args.output)
    with open(Path(args.output).with_suffix(".json"), "w") as out:
        json.dump(_sidecar(sol), out, indent=2)
        out.write("\n")
    return EXIT_OK if sol.converged else EXIT_FAIL


def _cmd_sweep(args) -> int:
    raw = [s.strip() for s in args.alpha_list.split(",") if s.strip()]
    if not raw:
        print("error: empty --alpha-list", file=sys.stderr)
        return EXIT_USAGE
    alphas, seen = [], set()
    for text in raw:
        try:
            value = float(parse_scalar(text, exact=False))
        except ValueError as exc:
            print(f"error: bad alpha {text!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if value in seen:
            print(f"warning: duplicate alpha {text} dropped", file=sys.stderr)
            continue
        seen.add(value)
        alphas.append(text)
    any_failed = False
    rows = []
    try:
        base, tol, max_iter = _load_problem(args)
        problems = [replace(base, alpha=FracOrder.parse(text, exact=False))
                    for text in alphas]
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for text, problem in zip(alphas, problems):
        sol = solve(problem, tol=tol, max_iter=max_iter)
        if not sol.converged:
            any_failed = True
        for t, y in zip(sol.f.points(), sol.f.values):
            rows.append((text, t, y, sol.max_el_residual,
                         sol.gradient_norm, sol.converged))
    with open(args.output, "w") as out:
        out.write("alpha,t,y,max_el_residual,gradient_norm,converged\n")
        for alpha, t, y, res, grad, conv in rows:
            out.write(f"{alpha},{format_scalar(t)},{format_scalar(y)},"
                      f"{format_scalar(res)},{format_scalar(grad)},"
                      f"{str(conv).lower()}\n")
    return EXIT_FAIL if any_failed else EXIT_OK


_COMMANDS = {"apply": _cmd_apply, "verify": _cmd_verify,
             "solve": _cmd_solve, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.subcommand](args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so that the
        # interpreter's own flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
