"""Map where natural continuation stops on the quartic-potential problem.

For the fixed-start quartic problem (L = v^2/2 - u^4/4) the script solves
at A/4, A/2, 3A/4 and A in turn, each stage warm-started from the one
before, and bisects per (alpha, N) for the amplitude A beyond which some
stage fails to converge.  That measures where this 4-stage natural
continuation stops, near the first turning point of the solution branch in
A; it does not show that no solution exists beyond it, since the branch
can turn back and reach larger A.  The printed table keeps its historical
column name, "fold amplitude".
"""
import argparse

import numpy as np

from nablafrac import (Boundary, Formulation, FracOrder, Grid, Lagrangian,
                       VariationalProblem, solve)
from nablafrac.grid import DomainError


def feasible(alpha, N, A):
    # continuation in A: warm-start each stage from the previous solution
    f = None
    for s in np.linspace(0.25, 1.0, 4):
        q = VariationalProblem(Grid(0, N), FracOrder(alpha),
                               Formulation.RIEMANN_A,
                               Boundary("fixed", A=A * s),
                               Lagrangian.quartic_potential())
        try:
            sol = solve(q, initial=f)
        except DomainError:
            return False
        if not sol.converged:
            return False
        f = sol.f
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alphas", default="0.25,0.5,0.75")
    ap.add_argument("--sizes", default="6,8,12,16")
    ap.add_argument("--bisections", type=int, default=12)
    args = ap.parse_args()

    print(f"{'alpha':>6} {'N':>4} {'fold amplitude':>15}")
    for alpha in (float(s) for s in args.alphas.split(",")):
        for N in (int(s) for s in args.sizes.split(",")):
            lo, hi = 0.0, 4.0
            for _ in range(args.bisections):
                mid = (lo + hi) / 2
                if feasible(alpha, N, mid):
                    lo = mid
                else:
                    hi = mid
            print(f"{alpha:>6g} {N:>4d} {lo:>15.4f}")


if __name__ == "__main__":
    main()
