"""List the turning points on the continuation path of the quartic problem.

For the fixed-start quartic problem (L = v^2/2 - u^4/4, f(a) = A), full
Newton steps from zero stall once A is past the first turning point of the
solution branch, and `solve` then traces the Newton homotopy
R(x) - (1 - lam) R(0) from (0, 0) until lam reaches 1 (see
`variational._path`).  For each (alpha, N) the script follows that trace
from zero and prints one row per turning point of lam it passes: the value
of lam there and the number of negative eigenvalues of the Jacobian J (the
Hessian of the action) just past it, which a fold changes by one.  The last
row of each (alpha, N), marked "end", gives lam and the count where the
trace stopped: at its first point past lam = 1, or after --steps predictor
steps.
"""
import argparse

import numpy as np

from nablafrac import (Boundary, Formulation, FracOrder, Grid, Lagrangian,
                       VariationalProblem)
from nablafrac.variational import _path, _System


def turning_points(alpha, N, A, steps):
    """Yields (lam, negative eigenvalues of J) past each turning point of lam
    on the trace from zero, then at the point where the trace stops."""
    p = VariationalProblem(Grid(0, N), FracOrder(alpha),
                           Formulation.RIEMANN_A, Boundary("fixed", A=A),
                           Lagrangian.quartic_potential())
    system = _System(p)

    def negative(y):
        return int((np.linalg.eigvalsh(system.at(y[:-1]).jacobian()) < 0)
                   .sum())

    prev = None
    for k, point in enumerate(_path(system.at(np.zeros(len(p._free()))))):
        if point is None:
            continue
        y, t = point
        if prev is not None and (prev[1][-1] > 0) != (t[-1] > 0):
            # lam turned between the two points: report the farther one
            far = y if abs(y[-1]) > abs(prev[0][-1]) else prev[0]
            yield "fold", far[-1], negative(y)
        prev = y, t
        if y[-1] >= 1 or k + 1 >= steps:
            break
    if prev is not None:
        yield "end", prev[0][-1], negative(prev[0])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--amplitude", type=float, default=1.0)
    ap.add_argument("--alphas", default="0.25,0.5,0.75")
    ap.add_argument("--sizes", default="6,8,12,16")
    ap.add_argument("--steps", type=int, default=100)
    args = ap.parse_args()

    print(f"{'alpha':>6} {'N':>4} {'point':>5} {'lam':>8} {'negative':>8}")
    for alpha in (float(s) for s in args.alphas.split(",")):
        for N in (int(s) for s in args.sizes.split(",")):
            for kind, lam, neg in turning_points(alpha, N, args.amplitude,
                                                 args.steps):
                print(f"{alpha:>6g} {N:>4d} {kind:>5} {lam:>8.4f} "
                      f"{neg:>8d}")


if __name__ == "__main__":
    main()
