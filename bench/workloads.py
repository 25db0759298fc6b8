"""The benchmark's three workloads: input generation, requests and checks.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has returned.  Inputs come in blocks.  Block k
is generated from (workload, seed, k) alone, so the same seed always gives
the same requests, and every block has the same make-up (the same strata of
sizes, formulations and operators); the seed draws only values inside each
stratum and the order of the requests.  That keeps the figures of one seed
close to those of another.

A request ends in one of three verdicts:

  ok      the call returned and its output passed the check;
  failed  the call raised, or reported that it did not succeed (a solve
          that did not converge, a CLI run with a nonzero exit code);
  wrong   the call reported success but its output failed the check.

`failed` and `wrong` both count as failed requests; a run with any `wrong`
request is reported as not correct.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from nablafrac import cli, identities, variational
from nablafrac.backend import is_exact, rational
from nablafrac.grid import Grid, GridFn
from nablafrac.numerics import FracOrder

OK, FAILED, WRONG = "ok", "failed", "wrong"

FLOAT_TOL = identities.FLOAT_TOLERANCE  # the float policy's 1e-9


def _float_close(lhs: float, rhs: float) -> bool:
    return abs(lhs - rhs) <= FLOAT_TOL * (1.0 + max(abs(lhs), abs(rhs)))


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    """Base class.  Subclasses set the class attributes and implement
    `_block`, `run` and `check`."""

    name = ""
    # Blocks in the fixed request list: every run completes at least these,
    # and peak memory is read right after them, so it does not depend on how
    # many more blocks fit into the run's time.
    fixed_blocks = 1
    # The traced run times span-by-span the first block only.
    request_span = ""
    # speed probes of run.py that resemble the workload's code
    probes = ("python",)

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.first_block = self._block(0)
        self.input_digest = _digest(
            [self.describe(r) for r in self.first_block])

    def block(self, k: int) -> list:
        return self.first_block if k == 0 else self._block(k)

    def _rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def _block(self, k: int) -> list:
        raise NotImplementedError

    def run(self, req):
        """The request itself: one call into the library (building its
        arguments included)."""
        raise NotImplementedError

    def check(self, req, result) -> str:
        raise NotImplementedError

    def describe(self, req) -> dict:
        """JSON-serialisable description of a request, for the digest."""
        raise NotImplementedError

    def label(self, req) -> str:
        """Name under which the traced run groups the request's time."""
        return ""

    def counts(self, req, result) -> dict:
        """Counters read off a request's result in the traced run."""
        return {}


# -- verify_exact ------------------------------------------------------------

IDENTITY_ORDER = ("P21", "P22", "P23", "P24", "T25", "T26", "SHIFT")
UNIT_INTERVAL_ONLY = ("T25", "T26")


class VerifyExact(Workload):
    """One request is one `identities.run_trial` in the rational backend.
    Block k is the built-in lattice (the seven identity families x
    VERIFY_ALPHAS x VERIFY_SIZES, T25 and T26 only for alpha < 1) at trial
    seed `seed + k`: the work of `nablafrac verify --backend rational`."""

    name = "verify_exact"
    request_span = "identities.run_trial"

    def _block(self, k):
        sizes = identities.VERIFY_SIZES
        if self.scale == "tiny":
            sizes = sizes[:2]
        a = rational(0)
        reqs = []
        for ident in IDENTITY_ORDER:
            for alpha_text in identities.VERIFY_ALPHAS:
                alpha = FracOrder.parse(alpha_text, exact=True)
                if ident in UNIT_INTERVAL_ONLY and not alpha.alpha < 1:
                    continue
                for n in sizes:
                    reqs.append((ident, alpha_text, alpha, a, a + n,
                                 self.seed + k))
        return reqs

    def run(self, req):
        ident, _, alpha, a, b, trial_seed = req
        return identities.run_trial(ident, alpha, a, b, trial_seed, True,
                                    rational)

    def check(self, req, reports):
        # exact backend: every residual is the rational zero, not a float
        good = all(is_exact(r.residual) and r.residual == 0 for r in reports)
        return OK if good else WRONG

    def describe(self, req):
        ident, alpha_text, _, a, b, trial_seed = req
        return [ident, alpha_text, str(b - a), trial_seed]

    def label(self, req):
        return req[0]

    def counts(self, req, reports):
        return {"identities.residuals": len(reports),
                "identities.residuals_nonzero":
                    sum(1 for r in reports if r.residual != 0)}


# -- solve_newton ------------------------------------------------------------

F = variational.Formulation
# the five (formulation, boundary kind) pairs
PAIRS = ((F.RIEMANN_A, "fixed"), (F.RIEMANN_B, "natural"),
         (F.RIEMANN_B, "fixed"), (F.CAPUTO, "fixed"), (F.CAPUTO, "natural"))
# non-integer anchors of the translation-invariance check
ANCHORS = (0.1, 1 / 3, 0.7, -2.3)
GRAD_TOL = 1e-6


class SolveNewton(Workload):
    """One request is one `variational.solve` in the float backend.

    Each block holds, at N = 64 unless said otherwise:
      - quadratic Lagrangians on all five (formulation, boundary) pairs,
        at N = 64 and again at N = 256, plus RIEMANN_A with 1 < alpha < 2;
      - quartic Lagrangians with small fixed boundary values (Newton takes
        several steps) on RIEMANN_A (alpha < 1 and 1 < alpha < 2),
        RIEMANN_B and CAPUTO;
      - the four non-integer anchors, each on a quadratic problem right after
        its anchor-0 twin; the pair an anchor uses rotates with the block.
    Natural boundaries start from a seeded initial guess.
    """

    name = "solve_newton"
    fixed_blocks = 5          # 5 x 23 = 115 requests
    request_span = "variational.solve"

    def __init__(self, seed, scale, workdir):
        self._twins = {}      # twin id -> solution values at anchor 0
        super().__init__(seed, scale, workdir)

    def _block(self, k):
        rng = self._rng(k)
        small, large = (8, 16) if self.scale == "tiny" else (64, 256)

        def alpha_below_one():
            return rng.uniform(0.15, 0.85)

        def spec(pair, n, lagrangian, alpha, anchor=0.0, twin=None):
            form, kind = pair
            amp = 0.1 if lagrangian == "quartic" else 1.0
            s = {"formulation": form.value, "kind": kind, "n": n,
                 "alpha": alpha, "lagrangian": lagrangian,
                 "omega": rng.uniform(0.5, 2.0), "anchor": anchor,
                 "twin": twin, "A": None, "B": None, "initial": None}
            if kind == "fixed":
                s["A"] = rng.uniform(-amp, amp)
                if form is F.CAPUTO:
                    s["B"] = rng.uniform(-amp, amp)
            else:
                s["initial"] = [rng.uniform(-1, 1) for _ in range(n + 1)]
            return s

        units = []
        for n in (small, large):
            units += [[spec(p, n, "quadratic", alpha_below_one())]
                      for p in PAIRS]
        units.append([spec(PAIRS[0], small, "quadratic",
                           rng.uniform(1.15, 1.85))])
        for pair in (PAIRS[0], PAIRS[2], PAIRS[3]):
            units.append([spec(pair, small, "quartic", alpha_below_one())])
        units.append([spec(PAIRS[0], small, "quartic",
                           rng.uniform(1.15, 1.85))])
        for j, anchor in enumerate(ANCHORS):
            base = spec(PAIRS[(j + k) % len(PAIRS)], small, "quadratic",
                        alpha_below_one())
            twin_id = f"{k}:{j}"
            units.append([dict(base, twin=twin_id),
                          dict(base, anchor=anchor, twin=twin_id)])
        rng.shuffle(units)
        return [s for unit in units for s in unit]

    def run(self, s):
        a = s["anchor"]
        if s["lagrangian"] == "quadratic":
            lag = variational.Lagrangian.quadratic_potential(s["omega"])
        else:
            lag = variational.Lagrangian.quartic_potential()
        problem = variational.VariationalProblem(
            Grid(a, a + s["n"]), FracOrder(s["alpha"]),
            variational.Formulation(s["formulation"]),
            variational.Boundary(s["kind"], s["A"], s["B"]), lag)
        initial = None
        if s["initial"] is not None:
            lo, hi = problem.f_domain()
            count = round(hi - lo) + 1
            initial = GridFn(lo, s["initial"][:count])
        return variational.solve(problem, initial)

    def check(self, s, sol):
        # the solver's own report: convergence and the oracle's gradient
        if not (sol.converged and sol.gradient_norm <= GRAD_TOL):
            return FAILED
        if s["twin"] is None:
            return OK
        if s["anchor"] == 0.0:
            self._twins[s["twin"]] = sol.f.values
            return OK
        ref = self._twins.pop(s["twin"], None)
        if ref is None:
            return FAILED       # no converged twin to compare against
        same = len(ref) == len(sol.f.values) and all(
            _float_close(x, y) for x, y in zip(sol.f.values, ref))
        return OK if same else WRONG

    def describe(self, s):
        return s

    def counts(self, s, sol):
        return {"variational.newton_iterations": sol.iterations}


# -- apply_long --------------------------------------------------------------

# operator -> (anchor side, anchor relative to the input's first/last point)
OPERATORS = {
    "nabla-left-sum": ("a", -1), "nabla-left-riemann": ("a", -1),
    "caputo-left": ("a", 0), "delta-left-sum": ("a", -1),
    "delta-left-riemann": ("a", -1),
    "nabla-right-sum": ("b", 1), "nabla-right-riemann": ("b", 1),
    "caputo-right": ("b", 0), "delta-right-sum": ("b", 1),
    "delta-right-riemann": ("b", 1),
}
SAMPLES = 4     # checked output rows per request, the last one among them


def _gamma_sign(x: float) -> float:
    return 1.0 if x > 0 else (-1.0 if math.floor(-x) % 2 == 0 else 1.0)


# Bernoulli numbers B_0 .. B_8
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30)
_SERIES_FROM = 64   # k from which ln Gamma ratios use the asymptotic series


def _bernoulli_poly(m: int, x: float) -> float:
    return sum(math.comb(m, j) * _BERNOULLI[j] * x ** (m - j)
               for j in range(m + 1))


def lgamma_weights(beta: float, count: int) -> np.ndarray:
    """w_k(beta) = Gamma(k + beta) / (Gamma(beta) k!) for k < count,
    independent of the library's recurrence.

    Small k use math.lgamma.  For large k its absolute error (eps times
    ln Gamma, ~1e-11 at k = 5e4) is too coarse for the float policy on long
    sums, so there ln(Gamma(k + beta) / Gamma(k + 1)) comes from the
    asymptotic series (beta - 1) ln k + sum_n (-1)^(n+1)
    (B_{n+1}(beta) - B_{n+1}(1)) / (n (n+1) k^n), whose next term is below
    1e-17 from k = 64 on."""
    log_b, sign_b = math.lgamma(beta), _gamma_sign(beta)
    out = np.empty(count)
    for k in range(min(count, _SERIES_FROM)):
        x = k + beta
        if x <= 0 and x == math.floor(x):
            out[k] = 0.0    # Gamma pole: the weight of an integer order
        else:
            out[k] = _gamma_sign(x) * sign_b * math.exp(
                math.lgamma(x) - log_b - math.lgamma(k + 1))
    if count > _SERIES_FROM:
        z = np.arange(_SERIES_FROM, count, dtype=float)
        log_ratio = (beta - 1) * np.log(z)
        for n in range(1, 8):
            c = (-1) ** (n + 1) * (_bernoulli_poly(n + 1, beta)
                                   - _bernoulli_poly(n + 1, 1.0))
            log_ratio += c / (n * (n + 1)) / z ** n
        out[_SERIES_FROM:] = sign_b * np.exp(log_ratio - log_b)
    return out


def _binomial_diff(values: np.ndarray, n: int, forward: bool) -> np.ndarray:
    """nabla^n (backward) or (-1)^n Delta^n (forward) by the binomial sum."""
    m = len(values) - n
    out = np.zeros(m)
    for j in range(n + 1):
        c = (-1) ** j * math.comb(n, j)
        out += c * (values[j:j + m] if forward else values[n - j:n - j + m])
    return out


def direct_values(op: str, alpha: float, values: np.ndarray, rows) -> list:
    """Output rows `rows` of `nablafrac apply op` on input values at points
    0 .. len-1 (anchors as in OPERATORS), summed directly from the
    operator's definition."""
    n = math.floor(alpha) + 1
    if op.startswith("caputo"):
        # a complementary-order sum of the n-th integer difference; output
        # row r is point n + r (left) or point r (right)
        w = lgamma_weights(n - alpha, len(values) - n)
        out = []
        for r in rows:
            if op == "caputo-left":
                d = _binomial_diff(values[:n + r + 1], n, forward=False)
                out.append(float(np.dot(w[:len(d)], d[::-1])))
            else:
                d = _binomial_diff(values[r:], n, forward=True)
                out.append(float(np.dot(w[:len(d)], d)))
        return out
    # the sums have kernel w(alpha), the Riemann differences w(-alpha)
    w = lgamma_weights(-alpha if "riemann" in op else alpha, len(values))
    if OPERATORS[op][0] == "a":
        return [float(np.dot(w[:r + 1], values[r::-1])) for r in rows]
    return [float(np.dot(w[:len(values) - r], values[r:])) for r in rows]


class ApplyLong(Workload):
    """One request is one in-process `cli.main(["apply", ...])`, float
    backend, on a CSV written during set-up.

    Each block applies all ten CLI operators once, each to one of five
    input files whose horizons are stratified over [1e4, 5e4] points.  Over
    five blocks every operator meets every horizon once, and each horizon
    gets one order below 1 and one above in every block, so the mix of a
    run does not depend on the seed; with five equal strata the median and
    the 90th percentile fall mid-stratum.  Every request draws a fresh
    non-integer order in (0, 2) from a continuous distribution, as a sweep
    would, so the float weight cache grows with every request."""

    name = "apply_long"
    fixed_blocks = 10         # 10 x 10 = 100 requests
    request_span = "cli.main"
    probes = ("text", "numpy")
    horizons = 5

    def __init__(self, seed, scale, workdir):
        rng = random.Random(f"{self.name}:{seed}:inputs")
        lo, hi = (200, 1000) if scale == "tiny" else (10_000, 50_000)
        width = (hi - lo) / self.horizons
        self.inputs = []
        for j in range(self.horizons):
            n = round(lo + (j + 0.5 + rng.uniform(-0.02, 0.02)) * width)
            values = np.array([rng.uniform(-1, 1) for _ in range(n)])
            path = workdir / f"input{j}.csv"
            with open(path, "w") as out:
                out.write("t,value\n")
                out.writelines(f"{t},{v:.17g}\n" for t, v in enumerate(values))
            self.inputs.append((path, values))
        self.output = workdir / "output.csv"
        super().__init__(seed, scale, workdir)

    def _block(self, k):
        rng = self._rng(k)
        reqs = []
        for i, op in enumerate(OPERATORS):
            j = (i + k) % self.horizons
            alpha = rng.uniform(0.02, 0.98) + (i + k) % 2
            values = self.inputs[j][1]
            side, offset = OPERATORS[op]
            anchor = offset if side == "a" else len(values) - 1 + offset
            rows = rng.sample(range(len(values) - 2), SAMPLES - 1)
            reqs.append({"op": op, "alpha": repr(alpha), "side": side,
                         "anchor": str(anchor), "input": j,
                         "rows": sorted(rows)})
        rng.shuffle(reqs)
        return reqs

    def argv(self, r):
        return ["apply", r["op"], "--alpha", r["alpha"],
                f"--{r['side']}", r["anchor"], "--backend", "float",
                "--input", str(self.inputs[r["input"]][0]),
                "--output", str(self.output)]

    def run(self, r):
        return cli.main(self.argv(r))

    def check(self, r, code):
        if code != cli.EXIT_OK:
            return FAILED
        _, values = self.inputs[r["input"]]
        with open(self.output) as src:
            lines = src.read().splitlines()
        n = math.floor(float(r["alpha"])) + 1
        expected_rows = len(values) - (n if r["op"].startswith("caputo")
                                       else 0)
        if lines[0] != "t,value" or len(lines) - 1 != expected_rows:
            return WRONG
        rows = r["rows"] + [expected_rows - 1]
        want = direct_values(r["op"], float(r["alpha"]), values, rows)
        got = [float(lines[1 + row].split(",")[1]) for row in rows]
        return OK if all(map(_float_close, got, want)) else WRONG

    def describe(self, r):
        return dict(r, input_sha=hashlib.sha256(
            self.inputs[r["input"]][1].tobytes()).hexdigest()[:16])


WORKLOADS = {w.name: w for w in (VerifyExact, SolveNewton, ApplyLong)}
