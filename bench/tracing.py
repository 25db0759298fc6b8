"""Spans around the calls into each nablafrac module, for the traced run.

The library is not changed.  For the traced run only, `Tracer.install`
replaces the public functions at their import sites in the library modules
(the names a module imported from another one, which it looks up at call
time) with wrappers that record a span, and `Tracer.uninstall` puts the
originals back.  A span records its name, start, end, parent span and the
request it belongs to.  Spans stay in memory until the run ends.

Layers are the modules: backend, grid, numerics, operators, identities,
variational and cli.  A span's self time is its duration minus the
durations of its child spans.  Counts of work (weights terms, convolution
multiply-adds, ...) are computed from argument sizes at the same call
boundaries, so they repeat exactly for a given seed.
"""
from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import IDENTITY_ORDER


def _k_terms(args, kwargs) -> int:
    return (args[1] if len(args) > 1 else kwargs["K"]) + 1


def _count_weights(counts, args, kwargs, result):
    counts["numerics.weights.terms"] += _k_terms(args, kwargs)


def _count_conv_weights(counts, args, kwargs, result):
    # every weights call in `operators` feeds one convolution of that length
    n = _k_terms(args, kwargs)
    counts["numerics.weights.terms"] += n
    counts["operators.conv_macs"] += n * (n + 1) // 2


def _count_diff(counts, args, kwargs, result):
    counts["numerics.diff.points"] += len(args[0])


def _count_probes(counts, args, kwargs, result):
    counts["operators.operator_matrix.probes"] += round(args[2] - args[1]) + 1


def _count_csv_read(counts, args, kwargs, result):
    counts["grid.csv_rows"] += len(result)


def _count_csv_write(counts, args, kwargs, result):
    counts["grid.csv_rows"] += len(args[0])


def _count_linsolve(counts, args, kwargs, result):
    m = args[0].shape[0]
    counts["variational.linsolve_flops"] += 2 * m ** 3 // 3


OPERATOR_FUNCTIONS = (
    "nabla_left_sum_fn", "nabla_right_sum_fn", "nabla_left_riemann",
    "nabla_right_riemann", "caputo_left", "caputo_right", "delta_left_sum",
    "delta_right_sum", "delta_left_riemann", "delta_right_riemann")

# (module, attribute, span name, counter); a span name is "<layer>.<what>"
SITES = [
    ("nablafrac.operators", "weights", "numerics.weights",
     _count_conv_weights),
    ("nablafrac.variational", "weights", "numerics.weights", _count_weights),
    ("nablafrac.operators", "nabla_n", "numerics.diff", _count_diff),
    ("nablafrac.operators", "minus_delta_n", "numerics.diff", _count_diff),
    ("nablafrac.identities", "inner_sum", "grid.inner_sum", None),
    ("nablafrac.cli", "read_gridfn_csv", "grid.csv_read", _count_csv_read),
    ("nablafrac.cli", "write_gridfn_csv", "grid.csv_write", _count_csv_write),
    ("nablafrac.grid", "format_scalar", "backend.format_scalar", None),
    ("nablafrac.grid", "parse_scalar", "backend.parse_scalar", None),
    ("nablafrac.identities", "format_scalar", "backend.format_scalar", None),
    ("nablafrac.cli", "parse_scalar", "backend.parse_scalar", None),
    ("nablafrac.variational", "operator_matrix", "operators.operator_matrix",
     _count_probes),
    ("nablafrac.variational", "gradient_oracle", "variational.oracle", None),
    ("nablafrac.variational", "action", "variational.action", None),
    ("nablafrac.variational", "el_residual", "variational.el_residual",
     None),
    ("numpy.linalg", "solve", "variational.linsolve", _count_linsolve),
] + [(module, fn, f"operators.{fn}", None)
     for module in ("nablafrac.identities", "nablafrac.variational")
     for fn in OPERATOR_FUNCTIONS]


# every per-layer metric and its unit, in the order they are reported
METRICS = {
    "numerics.weights.calls": "count", "numerics.weights.self_s": "s",
    "numerics.weights.terms": "count",
    "numerics.diff.self_s": "s", "numerics.diff.points": "count",
    "operators.calls": "count", "operators.self_s": "s",
    "operators.conv_macs": "count",
    "operators.operator_matrix.calls": "count",
    "operators.operator_matrix.probes": "count",
    "operators.operator_matrix.self_s": "s",
    "grid.inner_sum.calls": "count", "grid.inner_sum.self_s": "s",
    "grid.csv_read_s": "s", "grid.csv_write_s": "s",
    "grid.csv_rows": "count",
    "backend.format_scalar.calls": "count",
    "backend.format_scalar.self_s": "s",
    "backend.parse_scalar.calls": "count",
    "backend.parse_scalar.self_s": "s",
    "identities.run_trial.self_s": "s",
    **{f"identities.{i}.s": "s" for i in IDENTITY_ORDER},
    "identities.residuals": "count", "identities.residuals_nonzero": "count",
    "variational.solve_s": "s", "variational.newton_iterations": "count",
    "variational.oracle_s": "s", "variational.action.calls": "count",
    "variational.linsolve.calls": "count", "variational.linsolve_s": "s",
    "variational.linsolve_flops": "count",
    "variational.newton_other_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list = []           # span name by id
        self._ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.labels: dict = {}          # request id -> label
        self.counts = dict.fromkeys(
            (k for k, unit in METRICS.items() if unit == "count"), 0)
        self._stack = [-1]
        self._request = -1
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter=None):
        name_id, stack = self._id(name), self._stack
        ids, starts, ends = self.name_id, self.start, self.end
        parents, requests, counts = self.parent, self.request, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            requests.append(self._request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every site that exists; a site the library no longer has is
        skipped, and its metrics read 0."""
        for module, attr, name, counter in SITES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr, None)
            if original is not None:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, counter))
        # `cli apply` finds its operator through this table of the imported
        # functions, so the table is the import site to wrap
        cli = importlib.import_module("nablafrac.cli")
        table = getattr(cli, "_OPERATORS", None)
        if table is not None:
            self._saved.append((cli, "_OPERATORS", table))
            cli._OPERATORS = {
                op: (self.wrap(f"operators.{fn.__name__}", fn), side)
                for op, (fn, side) in table.items()}

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def request_call(self, request_id: int, label: str, name: str, fn, *args):
        """Run one benchmark request as a top-level span."""
        self._request = request_id
        self.labels[request_id] = label
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self._request = -1

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 start=self.start, end=self.end, parent=self.parent,
                 request=self.request)

    def metrics(self, overhead_ratio: float) -> dict:
        names = np.array(self.name_id, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        request = np.array(self.request, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child

        def select(prefix, exclude=()):
            """Spans named `prefix` or `prefix.<function>`."""
            ids = [i for i, n in enumerate(self.names)
                   if (n == prefix or n.startswith(prefix + "."))
                   and n not in exclude]
            return np.isin(names, ids)

        out = dict(self.counts)
        for prefix, exclude in (
                ("numerics.weights", ()), ("numerics.diff", ()),
                ("operators", ("operators.operator_matrix",)),
                ("operators.operator_matrix", ()), ("grid.inner_sum", ()),
                ("backend.format_scalar", ()), ("backend.parse_scalar", ()),
                ("identities.run_trial", ()), ("cli.main", ())):
            mask = select(prefix, exclude)
            if f"{prefix}.calls" in METRICS:
                out[f"{prefix}.calls"] = int(mask.sum())
            if f"{prefix}.self_s" in METRICS:
                out[f"{prefix}.self_s"] = float(self_time[mask].sum())
        out["grid.csv_read_s"] = float(dur[select("grid.csv_read")].sum())
        out["grid.csv_write_s"] = float(dur[select("grid.csv_write")].sum())

        per_identity = dict.fromkeys(IDENTITY_ORDER, 0.0)
        for i in np.flatnonzero(select("identities.run_trial")):
            per_identity[self.labels[int(request[i])]] += float(dur[i])
        for ident, seconds in per_identity.items():
            out[f"identities.{ident}.s"] = seconds

        solve = select("variational.solve")
        linsolve = select("variational.linsolve")
        out["variational.solve_s"] = float(dur[solve].sum())
        out["variational.oracle_s"] = float(
            dur[select("variational.oracle")].sum())
        out["variational.action.calls"] = int(
            select("variational.action").sum())
        out["variational.linsolve.calls"] = int(linsolve.sum())
        out["variational.linsolve_s"] = float(dur[linsolve].sum())
        out["variational.newton_other_s"] = self._newton_other(
            np.flatnonzero(solve), parent, dur, names)
        out["trace.overhead_ratio"] = overhead_ratio
        return {k: {"value": out[k], "unit": unit}
                for k, unit in METRICS.items()}

    def _newton_other(self, solves, parent, dur, names) -> float:
        """Solve time minus assembly (operator_matrix), linear solves, the
        gradient oracle and the final Euler-Lagrange residual, summed over
        solves; those are the solve's direct children with these names."""
        by_name = {n: self._ids.get(n) for n in (
            "operators.operator_matrix", "variational.linsolve",
            "variational.oracle", "variational.el_residual")}
        direct = {}
        for i in np.flatnonzero(np.isin(parent, solves)):
            direct.setdefault(int(parent[i]), []).append(int(i))
        total = 0.0
        for s in solves:
            other = float(dur[s])
            last_el = None
            for c in direct.get(int(s), ()):
                if names[c] == by_name["variational.el_residual"]:
                    last_el = c
                elif names[c] in (by_name["operators.operator_matrix"],
                                  by_name["variational.linsolve"],
                                  by_name["variational.oracle"]):
                    other -= float(dur[c])
            if last_el is not None:
                other -= float(dur[last_el])
            total += other
        return total
