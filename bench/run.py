"""The nablafrac benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory and from nowhere else.  Workloads (see workloads.py):

  verify_exact  the exact identity lattice, one `run_trial` per request;
  solve_newton  float Newton solves of fractional Euler-Lagrange problems;
  apply_long    `nablafrac apply` on CSV grid functions of 1e4..5e4 points.

Each is a closed loop with one client.  A run first completes the
workload's fixed request list (at least 100 requests), then keeps going in
whole blocks of requests until `--seconds` of request time have been
measured.  Every request's output is checked.  The last line of standard
output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:

  setup_s      median over several fresh processes of the time to import
               nablafrac, generate the inputs and reach the first request;
  req_per_s    requests completed (passed or failed) per second of request
               time;
  req_ms_p50   median request latency, over every attempted request;
  req_ms_p90   90th-percentile request latency (>= 10 samples beyond it);
  ok_frac      requests that passed their check / requests attempted;
  peak_rss_mb  peak resident memory of the process, read right after the
               fixed request list.

All times are scaled to a reference machine speed, measured by a probe
between requests and right after set-up (see "machine speed" below).

With --trace 1 the run times the first block of requests once untraced in
a fresh process and once traced here, and reports the per-layer metrics of
tracing.py, with the tracing overhead (traced over untraced request time).
The spans are written to .bench_out/.  The line before the result holds the
environment facts: cores, Python, numpy, BLAS threads, the rational type,
the seed and a digest of the generated inputs.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import platform                                             # noqa: E402
import resource                                             # noqa: E402
import shutil                                               # noqa: E402
import statistics                                           # noqa: E402
import subprocess                                           # noqa: E402
import sys                                                  # noqa: E402
import tempfile                                             # noqa: E402
from collections import Counter                             # noqa: E402
from fractions import Fraction                              # noqa: E402
from pathlib import Path                                    # noqa: E402

import numpy as np                                          # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
OUTDIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify_exact", "solve_newton", "apply_long")
MIN_REQUESTS = 100      # so that the 90th percentile has 10 samples beyond
SETUP_SAMPLES = 7       # this process plus six fresh ones
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: input sizes of the smoke test, and the child-process modes
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--mode", choices=("run", "setup", "untraced-block"),
                    default="run", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Import nablafrac from this checkout's sources; exit if they are not
    there, rather than measure some other copy."""
    init = SRC / "nablafrac" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a nablafrac checkout")
    sys.path.insert(0, str(SRC))
    import nablafrac
    if Path(nablafrac.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported nablafrac from {nablafrac.__file__}, "
                 f"not from {SRC}")
    return nablafrac


# -- machine speed ------------------------------------------------------------
# The speed of a shared machine drifts, by up to 2x over tens of seconds as
# other tenants' load comes and goes, and no length of run averages that
# out.  So times are scaled to a reference speed: after every window of
# requests the run times a fixed probe made of code outside nablafrac, and
# scales the window's latencies by (reference probe time) / (mean of the
# probe times before and after it); a set-up time is scaled by the probe
# right after it.  The unscaled request figures are in the info line.
WINDOW_S = 0.05         # request time between probes


def _probe_python():
    """Exact arithmetic in the standard library: Python object code, like
    most of nablafrac's."""
    total, w = Fraction(0), Fraction(1, 3)
    for i in range(300):
        total += w * Fraction(i, 7)
        w *= Fraction(i + 2, i + 3)


def _probe_text():
    """Floats written and read back as 17-digit text, like grid CSV I/O."""
    for i in range(5000):
        float(f"{i * 0.1234567:.17g}")


_PROBE_X = np.linspace(-1.0, 1.0, 6000)


def _probe_numpy():
    """A float convolution of 6000 points, like `apply`'s fast path."""
    np.convolve(_PROBE_X, _PROBE_X)


# probe -> (function, its time at about this machine's typical speed; on an
# "Intel(R) Xeon(R) Processor" with 2 cores the probes took 2.0 / 4.3 / 7.5
# ms at the fastest and 3.8 / 7.3 / 9.6 ms at the median)
PROBES = {"python": (_probe_python, 3.0e-3), "text": (_probe_text, 7.0e-3),
          "numpy": (_probe_numpy, 9.0e-3)}


def probe_time(probes) -> float:
    """Time of the probes, the mean of two tries."""
    t0 = time.perf_counter()
    for _ in range(2):
        for p in probes:
            PROBES[p][0]()
    return (time.perf_counter() - t0) / 2


def reference_time(probes) -> float:
    return sum(PROBES[p][1] for p in probes)


class Stats:
    """Verdicts and latencies of a sequence of requests, the latencies scaled
    window by window to the reference speed of the workload's probes."""

    def __init__(self, probes):
        self._probes = probes
        self._ref = reference_time(probes)
        self._last_probe = probe_time(probes)
        self._window: list = []
        self.latencies: list = []      # scaled
        self.raw_latencies: list = []
        self.speeds: list = []         # scale factor of each window
        self.verdicts: Counter = Counter()
        self.errors: Counter = Counter()

    def add(self, latency: float, verdict: str) -> None:
        self.verdicts[verdict] += 1
        self._window.append(latency)
        if sum(self._window) >= WINDOW_S:
            self.close_window()

    def close_window(self) -> None:
        if not self._window:
            return
        probe = probe_time(self._probes)
        scale = self._ref / ((self._last_probe + probe) / 2)
        self._last_probe = probe
        self.speeds.append(scale)
        self.raw_latencies += self._window
        self.latencies += [x * scale for x in self._window]
        self._window = []

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())


def run_requests(workload, reqs, stats: Stats, tracer=None):
    from workloads import FAILED
    for i, req in enumerate(reqs):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(req)
            else:
                result = tracer.request_call(
                    i, workload.label(req), workload.request_span,
                    workload.run, req)
        except Exception as exc:    # a failed request must not end the run
            latency = time.perf_counter() - t0
            verdict = FAILED
            stats.errors[f"{type(exc).__name__}: {exc}"[:120]] += 1
        else:
            latency = time.perf_counter() - t0
            verdict = workload.check(req, result)
            if tracer is not None:
                for key, n in workload.counts(req, result).items():
                    tracer.counts[key] += n
        stats.add(latency, verdict)
    stats.close_window()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nablafrac) -> dict:
    rat = type(nablafrac.rational(1))
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads(),
            "rational_type": f"{rat.__module__}.{rat.__qualname__}"}


def child(args, mode: str) -> dict:
    """Run this script in a fresh process in an internal mode; return the
    JSON object it prints last."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale,
           "--mode", mode]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{mode} child exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def timed_run(workload, seconds: float):
    """The closed loop: the fixed request list, then whole blocks until
    `seconds` of request time are measured."""
    stats, k, rss = Stats(workload.probes), 0, None
    while True:
        run_requests(workload, workload.block(k), stats)
        k += 1
        if k == workload.fixed_blocks:
            rss = peak_rss_mb()
        if (k >= workload.fixed_blocks and stats.attempted >= MIN_REQUESTS
                and sum(stats.raw_latencies) >= seconds):
            return stats, k, rss


def end_to_end(stats: Stats, rss: float, setup_samples: list) -> dict:
    lat_ms = [x * 1e3 for x in stats.latencies]
    ok = stats.verdicts["ok"]
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "req_per_s": (stats.attempted / sum(stats.latencies), "1/s"),
        "req_ms_p50": (percentile(lat_ms, 50), "ms"),
        "req_ms_p90": (percentile(lat_ms, 90), "ms"),
        "ok_frac": (ok / len(lat_ms), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    nablafrac = import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        setup_s = time.perf_counter() - _T0
        setup_s *= reference_time(workload.probes) / probe_time(
            workload.probes)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.mode == "untraced-block":
            stats = Stats(workload.probes)
            run_requests(workload, workload.block(0), stats)
            print(json.dumps({"request_s": sum(stats.latencies)}))
            return 0

        info = {"workload": args.workload, "seed": args.seed,
                "input_digest": workload.input_digest,
                **environment(nablafrac)}
        if args.trace:
            from tracing import Tracer
            untraced = child(args, "untraced-block")["request_s"]
            tracer, stats = Tracer(), Stats(workload.probes)
            tracer.install()
            try:
                run_requests(workload, workload.block(0), stats, tracer)
            finally:
                tracer.uninstall()
            traced = sum(stats.latencies)
            metrics = tracer.metrics(traced / untraced)
            spans = OUTDIR / f"trace-{args.workload}.npz"
            tracer.save(spans)
            info.update(blocks=1, spans=len(tracer.start),
                        spans_file=str(spans.relative_to(ROOT)),
                        untraced_request_s=untraced, traced_request_s=traced)
        else:
            stats, blocks, rss = timed_run(workload, args.seconds)
            samples = [setup_s] + [child(args, "setup")["setup_s"]
                                   for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end(stats, rss, samples)
            raw_ms = [x * 1e3 for x in stats.raw_latencies]
            info.update(blocks=blocks, fixed_blocks=workload.fixed_blocks,
                        latency_samples=len(raw_ms),
                        setup_samples_s=samples,
                        unscaled={"request_s": sum(stats.raw_latencies),
                                  "req_ms_p50": percentile(raw_ms, 50),
                                  "req_ms_p90": percentile(raw_ms, 90)},
                        speed_scale_median=percentile(stats.speeds, 50))
        info.update(verdicts=dict(stats.verdicts), errors=dict(stats.errors))
        print(json.dumps({"info": info}))
        failed = stats.verdicts["failed"] + stats.verdicts["wrong"]
        print(json.dumps({"correct": stats.verdicts["wrong"] == 0,
                          "attempted": stats.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
