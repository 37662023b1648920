#!/usr/bin/env python3
"""Benchmark for hallharem: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

Run from the root of a checkout; hallharem is imported from its ``src/``.
Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
A round is one pass of a workload; rounds repeat until ``--seconds`` have
passed (at least one round), and every round's output is checked after
its timed region.

With ``--trace 0`` the metrics are
  setup_s      median of several fresh imports of hallharem plus the
               workload's input construction, before anything is timed;
  wall_s       median round time;
  step_p50_ms, step_p90_ms
               latency percentiles of the requests the rounds make: each
               engine step on finite_exhaust, the one lazy query, solve or
               verification per round on the others;
  peak_rss_mb  peak resident set of this process.
With ``--trace 1`` untraced and traced rounds alternate, and the metrics
are the per-layer counts and self times of the median traced round (see
``tracer.py``), its remainder outside any wrapped call, and the tracing
overhead; ``--spans FILE`` writes that round's spans as JSON lines.

Failures: ``attempted``/``failed`` in the result count operations (a
committed step or the window check on f2_lazy, a solve on planted_finite,
an exhausted instance on finite_exhaust, a checked index on
classic_verify); fail_frac is their ratio.  Human-readable lines come
first; the last line of stdout is the JSON result.  The exit code is 0
when every check passed, 1 when one failed, 2 when hallharem is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from tracer import (ACT, CLASSIFY, DEGREE, EXTRACT, NEIGHBORS, RUN_STEP, SOLVE_HAREM,
                    SOLVE_STAR, TIMED, VERIFY_DECOMP, VERIFY_WINDOW, Tracer)
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 11
LAYERS = ("core_graph", "decomposition", "flow_matching", "group_kit", "harem_engine")


def load_library() -> types.SimpleNamespace:
    """Import hallharem from ``src/`` afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hallharem" or n.startswith("hallharem.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hallharem")
    if Path(pkg.__file__).resolve().parent != SRC / "hallharem":
        raise ImportError(f"hallharem imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"hallharem.{layer}") for layer in LAYERS}
    )


def calibration_spin(repeats: int = 5, n: int = 200_000) -> float:
    """Median seconds of a fixed pure-Python loop, to tell host drift apart
    from a change in the program."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(n):
            acc = (acc * 31 + i) & 0xFFFF
            table[i & 1023] = acc
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    uname = os.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "calibration_s": calibration_spin(),
    }


def p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Run:
    """Rounds of one workload, with the checks' tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def round(self, calls: list[float], tracer=None) -> float:
        wl = self.workload
        inputs = wl.fresh()
        if tracer is not None:
            wl.instrument(inputs, tracer)
        gc.collect()
        if tracer is None:
            t0 = perf_counter()
            output = wl.run(inputs, calls, None)
            wall = perf_counter() - t0
        else:
            with tracer.patched(wl.lib), tracer.root():
                output = wl.run(inputs, calls, tracer)
            wall = tracer.wall
        del inputs
        verdict = wl.check(output)
        del output
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        if verdict.digest is not None:
            self.digests.add(verdict.digest)
        return wall


def end_to_end(run: Run, seconds: float, setup_s: float) -> dict:
    walls: list[float] = []
    calls: list[float] = []
    deadline = perf_counter() + seconds
    while True:
        walls.append(run.round(calls))
        if perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"rounds {len(walls)}, timed calls {len(calls)}, round walls {walls}")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "step_p50_ms": (1000 * statistics.median(calls), "ms"),
        "step_p90_ms": (1000 * p90(calls), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(run: Run, seconds: float, spans_path: str | None) -> tuple[dict, bool]:
    plain: list[float] = []
    traced: list[Tracer] = []
    deadline = perf_counter() + seconds
    while True:
        plain.append(run.round([]))
        tracer = Tracer()
        run.round([], tracer)
        traced.append(tracer)
        if perf_counter() >= deadline:
            break
    print(f"rounds {len(plain)} untraced {plain}, {len(traced)} traced {[x.wall for x in traced]}")
    ok = True
    if any(t.counters() != traced[0].counters() for t in traced):
        print("CHECK FAILED: counters differ between traced rounds", file=sys.stderr)
        ok = False
    t = sorted(traced, key=lambda x: x.wall)[(len(traced) - 1) // 2]
    covered = sum(t.stats[name][2] for name in TIMED) + t.remainder
    if abs(covered - t.wall) > 1e-6 * t.wall + 1e-9:
        print(f"CHECK FAILED: self times sum to {covered}, wall {t.wall}", file=sys.stderr)
        ok = False
    if spans_path:
        t.write_spans(spans_path)

    def own(name: str) -> float:
        return t.stats[name][2]

    def per(num: float, den: float) -> float:
        return 1e6 * num / den if den else 0.0

    c = t.counts.get
    vertices = c(f"{EXTRACT}.vertices", 0)
    request_edges = c("flow_matching.request.edges", 0)
    indices = c(f"{VERIFY_DECOMP}.indices", 0)
    m = {
        f"{ACT}.calls": (t.calls(ACT), "count"),
        f"{ACT}.self_s": (own(ACT), "s"),
        f"{ACT}.us_per_call": (per(own(ACT), t.calls(ACT)), "us"),
        f"{NEIGHBORS}.calls": (t.calls(NEIGHBORS), "count"),
        f"{NEIGHBORS}.s": (t.stats[NEIGHBORS][1], "s"),
        f"{NEIGHBORS}.self_s": (own(NEIGHBORS), "s"),
        f"{DEGREE}.calls": (t.calls(DEGREE), "count"),
        f"{DEGREE}.self_s": (own(DEGREE), "s"),
        f"{EXTRACT}.calls": (t.calls(EXTRACT), "count"),
        f"{EXTRACT}.self_s": (own(EXTRACT), "s"),
        f"{EXTRACT}.vertices": (vertices, "count"),
        f"{EXTRACT}.edges": (c(f"{EXTRACT}.edges", 0), "count"),
        f"{EXTRACT}.shell": (c(f"{EXTRACT}.shell", 0), "count"),
        f"{EXTRACT}.us_per_vertex": (per(own(EXTRACT), vertices), "us"),
        f"{SOLVE_STAR}.calls": (t.calls(SOLVE_STAR), "count"),
        f"{SOLVE_STAR}.self_s": (own(SOLVE_STAR), "s"),
        f"{SOLVE_HAREM}.calls": (t.calls(SOLVE_HAREM), "count"),
        f"{SOLVE_HAREM}.self_s": (own(SOLVE_HAREM), "s"),
        "flow_matching.request.edges": (request_edges, "count"),
        "flow_matching.us_per_edge": (per(own(SOLVE_STAR) + own(SOLVE_HAREM), request_edges), "us"),
        f"{RUN_STEP}.calls": (t.calls(RUN_STEP), "count"),
        f"{RUN_STEP}.self_s": (own(RUN_STEP), "s"),
        f"{VERIFY_DECOMP}.self_s": (own(VERIFY_DECOMP), "s"),
        f"{VERIFY_DECOMP}.us_per_index": (per(own(VERIFY_DECOMP), indices), "us"),
        f"{CLASSIFY}.calls": (c(CLASSIFY, 0), "count"),
        f"{VERIFY_WINDOW}.s": (t.stats[VERIFY_WINDOW][1], "s"),
        f"{VERIFY_WINDOW}.self_s": (own(VERIFY_WINDOW), "s"),
        "trace.wall_s": (t.wall, "s"),
        "trace.remainder_s": (t.remainder, "s"),
        "trace.overhead_frac": (
            statistics.median(x.wall for x in traced) / statistics.median(plain) - 1, "frac"
        ),
    }
    return m, ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="write the median traced round's spans here")
    args = p.parse_args()

    if not (SRC / "hallharem" / "__init__.py").is_file():
        print(f"error: no hallharem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment()))

    cls = WORKLOADS[args.workload]
    t0 = perf_counter()
    load_library()
    print(f"first_import_s {perf_counter() - t0}")
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        lib = load_library()
        workload = cls(lib, args.seed)
        workload.fresh()
        setups.append(perf_counter() - t0)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    run = Run(workload)
    ok = True
    if args.trace:
        metrics, ok = per_layer(run, args.seconds, args.spans)
    else:
        metrics = end_to_end(run, args.seconds, statistics.median(setups))
    if len(run.digests) > 1:
        print("CHECK FAILED: rounds returned different star maps", file=sys.stderr)
        ok = False
    correct = ok and run.failed == 0

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {run.failed / run.attempted} frac ({run.failed}/{run.attempted} operations)")
    for digest in sorted(run.digests):
        print(f"digest {digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
