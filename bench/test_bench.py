"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py      (about two minutes)

They run the benchmark command for one round per workload, so they are
kept out of the library's own test suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SPANS = tempfile.TemporaryDirectory()


def spans_file(workload: str, repeat: int) -> Path:
    return Path(SPANS.name) / f"{workload}-{repeat}.jsonl"


@lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 3, repeat: int = 0) -> dict:
    """Last-line result of a one-round run; a traced run also writes its
    spans.  ``repeat`` keys the cache, so two repeats are two processes."""
    extra = ["--spans", str(spans_file(workload, repeat))] if trace else []
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@lru_cache(maxsize=None)
def lib():
    return run.load_library()


def test_spec_lists_the_defined_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    result = bench(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["f2_lazy", "finite_exhaust"])
def test_traced_counts_repeat_exactly(workload):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [
        {n: m["value"] for n, m in bench(workload, 1, repeat=r)["metrics"].items()
         if units[n] == "count"}
        for r in (0, 1)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["harem_engine.run_step.calls"] > 0
    assert counts[0]["core_graph.extract_ball.calls"] > 0


def test_spans_are_written_with_parents_and_operations():
    bench("finite_exhaust", 1)
    lines = [json.loads(ln) for ln in spans_file("finite_exhaust", 0).read_text().splitlines()]
    spans = {s["id"]: s for s in lines if "id" in s}
    steps = [s for s in spans.values() if s["name"] == "harem_engine.run_step"]
    balls = [s for s in spans.values() if s["name"] == "core_graph.extract_ball"]
    assert steps and all(s["parent"] is None for s in steps)
    assert balls and all(spans[s["parent"]]["name"] == "harem_engine.run_step" for s in balls)
    assert all(s["start"] <= s["end"] for s in spans.values())
    assert {s["op"] for s in steps} == set(range(workloads.EXHAUST_INSTANCES))
    totals = {t["totals"]: t for t in lines if "totals" in t}
    assert totals["core_graph.oracle.neighbors"]["calls"] > 0


def test_self_times_and_remainder_sum_to_the_round():
    tracer = Tracer()
    leaf = tracer.wrap("group_kit.act", lambda x: sum(range(x)))
    mid = tracer.wrap("core_graph.extract_ball", lambda: [leaf(20000) for _ in range(5)])
    with tracer.root():
        mid()
        leaf(1000)
    own = sum(stat[2] for stat in tracer.stats.values())
    assert tracer.calls("group_kit.act") == 6
    assert tracer.remainder >= 0
    assert own + tracer.remainder == pytest.approx(tracer.wall, rel=1e-9)
    kept = [s for s in tracer.spans if s is not None]
    assert [s[0] for s in kept] == ["core_graph.extract_ball"]


def test_wrong_planted_star_map_is_caught():
    wl = workloads.PlantedFinite(lib(), 0)
    good = wl.run(wl.fresh(), [], None)
    assert wl.check(good).failed == 0
    stars = dict(good.stars)
    stars[0], stars[1] = stars[1], stars[0]
    bad = dataclasses.replace(good, stars=stars)
    assert wl.check(bad).failed == 1


def test_wrong_exhaustion_star_map_is_caught():
    wl = workloads.FiniteExhaust(lib(), 0)
    snaps = wl.run(wl.fresh(), [], None)
    assert wl.check(snaps).failed == 0
    first = dict(snaps[0].stars)
    a, b = sorted(first)[:2]
    first[a], first[b] = first[b], first[a]
    snaps[0] = dataclasses.replace(snaps[0], stars=tuple(sorted(first.items())))
    assert wl.check(snaps).failed >= 1


def test_wrong_f2_star_and_failed_window_are_caught():
    d = lib().decomposition
    wl = workloads.F2Lazy(lib(), 0)
    ok = d.DecompReport((), workloads.F2_STEPS)
    assert wl.check((workloads.F2_STARS, ok)).failed == 0
    wrong = ((0, (0, 2)), workloads.F2_STARS[1])
    assert wl.check((wrong, ok)).failed == 1
    bad = d.DecompReport((d.DecompViolation("translates", 2, ()),), workloads.F2_STEPS)
    assert wl.check((workloads.F2_STARS, bad)).failed == 1
    assert wl.check(None).failed == workloads.F2_STEPS + 1


def test_classic_violations_and_short_window_are_caught():
    d = lib().decomposition
    wl = workloads.ClassicVerify(lib(), 0)
    window = workloads.CLASSIC_WINDOW
    assert wl.check(d.DecompReport((), window)).failed == 0
    bad = d.DecompReport((d.DecompViolation("translates", 7, ()),), window)
    assert wl.check(bad).failed == 1
    assert wl.check(d.DecompReport((), window - 5)).failed == 5


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
