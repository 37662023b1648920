"""The benchmark's four workloads: seeded inputs, one timed round, checks.

Each workload builds its inputs once from the seed (``__init__``), builds
fresh per-round objects outside the timed region (``fresh``), runs one
round of calls into hallharem (``run``) and checks the round's output
afterwards (``check``).  Instance sizes are fixed; the seed draws only
edges, so different seeds give comparable load.

Load is a closed loop: one caller in one process issues each call after
the previous one returns.
"""

from __future__ import annotations

import hashlib
import random
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from tracer import CLASSIFY

F2_STARS = ((0, (0, 1)), (2, (2, 8)))
F2_STEPS = 2

PLANTED_LEFT = 1500
PLANTED_K = 2
PLANTED_DEGREE = 6

EXHAUST_INSTANCES = 60
EXHAUST_MIN_M = 20
EXHAUST_MAX_M = 60
EXHAUST_EDGE_P = 0.05

CLASSIC_WINDOW = 30_000

# sha256 prefixes of the star maps hallharem returned when the benchmark
# was defined, for seeds 0-15.
# A change to the lexicographically least answer fails the check.
PINNED = {
    "planted_finite": {
        0: "8706d2085747b029", 1: "83c185915fe78cb7", 2: "898957391c1b1ced",
        3: "c0c87a05689afdaa", 4: "6d7b9a876802600c", 5: "add092323eca6206",
        6: "a5e548725215d33e", 7: "774d4691893391ab", 8: "89a12adc6871951c",
        9: "73e48ce3ae369658", 10: "f2fe82786a2a396c", 11: "2b10e24b3edd147c",
        12: "ae8308c04eb25aaa", 13: "074899da97a4f0d1", 14: "26149a7d090449de",
        15: "2d75878ccbde6b07",
    },
    "finite_exhaust": {
        0: "1ad7666b575fc736", 1: "55b16a6e568e0e72", 2: "29404e318addb56b",
        3: "a69bb64677bb0873", 4: "60ca02fe903b7ce5", 5: "94569898926246c4",
        6: "d8dad7c264ef6c0e", 7: "869f4db7efb82568", 8: "045991cbb5f8d749",
        9: "77ec0812a3645e78", 10: "8c863e8ae4c03439", 11: "0eae934da1d79adc",
        12: "0429d2d7d69ec37f", 13: "037090b3a73dd3d3", 14: "4dae4271324a0b58",
        15: "9366f2930bacd95d",
    },
}


@dataclass
class Verdict:
    attempted: int
    failed: int
    digest: str | None = None


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


def star_digest(star_maps: list[Any]) -> str:
    """Digest of a sequence of star maps (dicts or sorted item tuples)."""
    h = hashlib.sha256()
    for stars in star_maps:
        items = stars.items() if isinstance(stars, dict) else stars
        h.update(repr(tuple(sorted(items))).encode())
        h.update(b";")
    return h.hexdigest()[:16]


def planted_graph(lib: Any, rng: random.Random, lefts: int, k: int, degree: int) -> Any:
    """k planted partners per left over k*lefts rights, plus uniform decoys
    up to ``degree`` distinct neighbours; the planted stars make it feasible."""
    n_right = k * lefts
    rights = list(range(n_right))
    rng.shuffle(rights)
    adj: dict[int, set[int]] = {}
    for a in range(lefts):
        row = set(rights[k * a : k * a + k])
        while len(row) < degree:
            row.add(rng.randrange(n_right))
        adj[a] = row
    return lib.core_graph.FiniteBipartiteGraph.from_adjacency(adj, right_ids=range(n_right))


def criterion5_graph(lib: Any, rng: random.Random, m: int, p: float) -> Any:
    """The acceptance-criterion-5 generator: m lefts, 2m rights, a planted
    (1,2)-matching plus every other edge independently with probability p."""
    rights = list(range(2 * m))
    rng.shuffle(rights)
    adj = {a: set(rights[2 * a : 2 * a + 2]) for a in range(m)}
    for a in range(m):
        for b in range(2 * m):
            if rng.random() < p:
                adj[a].add(b)
    return lib.core_graph.FiniteBipartiteGraph.from_adjacency(adj, right_ids=range(2 * m))


class Workload:
    """Base class; ``BENCHMARK.json`` says why each workload exists."""

    name = ""

    def __init__(self, lib: Any, seed: int):
        self.lib = lib
        self.seed = seed

    def fresh(self) -> Any:
        raise NotImplementedError

    def instrument(self, inputs: Any, tracer: Any) -> None:
        """Wrap the per-round objects a traced round uses."""

    def run(self, inputs: Any, calls: list[float], tracer: Any) -> Any:
        """One round; appends the latency of each request it times to ``calls``."""
        raise NotImplementedError

    def check(self, output: Any) -> Verdict:
        raise NotImplementedError

    def _pinned(self, digest: str) -> bool:
        want = PINNED.get(self.name, {}).get(self.seed)
        return want is None or want == digest


class F2Lazy(Workload):
    """``hallharem verify --what decomposition --steps 2``; the seed is unused."""

    name = "f2_lazy"

    def fresh(self) -> Any:
        d = self.lib.decomposition
        return d.ParadoxDecomp(d.tight_spec(2))

    def instrument(self, decomp: Any, tracer: Any) -> None:
        decomp.engine.oracle = tracer.wrap_oracle(decomp.engine.oracle)

    def run(self, decomp: Any, calls: list[float], tracer: Any) -> Any:
        # The user's request is the whole query, so it is the one timed call:
        # its two steps differ in cost by three orders of magnitude.
        t0 = perf_counter()
        for op in range(F2_STEPS):
            if tracer is not None:
                tracer.op = op
            try:
                decomp.run_steps(1)
            except Exception as exc:  # a failed step fails the round's operations
                _report(exc)
                return None
        if tracer is not None:
            tracer.op = F2_STEPS
        try:
            report = self.lib.decomposition.verify_engine_window(decomp)
        except Exception as exc:
            _report(exc)
            return decomp.engine.committed_prefix().stars, None
        calls.append(perf_counter() - t0)
        return decomp.engine.committed_prefix().stars, report

    def check(self, output: Any) -> Verdict:
        ops = F2_STEPS + 1
        if output is None:
            return Verdict(ops, ops)
        stars, report = output
        failed = sum(1 for got, want in zip(stars, F2_STARS) if got != want)
        failed += F2_STEPS - min(len(stars), F2_STEPS)
        if report is None or not report.ok or report.checked != F2_STEPS:
            failed += 1
        return Verdict(ops, failed, star_digest([stars]))


class PlantedFinite(Workload):
    """``solve_harem`` on one planted instance, as ``hallharem finite`` runs it."""

    name = "planted_finite"

    def __init__(self, lib: Any, seed: int):
        super().__init__(lib, seed)
        rng = random.Random(f"{self.name}:{seed}")
        graph = planted_graph(lib, rng, PLANTED_LEFT, PLANTED_K, PLANTED_DEGREE)
        self.request = lib.flow_matching.MatchingRequest.all_required(graph, PLANTED_K)

    def fresh(self) -> Any:
        return self.request

    def run(self, request: Any, calls: list[float], tracer: Any) -> Any:
        try:
            return _timed(calls, self.lib.flow_matching.solve_harem, request)
        except Exception as exc:
            _report(exc)
            return None

    def check(self, matching: Any) -> Verdict:
        if matching is None:
            return Verdict(1, 1)
        report = self.lib.flow_matching.verify_matching(self.request, matching)
        digest = star_digest([matching.stars])
        return Verdict(1, 0 if report.ok and self._pinned(digest) else 1, digest)


class FiniteExhaust(Workload):
    """``drive_to_exhaustion`` over criterion-5-style instances."""

    name = "finite_exhaust"

    def __init__(self, lib: Any, seed: int):
        super().__init__(lib, seed)
        rng = random.Random(f"{self.name}:{seed}")
        span = EXHAUST_MAX_M - EXHAUST_MIN_M + 1
        self.graphs = [
            criterion5_graph(lib, rng, EXHAUST_MIN_M + i % span, EXHAUST_EDGE_P)
            for i in range(EXHAUST_INSTANCES)
        ]

    def fresh(self) -> Any:
        cg, he = self.lib.core_graph, self.lib.harem_engine
        engines = []
        for g in self.graphs:
            # A new graph object per round, so its cached right adjacency is
            # rebuilt inside the timed region as it is for a first caller.
            copy = cg.FiniteBipartiteGraph(g.left_ids, g.right_ids, g.adjacency)
            engines.append(
                he.EngineState(copy.as_oracle(), k=2, h=he.vacuous_witness(len(g.left_ids)))
            )
        return engines

    def instrument(self, engines: list[Any], tracer: Any) -> None:
        for engine in engines:
            engine.oracle = tracer.wrap_oracle(engine.oracle)

    def run(self, engines: list[Any], calls: list[float], tracer: Any) -> Any:
        snaps = []
        for op, engine in enumerate(engines):
            if tracer is not None:
                tracer.op = op
            _time_steps(engine, calls)
            try:
                snaps.append(engine.drive_to_exhaustion())
            except Exception as exc:
                _report(exc)
                snaps.append(None)
        return snaps

    def check(self, snaps: list[Any]) -> Verdict:
        fm = self.lib.flow_matching
        failed = 0
        for g, snap in zip(self.graphs, snaps):
            if snap is None:
                failed += 1
                continue
            covered = (
                snap.removed_left == frozenset(g.left_ids)
                and snap.removed_right == frozenset(g.right_ids)
            )
            req = fm.MatchingRequest.all_required(g, 2)
            matching = fm.HaremMatching(stars=dict(snap.stars))
            if not covered or not fm.verify_matching(req, matching).ok:
                failed += 1
        digest = star_digest([s.stars if s is not None else () for s in snaps])
        if not self._pinned(digest):
            failed = len(self.graphs)
        return Verdict(len(self.graphs), failed, digest)


def _timed(calls: list[float], fn: Any, *args: Any) -> Any:
    t0 = perf_counter()
    result = fn(*args)
    calls.append(perf_counter() - t0)
    return result


def _time_steps(engine: Any, calls: list[float]) -> None:
    """Record the latency of each committed step, whatever ``run_step`` the
    engine's class holds when the call is made."""
    cls = type(engine)

    def run_step() -> Any:
        t0 = perf_counter()
        result = cls.run_step(engine)
        calls.append(perf_counter() - t0)
        return result

    engine.run_step = run_step


class ClassicVerify(Workload):
    """``hallharem verify --what decomposition --classic``; the seed is unused."""

    name = "classic_verify"

    def fresh(self) -> Any:
        return self.lib.decomposition.ClassicF2Decomp()

    def instrument(self, classic: Any, tracer: Any) -> None:
        classic.a_member = tracer.counted(CLASSIFY, classic.a_member)
        classic.b_member = tracer.counted(CLASSIFY, classic.b_member)

    def run(self, classic: Any, calls: list[float], tracer: Any) -> Any:
        try:
            return _timed(
                calls,
                self.lib.decomposition.verify_decomposition,
                classic.a_member, classic.b_member, classic.k_set, CLASSIC_WINDOW,
            )
        except Exception as exc:
            _report(exc)
            return None

    def check(self, report: Any) -> Verdict:
        if report is None:
            return Verdict(CLASSIC_WINDOW, CLASSIC_WINDOW)
        bad = {v.index for v in report.violations}
        missing = max(CLASSIC_WINDOW - report.checked, 0)
        return Verdict(CLASSIC_WINDOW, min(len(bad) + missing, CLASSIC_WINDOW))


WORKLOADS = {w.name: w for w in (F2Lazy, PlantedFinite, FiniteExhaust, ClassicVerify)}
