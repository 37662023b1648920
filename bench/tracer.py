"""Outside-in tracer: spans around calls into hallharem's layers.

The benchmark wraps library functions where their callers look them up
(module globals, a class attribute, the fields of an oracle) and never
edits the library.  Every wrapped call pushes a frame on a stack; when it
returns, its duration is added to its parent's covered time, so a layer's
self time is its duration minus the time its wrapped children cover.

Spans of the structural layers (engine steps, ball extraction, solves,
verification) are kept in memory as (name, start, end, parent, op) and can
be written out at the end.  The per-vertex layers (``act``, oracle rows)
run hundreds of thousands of times per round, so their spans are folded
into per-name totals instead of being stored one by one.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from typing import Any, Callable

ACT = "group_kit.act"
NEIGHBORS = "core_graph.oracle.neighbors"
DEGREE = "core_graph.oracle.degree"
EXTRACT = "core_graph.extract_ball"
SOLVE_STAR = "flow_matching.solve_star"
SOLVE_HAREM = "flow_matching.solve_harem"
RUN_STEP = "harem_engine.run_step"
VERIFY_DECOMP = "decomposition.verify_decomposition"
VERIFY_WINDOW = "decomposition.verify_engine_window"
CLASSIFY = "decomposition.classify"

# Every timed span name; their self times plus the remainder make up a round.
TIMED = (
    ACT,
    NEIGHBORS,
    DEGREE,
    EXTRACT,
    SOLVE_STAR,
    SOLVE_HAREM,
    RUN_STEP,
    VERIFY_DECOMP,
    VERIFY_WINDOW,
)
KEPT = frozenset({EXTRACT, SOLVE_STAR, SOLVE_HAREM, RUN_STEP, VERIFY_DECOMP, VERIFY_WINDOW})


class Tracer:
    """Spans and counters of one traced round; create one per round."""

    def __init__(self) -> None:
        # A frame is [covered child seconds, id of the nearest kept span].
        self._stack: list[list[Any]] = [[0.0, None]]
        self.spans: list[tuple[str, float, float, int | None, int] | None] = []
        self.stats: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name in TIMED}
        self.counts: dict[str, int] = {}
        self.op = 0
        self.wall = 0.0
        self.remainder = 0.0

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        ``on_result`` sees the arguments and result after the span closes,
        so the counting it does is charged to the caller, not to ``name``.
        """
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        keep = name in KEPT
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if keep:
                sid = len(spans)
                spans.append(None)
                frame = [0.0, sid]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                parent[0] += dur
                if keep:
                    spans[sid] = (name, t0, t1, parent[1], tracer.op)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a call counter only; its time stays with the caller."""
        self.counts.setdefault(name, 0)
        counts = self.counts

        def counter(*args: Any) -> Any:
            counts[name] += 1
            return fn(*args)

        return counter

    def wrap_oracle(self, oracle: Any) -> Any:
        fields = {"neighbors": self.wrap(NEIGHBORS, oracle.neighbors)}
        # The planned removal of ``degree`` should read as zero calls.
        if hasattr(oracle, "degree"):
            fields["degree"] = self.wrap(DEGREE, oracle.degree)
        return dataclasses.replace(oracle, **fields)

    @contextmanager
    def patched(self, lib: Any):
        """Wrap the library's functions where their callers look them up.

        A name no longer looked up there is skipped, so its layer reads zero.
        """
        targets = [
            (lib.decomposition, "act", ACT, None),
            (lib.harem_engine, "extract_ball", EXTRACT, _count_ball),
            (lib.harem_engine, "solve_star", SOLVE_STAR, _count_request),
            (lib.flow_matching, "solve_harem", SOLVE_HAREM, _count_request),
            (lib.harem_engine.EngineState, "run_step", RUN_STEP, None),
            (lib.decomposition, "verify_decomposition", VERIFY_DECOMP, _count_indices),
            (lib.decomposition, "verify_engine_window", VERIFY_WINDOW, None),
        ]
        targets = [t for t in targets if t[1] in vars(t[0])]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, hook in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    @contextmanager
    def root(self):
        """Time one round; the time no wrapped call covers is the remainder."""
        frame = [0.0, None]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.wall = time.perf_counter() - t0
            self._stack.pop()
            self.remainder = self.wall - frame[0]

    def calls(self, name: str) -> int:
        return int(self.stats[name][0])

    def counters(self) -> dict[str, int]:
        """Everything that must repeat exactly at a fixed seed."""
        out = {f"{name}.calls": self.calls(name) for name in TIMED}
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per kept span, then one per timed name's totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
            for name, (calls, total, own) in self.stats.items():
                fh.write(json.dumps({
                    "totals": name, "calls": int(calls), "s": total, "self_s": own,
                }) + "\n")


def _count_ball(tracer: Tracer, args: tuple, ball: Any) -> None:
    graph = ball.graph
    tracer.add(f"{EXTRACT}.vertices", len(graph.left_ids) + len(graph.right_ids))
    tracer.add(f"{EXTRACT}.edges", graph.edge_count)
    tracer.add(f"{EXTRACT}.shell", len(ball.shell_right))


def _count_request(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("flow_matching.request.edges", args[0].graph.edge_count)


def _count_indices(tracer: Tracer, args: tuple, report: Any) -> None:
    tracer.add(f"{VERIFY_DECOMP}.indices", report.checked)
