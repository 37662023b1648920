"""Finite perfect-(1,k)-matching problems with required/optional coverage.

A request asks that every left vertex receive exactly k partners, and that
every right vertex be either required (covered exactly once) or optional
(covered at most once).  Solving reduces to a circulation with lower
bounds, found by breadth-first augmentation and then rewritten to the
canonical (lexicographically least) star map so results are reproducible.

``check_hall_harem`` and ``check_expanding_hall_witness`` are exhaustive
subset-condition checkers used as independent oracles in the test suite;
``brute_force_harem`` enumerates every feasible matching outright.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from .core_graph import FiniteBipartiteGraph, Side, Vertex
from .errors import InternalError, SizeGuardError, WitnessError

_SRC = -1
_SNK = -2

BRUTE_MAX_LEFT = 6
BRUTE_MAX_RIGHT = 12
HALL_MAX_LEFT = 20
HALL_MAX_RIGHT = 48


@dataclass(frozen=True)
class MatchingRequest:
    graph: FiniteBipartiteGraph
    k: int
    required_left: frozenset[int]
    required_right: frozenset[int]
    optional_right: frozenset[int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.required_left != set(self.graph.left_ids):
            raise ValueError("required_left must be every left id")
        if self.required_right & self.optional_right:
            raise ValueError("required_right and optional_right must be disjoint")
        if self.required_right | self.optional_right != set(self.graph.right_ids):
            raise ValueError(
                "required_right and optional_right must together be every right id"
            )

    @staticmethod
    def all_required(graph: FiniteBipartiteGraph, k: int) -> "MatchingRequest":
        return MatchingRequest(
            graph=graph,
            k=k,
            required_left=frozenset(graph.left_ids),
            required_right=frozenset(graph.right_ids),
            optional_right=frozenset(),
        )


@dataclass(frozen=True)
class HaremMatching:
    """A star map: left index -> sorted tuple of its partners.

    A solved request gives every left vertex exactly k partners, every
    required right vertex one star and every optional right vertex at most
    one; ``verify_matching`` checks any star map against a request.  Each
    right index appears in at most one star, so the right-to-left
    ``inverse`` map is well defined.
    """

    stars: dict[int, tuple[int, ...]]

    @cached_property
    def inverse(self) -> dict[int, int]:
        inv: dict[int, int] = {}
        for a, star in self.stars.items():
            for b in star:
                if b in inv:
                    raise ValueError(f"right vertex {b} lies in two stars")
                inv[b] = a
        return inv


@dataclass(frozen=True)
class MatchingViolation:
    kind: str
    subject: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.subject}"


@dataclass(frozen=True)
class MatchingReport:
    violations: tuple[MatchingViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class _Solver:
    """Circulation state plus the canonicalizing greedy pass.

    The witness matching (``cover``/``counts``) is some feasible solution,
    updated in place by residual-path reroutes; ``pins`` accumulate the
    final canonical answer and are never undone.  A pinned edge never
    leaves the witness, so ``pinned_cover`` also names the witness edges
    the residual search may not remove.
    """

    def __init__(self, req: MatchingRequest):
        self.req = req
        self.k = req.k
        g = req.graph
        self.lefts = g.left_ids
        self.cand = g.adjacency
        self.required_right = req.required_right
        self.cover: dict[int, int] = {}
        self.counts: dict[int, int] = {a: 0 for a in g.left_ids}
        self.total = 0
        # prepare() rejects a left with fewer than k candidates before any
        # search, so every left starts with room for another partner.
        self.spare: set[int] = set(g.left_ids)
        self.unsinkable: set[int] = set()
        self.pins: dict[int, list[int]] = {}
        self.pinned_cover: dict[int, int] = {}
        self.need_right = len(req.required_right)

    # -- feasibility ------------------------------------------------------

    def prepare(self) -> bool:
        """Quick rejects plus saturation of all lower bounds."""
        req = self.req
        if len(req.required_right) > self.k * len(self.lefts):
            return False
        for a in self.lefts:
            if len(self.cand.get(a, ())) < self.k:
                return False
        rdeg: dict[int, int] = {b: 0 for b in req.required_right}
        for a in self.lefts:
            for b in self.cand[a]:
                if b in rdeg:
                    rdeg[b] += 1
        if any(d == 0 for d in rdeg.values()):
            return False
        for a in self.lefts:
            while self.counts[a] < self.k:
                if not self._augment(2 * a, _SNK):
                    return False
        for b in sorted(req.required_right):
            if b not in self.cover:
                if not self._augment(_SRC, 2 * b + 1):
                    return False
        return True

    # -- residual search --------------------------------------------------

    def _bfs(self, start: int, target: int) -> list[tuple[str, int, int]] | None:
        """Residual path from start to target; returns the edge mutations
        ('add'/'rm', left, right) along it, or None if unreachable."""
        parent: dict[int, tuple[int, tuple[str, int, int] | None]] = {
            start: (start, None)
        }
        if start == target:
            return []
        queue: deque[int] = deque((start,))
        cover = self.cover
        pinned_cover = self.pinned_cover
        while queue:
            u = queue.popleft()
            if u == _SRC:
                if _SNK not in parent and self.total > 0:
                    if _SNK == target:
                        return self._path(parent, u, None)
                    parent[_SNK] = (u, None)
                    queue.append(_SNK)
                for a in self.spare:
                    v = 2 * a
                    if v not in parent:
                        if v == target:
                            return self._path(parent, u, None)
                        parent[v] = (u, None)
                        queue.append(v)
            elif u == _SNK:
                if _SRC not in parent:
                    if _SRC == target:
                        return self._path(parent, u, None)
                    parent[_SRC] = (u, None)
                    queue.append(_SRC)
                for b in self.unsinkable:
                    v = 2 * b + 1
                    if v not in parent:
                        if v == target:
                            return self._path(parent, u, None)
                        parent[v] = (u, None)
                        queue.append(v)
            elif u % 2 == 0:  # left vertex
                a = u // 2
                for b in self.cand[a]:
                    v = 2 * b + 1
                    if v in parent or cover.get(b) == a:
                        continue
                    op = ("add", a, b)
                    if v == target:
                        return self._path(parent, u, op)
                    parent[v] = (u, op)
                    queue.append(v)
            else:  # right vertex
                b = u // 2
                a2 = cover.get(b)
                if a2 is not None:
                    v = 2 * a2
                    if v not in parent and b not in pinned_cover:
                        op = ("rm", a2, b)
                        if v == target:
                            return self._path(parent, u, op)
                        parent[v] = (u, op)
                        queue.append(v)
                elif _SNK not in parent:
                    if _SNK == target:
                        return self._path(parent, u, None)
                    parent[_SNK] = (u, None)
                    queue.append(_SNK)
        return None

    @staticmethod
    def _path(parent, last_node, last_op) -> list[tuple[str, int, int]]:
        ops = [last_op] if last_op is not None else []
        node = last_node
        while True:
            prev, op = parent[node]
            if op is not None:
                ops.append(op)
            if prev == node:
                break
            node = prev
        ops.reverse()
        return ops

    def _apply(self, ops: list[tuple[str, int, int]]) -> None:
        # Removals first: a right vertex rerouted inside one path is removed
        # from its old star before being attached to the new one.
        for kind, a, b in ops:
            if kind == "rm":
                del self.cover[b]
                self.counts[a] -= 1
                self.total -= 1
                self.spare.add(a)
                self.unsinkable.discard(b)
        for kind, a, b in ops:
            if kind == "add":
                self.cover[b] = a
                self.counts[a] += 1
                self.total += 1
                if self.counts[a] >= self.k:
                    self.spare.discard(a)
                if b not in self.required_right:
                    self.unsinkable.add(b)

    def _augment(self, start: int, target: int) -> bool:
        ops = self._bfs(start, target)
        if ops is None:
            return False
        self._apply(ops)
        return True

    # -- canonicalization -------------------------------------------------

    def _force(self, a: int, b: int) -> bool:
        """Try to reroute the witness so edge (a, b) joins it."""
        ops = self._bfs(2 * b + 1, 2 * a)
        if ops is None:
            return False
        self._apply(ops)
        self._apply([("add", a, b)])
        return True

    def _process_left(self, a: int) -> None:
        """Pin the k least candidates of a that the witness can take."""
        row = self.pins[a] = []
        for b in self.cand[a]:
            if len(row) == self.k:
                break
            if b in self.pinned_cover:
                continue
            if self.cover.get(b) == a or self._force(a, b):
                row.append(b)
                self.pinned_cover[b] = a
                if b in self.required_right:
                    self.need_right -= 1
        if len(row) != self.k:
            raise InternalError(f"left {a} ended under-matched")

    def greedy(self, stop: Vertex | None) -> tuple[int, tuple[int, ...]] | None:
        """Run the canonical pass; with ``stop`` set, halt as soon as the
        star relevant to that pivot is fully decided and return it."""
        for a in self.lefts:
            self._process_left(a)
            if stop is None:
                continue
            if stop.side is Side.LEFT and a == stop.index:
                return a, tuple(self.pins[a])
            if stop.side is Side.RIGHT:
                a1 = self.pinned_cover.get(stop.index)
                if a1 is not None and a1 <= a:
                    return a1, tuple(self.pins[a1])
        if stop is not None:
            raise InternalError(f"pivot {stop!r} never matched by the greedy pass")
        if self.need_right != 0:
            raise InternalError("greedy pass ended with unmet requirements")
        return None

    def matching(self) -> HaremMatching:
        return HaremMatching(
            stars={a: tuple(row) for a, row in sorted(self.pins.items())}
        )


def solve_harem(req: MatchingRequest) -> HaremMatching | None:
    """Solve a request; returns the canonical matching, or None if infeasible.

    The canonical matching is the one whose per-left star tuples, read in
    ascending left order, are lexicographically least among all feasible
    matchings.  Two calls on equal requests return identical results.
    """
    solver = _Solver(req)
    if not solver.prepare():
        return None
    solver.greedy(stop=None)
    return solver.matching()


def solve_star(req: MatchingRequest, pivot: Vertex) -> tuple[int, tuple[int, ...]] | None:
    """The star of the canonical matching relevant to ``pivot``.

    For a left pivot this is its own star; for a right pivot, the full star
    of the left vertex matched to it.  Decisions of the canonical pass are
    final in ascending left order, so the pass can stop early; the result
    equals the corresponding fragment of ``solve_harem(req)``.
    """
    solver = _Solver(req)
    if not solver.prepare():
        return None
    return solver.greedy(stop=pivot)


def brute_force_harem(req: MatchingRequest) -> Iterator[HaremMatching]:
    """Yield every feasible matching in lexicographic star-map order."""
    g = req.graph
    if len(g.left_ids) > BRUTE_MAX_LEFT or len(g.right_ids) > BRUTE_MAX_RIGHT:
        raise SizeGuardError(
            f"brute force capped at {BRUTE_MAX_LEFT}x{BRUTE_MAX_RIGHT}, "
            f"got {len(g.left_ids)}x{len(g.right_ids)}"
        )
    lefts = g.left_ids

    def rec(pos: int, used: set[int], acc: list[tuple[int, tuple[int, ...]]]):
        if pos == len(lefts):
            if req.required_right <= used:
                yield HaremMatching(stars=dict(acc))
            return
        a = lefts[pos]
        avail = [b for b in g.adjacency.get(a, ()) if b not in used]
        for star in itertools.combinations(avail, req.k):
            used.update(star)
            acc.append((a, star))
            yield from rec(pos + 1, used, acc)
            acc.pop()
            used.difference_update(star)

    return rec(0, set(), [])


def verify_matching(req: MatchingRequest, m: HaremMatching) -> MatchingReport:
    """Check a matching against a request; violations are data, not errors."""
    g = req.graph
    listed = req.required_right | req.optional_right
    violations: list[MatchingViolation] = []
    coverage: dict[int, int] = {}
    for a, star in sorted(m.stars.items()):
        for b in star:
            if not g.has_edge(a, b):
                violations.append(MatchingViolation("non-edge", (a, b)))
            coverage[b] = coverage.get(b, 0) + 1
        if a in req.required_left:
            if len(star) != req.k:
                violations.append(MatchingViolation("left-not-exactly-k", (a,)))
        elif len(star) > req.k:
            violations.append(MatchingViolation("left-over-k", (a,)))
    for a in sorted(req.required_left - set(m.stars)):
        violations.append(MatchingViolation("left-not-exactly-k", (a,)))
    for b in sorted(req.required_right):
        if coverage.get(b, 0) != 1:
            violations.append(MatchingViolation("right-not-exactly-once", (b,)))
    for b, c in sorted(coverage.items()):
        if c > 1:
            violations.append(MatchingViolation("right-over-once", (b,)))
        if b not in listed:
            violations.append(MatchingViolation("right-unlisted", (b,)))
    return MatchingReport(tuple(violations))


# -- exhaustive condition checkers ---------------------------------------


def _left_neighborhood_masks(graph: FiniteBipartiteGraph) -> tuple[list[int], dict[int, int]]:
    rpos = {b: p for p, b in enumerate(graph.right_ids)}
    masks = []
    for a in graph.left_ids:
        mask = 0
        for b in graph.adjacency.get(a, ()):
            mask |= 1 << rpos[b]
        masks.append(mask)
    return masks, rpos


def _subset_neighborhoods(masks: list[int]) -> list[int]:
    """union-of-neighborhoods for every subset of the left side."""
    m = len(masks)
    out = [0] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        out[s] = out[s ^ low] | masks[low.bit_length() - 1]
    return out

def _right_closure_tables(graph: FiniteBipartiteGraph) -> tuple[list[int], list[int]]:
    """For every left subset S: the number of right vertices whose whole
    neighborhood lies in S, and the union of those neighborhoods.

    Any right subset Y is dominated by the closure of S = N(Y): the closure
    is at least as large and has the same neighborhood, so the Hall-style
    margins need only be checked on closures.
    """
    m = len(graph.left_ids)
    lpos = {a: p for p, a in enumerate(graph.left_ids)}
    count = [0] * (1 << m)
    union = [0] * (1 << m)
    for b in graph.right_ids:
        mask = 0
        for a in graph.neighbors_right(b):
            mask |= 1 << lpos[a]
        count[mask] += 1
        union[mask] |= mask
    for bit in range(m):
        step = 1 << bit
        for s in range(1 << m):
            if s & step:
                count[s] += count[s ^ step]
                union[s] |= union[s ^ step]
    return count, union


def _guard_hall(graph: FiniteBipartiteGraph) -> None:
    if len(graph.left_ids) > HALL_MAX_LEFT or len(graph.right_ids) > HALL_MAX_RIGHT:
        raise SizeGuardError(
            f"subset checks capped at {HALL_MAX_LEFT}x{HALL_MAX_RIGHT}, "
            f"got {len(graph.left_ids)}x{len(graph.right_ids)}"
        )


def check_hall_harem(graph: FiniteBipartiteGraph, k: int) -> bool:
    """Exhaustive Hall condition: |N(X)| >= k|X| for all nonempty left X and
    |N(Y)| >= |Y|/k for all nonempty right Y (exact arithmetic)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _guard_hall(graph)
    masks, _ = _left_neighborhood_masks(graph)
    nbh = _subset_neighborhoods(masks)
    for s in range(1, 1 << len(masks)):
        if nbh[s].bit_count() < k * s.bit_count():
            return False
    count, union = _right_closure_tables(graph)
    for s in range(1 << len(masks)):
        if count[s] and k * union[s].bit_count() < count[s]:
            return False
    return True


def check_expanding_hall_witness(
    graph: FiniteBipartiteGraph,
    k: int,
    h: Callable[[int], int],
    n_max: int,
) -> bool:
    """Exhaustive check of expanding Hall margins under a witness h.

    True iff for every n <= n_max: every nonempty left X with h(n) <= |X|
    has n <= |N(X)| - k|X|, and every nonempty right Y with h(n) <= |Y| has
    n <= |N(Y)| - |Y|/k.  Comparisons are exact (cross-multiplied by k).
    No monotonicity of h is assumed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if h(0) != 0:
        raise WitnessError("witness must satisfy h(0) = 0")
    _guard_hall(graph)
    masks, _ = _left_neighborhood_masks(graph)
    nbh = _subset_neighborhoods(masks)
    m = len(masks)
    worst_left: dict[int, int] = {}
    for s in range(1, 1 << m):
        size = s.bit_count()
        margin = nbh[s].bit_count() - k * size
        if margin < worst_left.get(size, margin + 1):
            worst_left[size] = margin
    count, union = _right_closure_tables(graph)
    worst_right: dict[int, int] = {}  # k-scaled margins, keyed by |Y|
    for s in range(1 << m):
        y = count[s]
        if y == 0:
            continue
        scaled = k * union[s].bit_count() - y
        if scaled < worst_right.get(y, scaled + 1):
            worst_right[y] = scaled
    for n in range(n_max + 1):
        threshold = h(n)
        for size, margin in worst_left.items():
            if threshold <= size and n > margin:
                return False
        for y, scaled in worst_right.items():
            if threshold <= y and k * n > scaled:
                return False
    return True
