"""Finite perfect-(1,k)-matching problems with required/optional coverage.

A request asks that every left vertex receive exactly k partners, and that
every right vertex be either required (covered exactly once) or optional
(covered at most once).  Solving searches a residual network of lefts,
rights and one sink by breadth-first augmentation: first every left gets
k partners, then paths reroute partners until every required right is
covered, and a greedy pass rewrites that witness to the canonical
(lexicographically least) star map so results are reproducible.  The
greedy pass tries each candidate edge in ascending order and keeps it if a
residual path frees a slot for it; it looks for that path with a search
grown from both of its ends, because a forward search alone visits most
of the network on each try.

``check_hall_harem`` and ``check_expanding_hall_witness`` are exhaustive
subset-condition checkers used as independent oracles in the test suite;
``brute_force_harem`` enumerates every feasible matching outright.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .core_graph import FiniteBipartiteGraph, Side, Vertex
from .errors import InternalError, SizeGuardError, WitnessError

_SNK = -1

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
    one; ``verify_matching`` checks any star map against a request.
    """

    stars: dict[int, tuple[int, ...]]


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
    """A residual network of lefts (node 2a), rights (2b+1) and one sink,
    plus the canonicalizing greedy pass.

    A left may take a candidate outside its star, a right may leave the
    star that holds it or, held by none, reach the sink, and the sink may
    drop any matched optional right.  The witness (``cover``, right ->
    left) is some feasible matching, rerouted in place along residual
    paths; ``pins`` accumulate the canonical answer and are never undone.
    A pinned edge never leaves the witness, so a right in ``pinned`` is
    held by ``cover`` and the residual search may not take it away.  Every
    sink arc is read from ``cover`` and the request's optional rights.  A
    path is kept as parent pointers only: the sides of an arc's ends fix
    its edit.

    ``prepare`` gives each left its first free candidates directly and
    finds its other paths with the forward ``_bfs``: those for the partners
    a left still lacks once its row has no free candidate, and those of
    phase 2.  One end of each is the sink, whose backward frontier is every
    uncovered right.  A ``_force`` path joins a right to a left, so
    ``_meet`` grows its search from both and expands the smaller frontier.
    Its backward arcs read the graph's right adjacency, cached on the graph
    and built on the first backward step.
    """

    def __init__(self, req: MatchingRequest):
        self.req = req
        self.k = req.k
        g = req.graph
        self.lefts = g.left_ids
        self.cand = g.adjacency
        self.cover: dict[int, int] = {}
        self.pins: dict[int, list[int]] = {}
        self.pinned: set[int] = set()
        self.need_right = len(req.required_right)

    # -- feasibility ------------------------------------------------------

    def prepare(self) -> bool:
        """A count test, then a witness: every left gets k partners, then
        paths from the sink cover each required right; False if either
        fails.  The flow value stays k per left from then on: every later
        path takes one partner from each left it passes and gives it another.

        A left first takes its uncovered candidates in row order, up to k.
        That is the path ``_bfs`` from 2a would find for each: it queues
        every candidate before any deeper node, no right is pinned yet, and
        rights a already holds are no arc.  Phase 1 never uncovers a right,
        so only a left whose row runs out of free candidates needs a
        residual search for the partners it still lacks.  A row shorter
        than k fails at once; a required right no row lists, in phase 2."""
        req = self.req
        if len(req.required_right) > self.k * len(self.lefts):
            return False
        k, cover = self.k, self.cover
        for a in self.lefts:
            row = self.cand[a]
            if len(row) < k:
                return False
            got = 0
            for b in row:
                if got == k:
                    break
                if b not in cover:
                    cover[b] = a
                    got += 1
            # A path from 2a adds one edge at a and never re-enters a.
            for _ in range(k - got):
                if not self._augment(2 * a, _SNK, self._bfs):
                    return False
        for b in sorted(req.required_right):
            if b not in self.cover and not self._augment(_SNK, 2 * b + 1, self._bfs):
                return False
        return True

    # -- residual search --------------------------------------------------

    def _bfs(self, start: int, target: int) -> dict[int, int] | None:
        """Parent pointers of a breadth-first residual search, start mapped
        to itself, returned once target is reached; None if unreachable."""
        parent: dict[int, int] = {start: start}
        queue: deque[int] = deque((start,))
        cover = self.cover
        pinned = self.pinned
        while queue:
            u = queue.popleft()
            if u == _SNK:
                for b in self.req.optional_right:
                    v = 2 * b + 1
                    if b in cover and v not in parent:
                        parent[v] = u
                        if v == target:
                            return parent
                        queue.append(v)
            elif u % 2 == 0:  # left vertex
                a = u // 2
                for b in self.cand[a]:
                    v = 2 * b + 1
                    if v in parent or cover.get(b) == a:
                        continue
                    parent[v] = u
                    if v == target:
                        return parent
                    queue.append(v)
            else:  # right vertex
                b = u // 2
                # Exact for uncovered rights too (they go to the sink): an
                # uncovered right is never pinned, as pins stay in the witness.
                if b not in pinned:
                    a2 = cover.get(b)
                    v = _SNK if a2 is None else 2 * a2
                    if v not in parent:
                        parent[v] = u
                        if v == target:
                            return parent
                        queue.append(v)
        return None

    def _augment(
        self, start: int, target: int, search: Callable[[int, int], dict[int, int] | None]
    ) -> bool:
        """Reroute the witness along a start-target path found by ``search``,
        walked back from target: left->right sets ``cover[b] = a``,
        right->left deletes ``cover[b]``, sink arcs change nothing.  The walk
        must be last-first: a rerouted right leaves its old star before it
        joins the new one, so its delete comes before its write."""
        parent = search(start, target)
        if parent is None:
            return False
        v = target
        while v != start:
            u = parent[v]
            if u != _SNK and v != _SNK:  # _SNK is odd: test it before parity
                if u % 2 == 0:
                    self.cover[v // 2] = u // 2
                else:
                    del self.cover[u // 2]
            v = u
        return True

    def _meet(self, start: int, target: int) -> dict[int, int] | None:
        """The residual search of _bfs grown from both ends: forward from
        start along _bfs's arcs and backward from target along the same arcs
        reversed, each round expanding one whole level of the smaller
        frontier.  Where the halves meet, the backward half is spliced onto
        the parent pointers, so the result reads as _bfs's does; None if
        target is unreachable.

        Only ``_force`` calls it, after ``prepare`` has covered every
        required right, so the sink's predecessors, the uncovered rights,
        are exactly the uncovered optional rights."""
        cand = self.cand
        cover = self.cover
        pinned = self.pinned
        optional = self.req.optional_right
        parent = {start: start}
        child = {target: target}  # backward pointers, one step nearer target
        ahead, behind = [start], [target]
        while ahead and behind:
            level: list[int] = []
            if len(ahead) <= len(behind):
                for u in ahead:
                    if u == _SNK:
                        succ = [2 * b + 1 for b in optional if b in cover]
                    elif u % 2 == 0:
                        a = u // 2
                        succ = [2 * b + 1 for b in cand[a] if cover.get(b) != a]
                    elif u // 2 in pinned:
                        continue
                    else:
                        a2 = cover.get(u // 2)
                        succ = [_SNK if a2 is None else 2 * a2]
                    for v in succ:
                        if v not in parent:
                            parent[v] = u
                            if v in child:
                                return self._splice(parent, child, v)
                            level.append(v)
                ahead = level
            else:
                radj = self.req.graph.right_adjacency
                for v in behind:
                    if v == _SNK:
                        pred = [2 * b + 1 for b in optional if b not in cover]
                    elif v % 2 == 0:
                        a = v // 2
                        pred = [
                            2 * b + 1
                            for b in cand[a]
                            if cover.get(b) == a and b not in pinned
                        ]
                    else:
                        # Every left of b but its owner; the owner is b's
                        # successor, so it is already in child.
                        b = v // 2
                        pred = [2 * a for a in radj.get(b, ())]
                        if b in cover and b in optional:
                            pred.append(_SNK)
                    for u in pred:
                        if u not in child:
                            child[u] = v
                            if u in parent:
                                return self._splice(parent, child, u)
                            level.append(u)
                behind = level
        return None

    @staticmethod
    def _splice(parent: dict[int, int], child: dict[int, int], m: int) -> dict[int, int]:
        """Extend parent pointers from the meeting node m to the target."""
        n = child[m]
        while n != m:  # the target is its own child
            parent[n] = m
            m, n = n, child[n]
        return parent

    # -- canonicalization -------------------------------------------------

    def _force(self, a: int, b: int) -> bool:
        """Try to reroute the witness so edge (a, b) joins it: a residual
        path from 2b+1 to 2a, found by the two-ended ``_meet``, hands one of
        a's partners on and so frees a slot at a for b."""
        if not self._augment(2 * b + 1, 2 * a, self._meet):
            return False
        self.cover[b] = a
        return True

    def _process_left(self, a: int) -> None:
        """Pin the k least candidates of a that the witness can take."""
        row = self.pins[a] = []
        for b in self.cand[a]:
            if len(row) == self.k:
                break
            if b in self.pinned:
                continue
            if self.cover.get(b) == a or self._force(a, b):
                row.append(b)
                self.pinned.add(b)
                if b in self.req.required_right:
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
            # a right pivot is first pinned by the left just processed
            if stop.side is Side.RIGHT and stop.index in self.pinned:
                return a, tuple(self.pins[a])
        if stop is not None:
            if stop.side is Side.RIGHT and stop.index in self.req.optional_right:
                raise ValueError(f"optional pivot {stop!r} is left unmatched")
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
    equals the corresponding fragment of ``solve_harem(req)``.  Returns None
    if the request is infeasible.  Raises ValueError if the pivot is not a
    vertex of the request, or is an optional right the canonical matching
    leaves unmatched.
    """
    if pivot.side is Side.LEFT:
        known = pivot.index in req.required_left
    else:
        known = pivot.index in req.required_right or pivot.index in req.optional_right
    if not known:
        raise ValueError(f"pivot {pivot!r} is not a vertex of the request")
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
    # unreached[pos]: the required rights no row from lefts[pos] on reaches;
    # a branch that has not used them all yet cannot complete.
    unreached = [req.required_right]
    for a in reversed(lefts):
        unreached.append(unreached[-1] - set(g.adjacency[a]))
    unreached.reverse()

    def rec(pos: int, used: set[int], acc: list[tuple[int, tuple[int, ...]]]):
        if not unreached[pos] <= used:
            return
        if pos == len(lefts):
            yield HaremMatching(stars=dict(acc))
            return
        a = lefts[pos]
        avail = [b for b in g.adjacency[a] if b not in used]
        for star in itertools.combinations(avail, req.k):
            used.update(star)
            acc.append((a, star))
            yield from rec(pos + 1, used, acc)
            acc.pop()
            used.difference_update(star)

    return rec(0, set(), [])


def verify_matching(req: MatchingRequest, m: HaremMatching) -> MatchingReport:
    """Check a matching against a request; violations are data, not errors.
    Every left of the request and every left the star map lists needs
    exactly k partners, so a star keyed by a non-left always fails."""
    g = req.graph
    violations: list[MatchingViolation] = []
    coverage: dict[int, int] = {}
    for a, star in sorted(m.stars.items()):
        for b in star:
            if not g.has_edge(a, b):
                violations.append(MatchingViolation("non-edge", (a, b)))
            coverage[b] = coverage.get(b, 0) + 1
        if len(star) != req.k:
            violations.append(MatchingViolation("left-not-exactly-k", (a,)))
    for a in sorted(req.required_left - set(m.stars)):
        violations.append(MatchingViolation("left-not-exactly-k", (a,)))
    for b in sorted(req.required_right):
        if coverage.get(b, 0) != 1:
            violations.append(MatchingViolation("right-not-exactly-once", (b,)))
    for b, c in sorted(coverage.items()):
        if c > 1:
            violations.append(MatchingViolation("right-over-once", (b,)))
    return MatchingReport(tuple(violations))


# -- exhaustive condition checkers ---------------------------------------


def _left_neighborhood_masks(graph: FiniteBipartiteGraph) -> tuple[list[int], dict[int, int]]:
    rpos = {b: p for p, b in enumerate(graph.right_ids)}
    masks = []
    for a in graph.left_ids:
        mask = 0
        for b in graph.adjacency[a]:
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
