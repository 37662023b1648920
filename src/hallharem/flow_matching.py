"""Finite perfect-(1,k)-matching problems with required/optional coverage.

A request asks that every left vertex receive exactly k partners, and that
every right vertex be either required (covered exactly once) or optional
(covered at most once).  Solving searches a residual network of lefts,
rights and one sink by breadth-first augmentation: first every left gets
k partners, then paths reroute partners until every required right is
covered, and a greedy pass rewrites that witness to the canonical
(lexicographically least) star map so results are reproducible.  The
greedy pass tries each candidate edge in ascending order and keeps it if a
residual path frees a slot for it.  One search finds every path.  It
grows from both ends, because a forward search alone visits most of the
network on each try; a path to the sink grows forward only, as the sink's
backward frontier would be every uncovered right.

``check_hall_harem`` is an exhaustive subset-condition checker used as an
independent oracle in the test suite; ``brute_force_harem`` enumerates
every feasible matching outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core_graph import FiniteBipartiteGraph, Side, Vertex
from .errors import InternalError, SizeGuardError

_SNK = -1

BRUTE_MAX_LEFT = 6
BRUTE_MAX_RIGHT = 12
HALL_MAX_LEFT = 20


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
        # The graph's ids are unique, so a size check plus membership is
        # set equality, with no copy of the ids.
        lefts, rights = self.graph.left_ids, self.graph.right_ids
        required_left, required, optional = (
            self.required_left, self.required_right, self.optional_right
        )
        if len(required_left) != len(lefts) or not all(
            a in required_left for a in lefts
        ):
            raise ValueError("required_left must be every left id")
        if not required.isdisjoint(optional):
            raise ValueError("required_right and optional_right must be disjoint")
        if len(required) + len(optional) != len(rights) or not all(
            b in required or b in optional for b in rights
        ):
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

    ``prepare`` gives each left its first free candidates directly, and
    ``_meet`` finds every other path: from both ends, expanding the smaller
    frontier, except that a path to the sink (for the partners a left still
    lacks once its row has no free candidate) grows forward only.  Backward
    arcs read the graph's right adjacency, cached on the graph and built on
    the first backward step.
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
        That is the path the forward search from 2a would find for each: it
        queues every candidate before any deeper node, no right is pinned
        yet, and rights a already holds are no arc.  Phase 1 never uncovers
        a right, so only a left whose row runs out of free candidates needs
        a residual search for the partners it still lacks.  A row shorter
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
                if not self._augment(2 * a, _SNK):
                    return False
        for b in sorted(req.required_right):
            if b not in self.cover and not self._augment(_SNK, 2 * b + 1):
                return False
        return True

    # -- residual search --------------------------------------------------

    def _augment(self, start: int, target: int) -> bool:
        """Reroute the witness along a start-target path found by ``_meet``,
        walked back from target: left->right sets ``cover[b] = a``,
        right->left deletes ``cover[b]``, sink arcs change nothing.  The walk
        must be last-first: a rerouted right leaves its old star before it
        joins the new one, so its delete comes before its write."""
        parent = self._meet(start, target)
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
        """Parent pointers of a breadth-first residual search, start mapped
        to itself and returned once start and target are joined; None if
        target is unreachable.  The search grows forward from start and
        backward from target along the same arcs reversed, each round
        expanding one whole level of the smaller frontier; where the halves
        meet, the backward half is spliced onto the parent pointers.

        The sink's backward frontier would be every uncovered right, so a
        search for the sink (phase 1) grows forward only.  Phase 2 starts at
        the sink, so a backward step that reaches it splices at once.  Only
        ``_force`` may expand the sink backward, and it runs after
        ``prepare`` has covered every required right: the sink's
        predecessors, the uncovered rights, are then the uncovered optional
        rights."""
        cand = self.cand
        cover = self.cover
        pinned = self.pinned
        optional = self.req.optional_right
        parent = {start: start}
        child = {target: target}  # backward pointers, one step nearer target
        ahead, behind = [start], [target]
        while ahead and behind:
            level: list[int] = []
            if target == _SNK or len(ahead) <= len(behind):
                for u in ahead:
                    if u == _SNK:
                        for b in optional:
                            v = 2 * b + 1
                            if b in cover and v not in parent:
                                parent[v] = u
                                if v in child:
                                    return self._splice(parent, child, v)
                                level.append(v)
                    elif u % 2 == 0:  # left vertex
                        a = u // 2
                        for b in cand[a]:
                            v = 2 * b + 1
                            if v in parent or cover.get(b) == a:
                                continue
                            parent[v] = u
                            if v in child:
                                return self._splice(parent, child, v)
                            level.append(v)
                    # Exact for uncovered rights too (they go to the sink): an
                    # uncovered right is never pinned, as pins stay in the witness.
                    elif u // 2 not in pinned:
                        a2 = cover.get(u // 2)
                        v = _SNK if a2 is None else 2 * a2
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
                        # Every left of b but its owner, and the sink if b
                        # is optional.  b's successor (its owner, or the
                        # sink if b is uncovered) is already in child.
                        b = v // 2
                        pred = [2 * a for a in radj.get(b, ())]
                        if b in optional:
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
        if not self._augment(2 * b + 1, 2 * a):
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
    lefts, k, required = g.left_ids, req.k, req.required_right
    # unreached[pos]: the required rights no row from lefts[pos] on reaches.
    # A branch cannot complete while it leaves one of them unused, or more
    # required rights unused than the k new partners of each later left.
    unreached = [required]
    for a in reversed(lefts):
        unreached.append(unreached[-1] - set(g.adjacency[a]))
    unreached.reverse()

    def rec(pos: int, used: set[int], acc: list[tuple[int, tuple[int, ...]]]):
        if not unreached[pos] <= used or len(required - used) > k * (len(lefts) - pos):
            return
        if pos == len(lefts):
            yield HaremMatching(stars=dict(acc))
            return
        a = lefts[pos]
        avail = [b for b in g.adjacency[a] if b not in used]
        for star in itertools.combinations(avail, k):
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
            if b not in g.adjacency.get(a, ()):
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


def check_hall_harem(graph: FiniteBipartiteGraph, k: int) -> bool:
    """Exhaustive Hall condition: |N(X)| >= k|X| for all nonempty left X and
    |N(Y)| >= |Y|/k for all nonempty right Y (exact arithmetic).

    One table decides both: inside[S] counts the rights whose whole
    neighbourhood lies in the left subset S.  The rights inside S = N(Y) are
    the largest right set that S serves, so the right condition is
    inside[S] <= k|S| for every S.  N(X) misses exactly the rights inside
    the complement of X, so the left condition is |R| - inside[L-X] >= k|X|.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(graph.left_ids)
    if m > HALL_MAX_LEFT:
        raise SizeGuardError(f"subset checks capped at {HALL_MAX_LEFT} lefts, got {m}")
    masks = dict.fromkeys(graph.right_ids, 0)
    for p, a in enumerate(graph.left_ids):
        for b in graph.adjacency[a]:
            masks[b] |= 1 << p
    full = (1 << m) - 1
    inside = [0] * (full + 1)
    for mask in masks.values():
        inside[mask] += 1
    for bit in range(m):
        step = 1 << bit
        for s in range(full + 1):
            if s & step:
                inside[s] += inside[s ^ step]
    return all(
        inside[s] <= k * s.bit_count()
        and len(masks) - inside[s] >= k * (full ^ s).bit_count()
        for s in range(full + 1)
    )
