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
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .core_graph import FiniteBipartiteGraph, Side, Vertex
from .errors import InternalError, SizeGuardError

_SNK = -1
# Rights keep their ids as slots while the largest id is below this multiple
# of their number (F2 balls read 4.0, finite graphs 1.0).
_DENSE = 8

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
    """A residual network of lefts, rights and one sink on flat lists, plus
    the canonicalizing greedy pass.

    A left is its position p in ``left_ids``.  A right is a slot: its id
    while the largest right id is below ``_DENSE`` times the number of
    rights, so the graph's rows serve as they are, and else its position in
    ``right_ids``, the rows renumbered once.  A search node is p, nl + s for
    the right in slot s, or ``_SNK``, the last entry of a per-node list.

    A left may take a candidate outside its star, a right may leave the
    star that holds it or, held by none, reach the sink, and the sink may
    drop any matched optional right.  The witness (``cover``, slot -> left,
    -1 for none) is some feasible matching, rerouted in place along
    residual paths; ``pins`` accumulate the canonical answer and are never
    undone.  A pinned edge never leaves the witness, so a right in
    ``pinned`` is held by ``cover`` and the search may not take it away.
    Every sink arc is read from ``cover`` and the optional rights.

    ``prepare`` gives each left its first free candidates directly, and
    ``_meet`` finds every other path: from both ends, expanding the smaller
    frontier, except that a path to the sink (for the partners a left still
    lacks once its row has no free candidate) grows forward only.  A solve
    that needs no search builds neither the search marks nor the right rows
    that backward arcs read.
    """

    def __init__(self, req: MatchingRequest):
        self.req = req
        self.k = req.k
        g = req.graph
        self.lefts, rights = g.left_ids, g.right_ids
        self.nl = len(self.lefts)
        self.need_right = len(req.required_right)
        if not rights or rights[-1] < _DENSE * len(rights):
            self.rights = None  # a right's slot is its id
            self.cand = [g.adjacency[a] for a in self.lefts]
            self.required, self.optional = req.required_right, req.optional_right
            n = rights[-1] + 1 if rights else 0
        else:
            self.rights = rights
            slot = {b: s for s, b in enumerate(rights)}
            self.cand = [tuple([slot[b] for b in g.adjacency[a]]) for a in self.lefts]
            self.required = [slot[b] for b in req.required_right]
            self.optional = frozenset([slot[b] for b in req.optional_right])
            n = len(rights)
        self.cover = array("i", [-1]) * n
        self.pinned = bytearray(n)
        self.pins: list[list[int]] = []
        self.fwd: list[int] | None = None
        self.radj: list[list[int]] | None = None
        self.stamp = 0

    # -- feasibility ------------------------------------------------------

    def prepare(self) -> bool:
        """A count test, then a witness: every left gets k partners, then
        paths from the sink cover each required right; False if either
        fails.  The flow value stays k per left from then on: every later
        path takes one partner from each left it passes and gives it another.

        A left first takes its uncovered candidates in row order, up to k.
        That is the path the forward search from p would find for each: it
        queues every candidate before any deeper node, no right is pinned
        yet, and rights p already holds are no arc.  Phase 1 never uncovers
        a right, so only a left whose row runs out of free candidates needs
        a residual search for the partners it still lacks.  A row shorter
        than k fails at once; a required right no row lists, in phase 2."""
        if self.need_right > self.k * self.nl:
            return False
        k, cover = self.k, self.cover
        for p, row in enumerate(self.cand):
            if len(row) < k:
                return False
            got = 0
            for b in row:
                if got == k:
                    break
                if cover[b] < 0:
                    cover[b] = p
                    got += 1
            # A path from p adds one edge at p and never re-enters p.
            for _ in range(k - got):
                if not self._augment(p, _SNK):
                    return False
        for b in sorted(self.required):
            if cover[b] < 0 and not self._augment(_SNK, self.nl + b):
                return False
        return True

    # -- residual search --------------------------------------------------

    def _augment(self, start: int, target: int) -> bool:
        """Reroute the witness along a start-target path found by ``_meet``:
        splice the backward half onto the parent pointers, then walk back
        from target: left->right sets ``cover[b] = p``, right->left clears
        ``cover[b]``, sink arcs change nothing.  The walk must be last-first:
        a rerouted right leaves its old star before it joins the new one, so
        its clear comes before its write."""
        m = self._meet(start, target)
        if m is None:
            return False
        parent, child, cover, nl = self.parent, self.child, self.cover, self.nl
        n = child[m]
        while n != m:  # the target is its own child
            parent[n] = m
            m, n = n, child[n]
        v = target
        while v != start:
            u = parent[v]
            if u != _SNK and v != _SNK:  # _SNK is below nl: test it first
                if u < nl:
                    cover[v - nl] = u
                else:
                    cover[u - nl] = -1
            v = u
        return True

    def _marks(self) -> None:
        """Every search's per-node lists: a node is in the forward (backward)
        half when its ``fwd`` (``bwd``) stamp is the search's."""
        n = self.nl + len(self.cover) + 1
        self.fwd, self.bwd = [0] * n, [0] * n
        self.parent, self.child = [0] * n, [0] * n

    def _right_rows(self) -> list[list[int]]:
        """Each slot's lefts in ascending order, then the sink if the right
        is optional: the tails of the arcs into that right's node."""
        radj: list[list[int]] = [[] for _ in self.cover]
        for p, row in enumerate(self.cand):
            for b in row:
                radj[b].append(p)
        for b in self.optional:
            radj[b].append(_SNK)
        self.radj = radj
        return radj

    def _meet(self, start: int, target: int) -> int | None:
        """A breadth-first residual search from start to target; returns the
        node where its halves meet, or None if target is unreachable.  The
        search grows forward from start and backward from target along the
        same arcs reversed, each round expanding one whole level of the
        smaller frontier.  ``parent`` leads from the meeting node back to
        start and ``child`` on to target.

        The sink's backward frontier would be every uncovered right, so a
        search for the sink (phase 1) grows forward only.  Phase 2 starts at
        the sink, so a backward step that reaches it meets at once.  Only
        ``_force`` may expand the sink backward, and it runs after
        ``prepare`` has covered every required right: the sink's
        predecessors, the uncovered rights, are then the uncovered optional
        rights."""
        if self.fwd is None:
            self._marks()
        self.stamp = t = self.stamp + 1
        fwd, bwd, parent, child = self.fwd, self.bwd, self.parent, self.child
        nl, cand, cover, pinned = self.nl, self.cand, self.cover, self.pinned
        optional = self.optional
        fwd[start] = bwd[target] = t
        parent[start], child[target] = start, target
        ahead, behind = [start], [target]
        while ahead and behind:
            level: list[int] = []
            if target == _SNK or len(ahead) <= len(behind):
                for u in ahead:
                    if u == _SNK:
                        for b in optional:
                            v = nl + b
                            if cover[b] >= 0 and fwd[v] != t:
                                fwd[v] = t
                                parent[v] = u
                                if bwd[v] == t:
                                    return v
                                level.append(v)
                    elif u < nl:  # left vertex
                        for b in cand[u]:
                            v = nl + b
                            if fwd[v] == t or cover[b] == u:
                                continue
                            fwd[v] = t
                            parent[v] = u
                            if bwd[v] == t:
                                return v
                            level.append(v)
                    # Exact for uncovered rights too: cover reads -1, the
                    # sink.  An uncovered right is never pinned, as pins stay
                    # in the witness.
                    elif not pinned[u - nl]:
                        v = cover[u - nl]
                        if fwd[v] != t:
                            fwd[v] = t
                            parent[v] = u
                            if bwd[v] == t:
                                return v
                            level.append(v)
                ahead = level
            else:
                radj = self.radj if self.radj is not None else self._right_rows()
                for v in behind:
                    if v == _SNK:
                        for b in optional:
                            u = nl + b
                            if cover[b] < 0 and bwd[u] != t:
                                bwd[u] = t
                                child[u] = v
                                if fwd[u] == t:
                                    return u
                                level.append(u)
                    elif v < nl:
                        for b in cand[v]:
                            u = nl + b
                            if cover[b] != v or pinned[b] or bwd[u] == t:
                                continue
                            bwd[u] = t
                            child[u] = v
                            if fwd[u] == t:
                                return u
                            level.append(u)
                    else:
                        # Every left of the right but its owner, and the sink
                        # if it is optional: its successor (its owner, or the
                        # sink if uncovered) is already in the backward half.
                        for u in radj[v - nl]:
                            if bwd[u] != t:
                                bwd[u] = t
                                child[u] = v
                                if fwd[u] == t:
                                    return u
                                level.append(u)
                behind = level
        return None

    # -- canonicalization -------------------------------------------------

    def _force(self, p: int, b: int) -> bool:
        """Try to reroute the witness so edge (p, b) joins it: a residual
        path from b's node to p, found by the two-ended ``_meet``, hands one
        of p's partners on and so frees a slot at p for b."""
        if not self._augment(self.nl + b, p):
            return False
        self.cover[b] = p
        return True

    def _process_left(self, p: int) -> None:
        """Pin the k least candidates of p that the witness can take."""
        row: list[int] = []
        self.pins.append(row)
        k, cover, pinned = self.k, self.cover, self.pinned
        for b in self.cand[p]:
            if len(row) == k:
                break
            if pinned[b]:
                continue
            if cover[b] == p or self._force(p, b):
                row.append(b)
                pinned[b] = 1
                if b not in self.optional:
                    self.need_right -= 1
        if len(row) != k:
            raise InternalError(f"left {self.lefts[p]} ended under-matched")

    def _star(self, p: int) -> tuple[int, tuple[int, ...]]:
        """Left p's pinned star in the request's ids."""
        row, rights = self.pins[p], self.rights
        return self.lefts[p], tuple(row if rights is None else [rights[b] for b in row])

    def greedy(self, stop: Vertex | None) -> tuple[int, tuple[int, ...]] | None:
        """Run the canonical pass; with ``stop`` set, halt as soon as the
        star relevant to that pivot is fully decided and return it."""
        right_stop = stop is not None and stop.side is Side.RIGHT
        if right_stop:
            s = stop.index if self.rights is None else bisect_left(self.rights, stop.index)
        for p in range(self.nl):
            self._process_left(p)
            if stop is None:
                continue
            # a right pivot is first pinned by the left just processed
            if self.pinned[s] if right_stop else self.lefts[p] == stop.index:
                return self._star(p)
        if stop is not None:
            if right_stop and stop.index in self.req.optional_right:
                raise ValueError(f"optional pivot {stop!r} is left unmatched")
            raise InternalError(f"pivot {stop!r} never matched by the greedy pass")
        if self.need_right != 0:
            raise InternalError("greedy pass ended with unmet requirements")
        return None

    def matching(self) -> HaremMatching:
        return HaremMatching(stars=dict(map(self._star, range(self.nl))))


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
