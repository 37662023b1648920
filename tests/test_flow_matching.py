import hashlib
import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallharem.core_graph import FiniteBipartiteGraph, Side, Vertex
from hallharem.decomposition import ParadoxDecomp, tight_spec
from hallharem.errors import SizeGuardError
from hallharem.flow_matching import (
    _SNK,
    HaremMatching,
    MatchingRequest,
    _Solver,
    brute_force_harem,
    check_hall_harem,
    solve_harem,
    solve_star,
    verify_matching,
)


def graph(adj, nr=None):
    return FiniteBipartiteGraph.from_adjacency(
        adj, right_ids=None if nr is None else range(nr)
    )


def k12():
    return graph({0: (0, 1)})


def naive_hall(g, k):
    """Direct subset scan, the independent oracle for the bitmask version."""
    for size in range(1, len(g.left_ids) + 1):
        for xs in itertools.combinations(g.left_ids, size):
            n = set()
            for a in xs:
                n.update(g.adjacency.get(a, ()))
            if len(n) < k * size:
                return False
    for size in range(1, len(g.right_ids) + 1):
        for ys in itertools.combinations(g.right_ids, size):
            n = set()
            for b in ys:
                n.update(g.right_adjacency.get(b, ()))
            if k * len(n) < size:
                return False
    return True


# -- solve_harem -------------------------------------------------------------


def test_k12_unique_matching():
    m = solve_harem(MatchingRequest.all_required(k12(), 2))
    assert m.stars == {0: (0, 1)}


def test_pigeonhole_infeasible():
    g = graph({0: (0,), 1: (0,)})
    assert solve_harem(MatchingRequest.all_required(g, 1)) is None


def test_k24_canonical_matching():
    g = graph({0: (0, 1, 2, 3), 1: (0, 1, 2, 3)})
    req = MatchingRequest.all_required(g, 2)
    assert solve_harem(req).stars == {0: (0, 1), 1: (2, 3)}


def test_solve_deterministic():
    g = graph({0: (0, 2, 3), 1: (1, 2, 3), 2: (0, 1, 4, 5)})
    req = MatchingRequest.all_required(g, 2)
    assert solve_harem(req).stars == solve_harem(req).stars


def _optional_request(adj, k, optional):
    g = graph(adj)
    optional = frozenset(optional)
    return MatchingRequest(
        g, k, frozenset(g.left_ids), frozenset(g.right_ids) - optional, optional
    )


def test_solve_star_matches_full_solve():
    for req in (
        MatchingRequest.all_required(
            graph({0: (0, 1, 2), 1: (1, 2, 3), 2: (2, 3, 4, 5)}), 2
        ),
        # optional R0 is matched, optional R6 is not
        _optional_request({0: (0, 1, 2), 1: (1, 2, 3), 2: (2, 3, 4, 5, 6)}, 2, {0, 6}),
    ):
        full = solve_harem(req)
        for a in req.graph.left_ids:
            assert solve_star(req, Vertex(Side.LEFT, a)) == (a, full.stars[a])
        for a, star in full.stars.items():
            for b in star:
                assert solve_star(req, Vertex(Side.RIGHT, b)) == (a, star)


@pytest.mark.parametrize(
    "req, pivot, message",
    [
        # optional R1 is a vertex, but the canonical matching leaves it out
        (_optional_request({0: (0, 1)}, 1, {1}), Vertex(Side.RIGHT, 1), "R1"),
        (_optional_request({0: (0, 1)}, 1, {1}), Vertex(Side.LEFT, 7), "L7"),
        (_optional_request({0: (0, 1)}, 1, {1}), Vertex(Side.RIGHT, 9), "R9"),
        # rejected before solving, so an infeasible request still raises
        (
            MatchingRequest.all_required(graph({0: (0,), 1: (0,)}), 1),
            Vertex(Side.LEFT, 7),
            "L7",
        ),
    ],
    ids=["unmatched-optional", "unknown-left", "unknown-right", "unknown-infeasible"],
)
def test_solve_star_rejects_pivot(req, pivot, message):
    with pytest.raises(ValueError, match=message):
        solve_star(req, pivot)


def test_request_validation():
    g = k12()
    lefts, rights = frozenset({0}), frozenset({0, 1})
    every_left = "required_left must be every left id"
    every_right = "required_right and optional_right must together be every right id"
    with pytest.raises(ValueError, match="k must be >= 1"):
        MatchingRequest(g, 0, lefts, rights, frozenset())
    with pytest.raises(ValueError, match=every_left):
        MatchingRequest(g, 1, frozenset({9}), rights, frozenset())
    with pytest.raises(ValueError, match="required_right and optional_right must be disjoint"):
        MatchingRequest(g, 1, lefts, rights, frozenset({0}))
    # every left is required
    g2 = graph({0: (0, 1), 1: (1,)})
    with pytest.raises(ValueError, match=every_left):
        MatchingRequest(g2, 1, lefts, rights, frozenset())
    # every right is required or optional
    with pytest.raises(ValueError, match=every_right):
        MatchingRequest(g, 1, lefts, frozenset({0}), frozenset())
    # and no other id is
    with pytest.raises(ValueError, match=every_left):
        MatchingRequest(g, 1, frozenset({0, 9}), rights, frozenset())
    with pytest.raises(ValueError, match=every_right):
        MatchingRequest(g, 1, lefts, frozenset({0, 1, 9}), frozenset())


# -- brute force -------------------------------------------------------------


def test_brute_k12():
    ms = list(brute_force_harem(MatchingRequest.all_required(k12(), 2)))
    assert [m.stars for m in ms] == [{0: (0, 1)}]


def test_brute_k24_count():
    g = graph({0: (0, 1, 2, 3), 1: (0, 1, 2, 3)})
    ms = list(brute_force_harem(MatchingRequest.all_required(g, 2)))
    assert len(ms) == 6  # C(4, 2) ways to pick the first star


def test_brute_infeasible_empty():
    g = graph({0: (0,), 1: (0,)})
    assert list(brute_force_harem(MatchingRequest.all_required(g, 1))) == []


def test_brute_guard():
    g = graph({a: tuple(range(13)) for a in range(7)})
    with pytest.raises(SizeGuardError):
        list(brute_force_harem(MatchingRequest.all_required(g, 1)))


def test_brute_yields_in_lex_order():
    g = graph({0: (0, 1, 2), 1: (0, 1, 2)})
    req = MatchingRequest(
        g, 1, frozenset({0, 1}), frozenset(), frozenset({0, 1, 2})
    )
    keys = [tuple(m.stars.get(a, ()) for a in g.left_ids) for m in brute_force_harem(req)]
    assert keys == sorted(keys)


# -- oracle equivalence -------------------------------------------------------


def test_exhaustive_2x4_equivalence():
    rights = (0, 1, 2, 3)
    rows = [tuple(j for j in rights if (v >> j) & 1) for v in range(16)]
    for v0, v1, k in itertools.product(range(16), range(16), (1, 2)):
        g = FiniteBipartiteGraph((0, 1), rights, {0: rows[v0], 1: rows[v1]})
        req = MatchingRequest.all_required(g, k)
        got = solve_harem(req)
        first = next(iter(brute_force_harem(req)), None)
        assert (got is None) == (first is None)
        if got is not None:
            assert got.stars == first.stars


@st.composite
def requests(draw):
    nl = draw(st.integers(1, 3))
    nr = draw(st.integers(1, 6))
    adj = {
        a: tuple(sorted(draw(st.frozensets(st.integers(0, nr - 1), max_size=nr))))
        for a in range(nl)
    }
    g = FiniteBipartiteGraph(tuple(range(nl)), tuple(range(nr)), adj)
    k = draw(st.integers(1, 2))
    optional = draw(st.frozensets(st.integers(0, nr - 1), max_size=nr))
    return MatchingRequest(
        g, k, frozenset(g.left_ids), frozenset(g.right_ids) - optional, optional
    )


@given(requests())
@settings(max_examples=120, deadline=None)
def test_solver_agrees_with_brute_force(req):
    got = solve_harem(req)
    first = next(iter(brute_force_harem(req)), None)
    assert (got is None) == (first is None)
    if got is not None:
        assert got.stars == first.stars
        assert verify_matching(req, got).ok


def naive_enumeration(req):
    """Every feasible star map in lexicographic order: the product of each
    left's k-subsets of its row, kept when no right is used twice and every
    required right is used."""
    g = req.graph
    rows = (itertools.combinations(g.adjacency[a], req.k) for a in g.left_ids)
    for stars in itertools.product(*rows):
        used = [b for star in stars for b in star]
        if len(used) == len(set(used)) and req.required_right <= set(used):
            yield dict(zip(g.left_ids, stars))


@given(requests())
@settings(max_examples=120, deadline=None)
def test_brute_force_enumerates_every_matching_in_order(req):
    assert [m.stars for m in brute_force_harem(req)] == list(naive_enumeration(req))


# -- beyond brute-force sizes ----------------------------------------------------


def shell_request(rng, n_left, k, degree, n_shell, p_optional, planted=True):
    """k*n_left rights plus an optional shell of n_shell more, each of the
    others optional with probability p_optional.  A planted instance hides
    a perfect matching among its rows; an unplanted one has no isolated
    right, so a degree count cannot settle it.  Raises ValueError when
    ``degree`` exceeds the number of rights, as no row could reach it."""
    n_right = k * n_left + n_shell
    if degree > n_right:
        raise ValueError(f"degree {degree} exceeds the {n_right} rights")
    rights = list(range(n_right))
    rng.shuffle(rights)
    adj = {}
    for a in range(n_left):
        row = set(rights[k * a : k * a + k]) if planted else set()
        while len(row) < degree:
            row.add(rng.randrange(n_right))
        adj[a] = row
    if not planted:
        covered = set().union(*adj.values())
        for b in range(n_right):
            if b not in covered:
                adj[rng.randrange(n_left)].add(b)
    optional = frozenset(rights[k * n_left :]) | frozenset(
        b for b in rights[: k * n_left] if rng.random() < p_optional
    )
    g = FiniteBipartiteGraph(
        tuple(range(n_left)),
        tuple(range(n_right)),
        {a: tuple(sorted(row)) for a, row in adj.items()},
    )
    return MatchingRequest(
        g, k, frozenset(g.left_ids), frozenset(g.right_ids) - optional, optional
    )


def test_shell_request_rejects_unreachable_degree():
    # 2 lefts at k=1 plus 1 shell right make 3 rights: degree 4 is unreachable
    with pytest.raises(ValueError, match="degree 4 exceeds the 3 rights"):
        shell_request(random.Random(0), 2, 1, 4, 1, 0.0)
    assert len(shell_request(random.Random(0), 2, 1, 3, 1, 0.0).graph.right_ids) == 3


def networkx_feasible(nx, req, forced=frozenset(), rows=None):
    """Feasibility by max-flow with lower bounds: s -> left [k, k], left ->
    right [0, 1] ([1, 1] if the edge is forced), right -> t [1, 1] if
    required else [0, 1], t -> s unbounded; the lower bounds are moved to a
    super source and sink.  ``rows`` restricts the candidates of some lefts."""
    rows = rows or {}
    edges = [("t", "s", 0, req.k * len(req.graph.left_ids))]
    for a in req.graph.left_ids:
        edges.append(("s", ("L", a), req.k, req.k))
        for b in rows.get(a, req.graph.adjacency.get(a, ())):
            edges.append((("L", a), ("R", b), int((a, b) in forced), 1))
    for b in req.graph.right_ids:
        edges.append((("R", b), "t", int(b in req.required_right), 1))
    net = nx.DiGraph()
    excess = defaultdict(int)
    for u, v, lo, hi in edges:
        net.add_edge(u, v, capacity=hi - lo)
        excess[v] += lo
        excess[u] -= lo
    for x, e in excess.items():
        if e > 0:
            net.add_edge("S*", x, capacity=e)
        elif e < 0:
            net.add_edge(x, "T*", capacity=-e)
    need = sum(e for e in excess.values() if e > 0)
    return nx.maximum_flow_value(net, "S*", "T*") == need


def test_feasibility_agrees_with_networkx_max_flow():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    outcomes = set()
    for i in range(40):
        planted = i % 2 == 0
        n_left, k = rng.randint(100, 300), rng.randint(1, 3)
        degree = k + (rng.randint(0, 3) if planted else rng.randint(1, 6))
        p_optional = rng.random() * (0.5 if planted else 0.9)
        req = shell_request(
            rng, n_left, k, degree, rng.randint(0, n_left), p_optional, planted
        )
        got = solve_harem(req)
        assert (got is not None) == networkx_feasible(nx, req), i
        if got is not None:
            assert verify_matching(req, got).ok
        outcomes.add((planted, got is not None))
    # planted instances are feasible; unplanted ones go both ways
    assert outcomes == {(True, True), (False, True), (False, False)}


def networkx_lex_least(nx, req):
    """The lex-least star map, fixed left by left with max-flow alone: each
    candidate, in ascending order, is kept if the network stays feasible
    with it forced and dropped from its left's row otherwise."""
    if not networkx_feasible(nx, req):
        return None
    forced, rows = set(), {}
    for a in req.graph.left_ids:
        row = rows[a] = list(req.graph.adjacency[a])
        kept = 0
        for b in tuple(row):
            if kept < req.k and networkx_feasible(nx, req, forced | {(a, b)}, rows):
                forced.add((a, b))
                kept += 1
            else:
                row.remove(b)
    return {a: tuple(row) for a, row in rows.items()}


def test_canonical_star_map_agrees_with_networkx():
    # An independent check of lex-leastness past brute-force sizes.
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    outcomes = set()
    for i in range(8):
        planted = i % 2 == 0
        n_left, k = rng.randint(15, 30), rng.randint(1, 3)
        degree = k + rng.randint(1, 3 if planted else 5)
        req = shell_request(
            rng, n_left, k, degree, rng.randint(1, n_left), rng.random() * 0.5, planted
        )
        got = solve_harem(req)
        assert (got and got.stars) == networkx_lex_least(nx, req), i
        outcomes.add((planted, got is not None))
    assert outcomes == {(True, True), (False, True), (False, False)}


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize(
    "n_left, k, degree, n_shell, p_optional, seed, stars_sha, pivots_sha",
    [
        (300, 2, 6, 200, 0.0, 1,
         "368a1542adfd65ec5374a204cc1422cbfbb2f0f52d13c89a487ad3ad6b53af9a",
         "ffdd63b0d4804c0bcee311646970379d9c857556f5eee8c3fe30658dde975fe9"),
        (300, 1, 4, 100, 0.1, 2,
         "ea5fd6ac48970e113b5a9004763b155ab74bde1f323206a524e3f78428ed5b54",
         "ecc12ac728a9b080fa0646e2addfb8074cabecfe910d0a6504576e2d60d1ea56"),
        (200, 3, 7, 150, 0.05, 3,
         "596e6397a3405c0613c86f2ebc3cf7a4e5fa3d2a90675f761697326ac4d64a53",
         "d90b393ec07bb91be78e53581a4d75ea122d7f3184d22932cd04ddf4abd97f86"),
        # 3000 lefts, where each _force must not search the whole network
        (3000, 2, 6, 150, 0.02, 4,
         "7e1ed45461442758a7d18929172ff710a1632438cd13bdf546e42e5fc2333097",
         "27d338fdbf8f51c1fd50afe662ab9f1f9ac237e13c5ced3845c78cc7f356212c"),
    ],
)
def test_canonical_star_map_pinned(
    n_left, k, degree, n_shell, p_optional, seed, stars_sha, pivots_sha
):
    # Digests of the canonical answer on instances far past brute force,
    # so a change to the canonical pass cannot drift unnoticed.
    req = shell_request(random.Random(seed), n_left, k, degree, n_shell, p_optional)
    assert digest(sorted(solve_harem(req).stars.items())) == stars_sha
    required = sorted(req.required_right)
    pivots = [Vertex(Side.LEFT, a) for a in (0, n_left // 3, n_left - 1)] + [
        Vertex(Side.RIGHT, b) for b in required[:: len(required) // 3]
    ]
    assert digest([solve_star(req, v) for v in pivots]) == pivots_sha


def residual_reach(req, cover, pinned, start):
    """Every node reachable from start in the residual network of the
    witness ``cover`` (right -> left), built from the arc definitions alone:
    a left reaches each candidate it does not hold, an unpinned right its
    owner or, uncovered, the sink, and the sink each covered optional
    right.  Nodes are ("L", a), ("R", b) and "sink"."""

    def arcs(node):
        if node == "sink":
            return [("R", b) for b in req.optional_right if b in cover]
        side, x = node
        if side == "L":
            return [("R", b) for b in req.graph.adjacency[x] if cover.get(b) != x]
        if x in pinned:
            return []
        return [("L", cover[x]) if x in cover else "sink"]

    seen, todo = {start}, [start]
    while todo:
        for v in arcs(todo.pop()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen, arcs


def right_id(solver, s):
    """The request's id of the right in slot s."""
    return s if solver.rights is None else solver.rights[s]


def node_name(solver, u):
    """The reference's name for a solver node: a left's position, nl plus a
    right's slot, or _SNK."""
    if u == _SNK:
        return "sink"
    if u < solver.nl:
        return ("L", solver.lefts[u])
    return ("R", right_id(solver, u - solver.nl))


def witness(solver):
    """The solver's witness in the request's ids: right -> left, and the
    pinned rights."""
    cover = {
        right_id(solver, s): solver.lefts[p] for s, p in enumerate(solver.cover) if p >= 0
    }
    return cover, {right_id(solver, s) for s, x in enumerate(solver.pinned) if x}


def trail(solver, start, target, arc):
    """The nodes of the path ``_meet`` found, start to target: ``link`` back
    from u to start, the meeting arc (u, v), then ``link`` on from v to
    target.  A walk longer than the node count fails, as ``link`` then
    holds a cycle."""
    n = len(solver.link)
    halves = []
    for node, end in zip(arc, (start, target)):
        half = [node]
        while half[-1] != end:
            assert len(half) <= n
            half.append(solver.link[half[-1]])
        halves.append(half)
    return halves[0][::-1] + halves[1]


class _CheckedSolver(_Solver):
    """Checks every residual search against ``residual_reach``: the search
    returns None exactly when the reference finds no path, and otherwise
    the path it leaves is simple, its forward half (``link`` back from u to
    start) is stamped forward, its backward half (``link`` on from v to
    target) is stamped backward and no node both, and every arc of it, the
    meeting arc (u, v) included, is a residual arc of the witness as it was
    before the search.  Records each search's kind and answer, and counts
    the ``_force`` searches that took a forward and a backward step out of
    the sink."""

    def __init__(self, req):
        super().__init__(req)
        self.answers = []
        self.sink_steps = [0, 0]

    def kind(self, start):
        return "phase 2" if start == _SNK else "phase 1" if start < self.nl else "force"

    def _meet(self, start, target):
        kind = self.kind(start)
        cover, pinned = witness(self)
        reach, arcs = residual_reach(self.req, cover, pinned, node_name(self, start))
        m = super()._meet(start, target)
        assert (m is not None) == (node_name(self, target) in reach)
        self.answers.append((kind, m is not None))
        if m is None:
            return m
        path, t = trail(self, start, target, m), self.stamp
        assert len(set(path)) == len(path)
        cut = path.index(m[1])
        assert all(self.fwd[x] == t != self.bwd[x] for x in path[:cut])
        assert all(self.bwd[x] == t != self.fwd[x] for x in path[cut:])
        for tail, head in zip(path, path[1:]):
            assert node_name(self, head) in arcs(node_name(self, tail))
        if kind == "force":
            # Only a forward step out of the sink links a forward node back
            # to it, only a backward one links a backward node on to it.
            nodes = range(len(self.fwd))
            self.sink_steps[0] += any(self.fwd[x] == t and self.link[x] == _SNK for x in nodes)
            self.sink_steps[1] += any(self.bwd[x] == t and self.link[x] == _SNK for x in nodes)
        return m


def test_two_ended_search_agrees_with_forward_bfs():
    rng = random.Random(31)
    answers, sink_steps = set(), [0, 0]
    for i in range(150):
        n_left, k = rng.randint(5, 60), rng.randint(1, 3)
        req = shell_request(
            rng, n_left, k, k + rng.randint(1, 4), rng.randint(1, n_left),
            rng.random() * 0.5, planted=i % 3 != 0,
        )
        solver = _CheckedSolver(req)
        if solver.prepare():
            solver.greedy(None)
            assert solver.matching() == solve_harem(req)
        answers.update(solver.answers)
        sink_steps = [x + y for x, y in zip(sink_steps, solver.sink_steps)]
    assert {kind for kind, _ in answers} == {"phase 1", "phase 2", "force"}
    assert {found for kind, found in answers if kind == "force"} == {True, False}
    assert min(sink_steps) > 0, sink_steps


class _LastFirstSolver(_Solver):
    """``_augment`` with the former edit rule along the path ``_meet``
    found: walked last-first from target, a left->right arc sets
    ``cover[b] = p``, a right->left arc clears ``cover[b]`` and a sink arc
    changes nothing.  Counts the arcs of each kind, and the paths that pass
    through the sink."""

    def __init__(self, req):
        super().__init__(req)
        self.edits = defaultdict(int)

    def _augment(self, start, target):
        m = self._meet(start, target)
        if m is None:
            return False
        path = trail(self, start, target, m)
        self.edits["through the sink"] += _SNK in path[1:-1]
        for u, v in reversed(list(zip(path, path[1:]))):
            if u == _SNK or v == _SNK:
                self.edits["sink"] += 1
            elif u < self.nl:
                self.cover[v - self.nl] = u
                self.edits["add"] += 1
            else:
                self.cover[u - self.nl] = -1
                self.edits["remove"] += 1
        return True


def test_predecessor_rule_matches_last_first_edits():
    rng = random.Random(27)
    edits = defaultdict(int)
    for i in range(150):
        n_left, k = rng.randint(5, 60), rng.randint(1, 3)
        req = shell_request(
            rng, n_left, k, k + rng.randint(0, 4), rng.randint(1, n_left),
            rng.random() * 0.5, planted=i % 3 != 0,
        )
        if i % 4 == 0:
            req, _ = renamed_rights(req)
        new, ref = _Solver(req), _LastFirstSolver(req)
        feasible = new.prepare()
        assert feasible == ref.prepare(), i
        assert new.cover == ref.cover, i  # slot by slot
        if feasible:
            new.greedy(None)
            ref.greedy(None)
            assert (new.cover, new.pins) == (ref.cover, ref.pins), i
        for kind, n in ref.edits.items():
            edits[kind] += n
    assert min(edits[kind] for kind in ("add", "remove", "sink", "through the sink")) > 0, edits


class _SearchPerPartnerSolver(_Solver):
    """``prepare`` with its former phase 1: one residual search from each
    left for each of its k partners."""

    def prepare(self):
        if len(self.req.required_right) > self.k * self.nl:
            return False
        if any(len(row) < self.k for row in self.cand):
            return False
        unreached = set(self.required)
        for row in self.cand:
            unreached.difference_update(row)
        if unreached:
            return False
        for p in range(self.nl):
            for _ in range(self.k):
                if not self._augment(p, _SNK):
                    return False
        for b in sorted(self.required):
            if self.cover[b] < 0 and not self._augment(_SNK, self.nl + b):
                return False
        return True


class _CountedSolver(_Solver):
    """Counts the residual searches that start at a left."""

    left_searches = 0

    def _meet(self, start, target):
        self.left_searches += 0 <= start < self.nl  # the sink is -1
        return super()._meet(start, target)


def test_first_free_phase_one_keeps_witness():
    rng = random.Random(8)
    outcomes, fallbacks = set(), 0
    for i in range(150):
        n_left, k = rng.randint(5, 60), rng.randint(1, 3)
        req = shell_request(
            rng, n_left, k, k + rng.randint(0, 4), rng.randint(1, n_left),
            rng.random() * 0.5, planted=i % 3 != 0,
        )
        new, old = _CountedSolver(req), _SearchPerPartnerSolver(req)
        feasible = new.prepare()
        assert feasible == old.prepare(), i
        assert new.cover == old.cover, i  # slot by slot
        outcomes.add(feasible)
        # lefts whose rows ran out of free candidates searched for the rest
        fallbacks += new.left_searches
        if feasible:
            new.greedy(None)
            old.greedy(None)
            assert new.matching() == old.matching() == solve_harem(req), i
    assert outcomes == {True, False}
    assert fallbacks > 0


def test_f2_steps_make_no_residual_search(monkeypatch):
    # Every left of the F2 balls at steps 0-1 finds k free candidates in its
    # row, and the canonical pass forces no edge; one search per partner
    # made 59,370 calls here.  So no solve builds the search marks or the
    # right rows.
    calls = []
    for name in ("_meet", "_marks", "_right_rows"):
        method = getattr(_Solver, name)

        def counted(self, *args, name=name, method=method):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(_Solver, name, counted)
    decomp = ParadoxDecomp(tight_spec(2))
    decomp.run_steps(2)
    assert sorted(decomp.engine.stars.items()) == [(0, (0, 1)), (2, (2, 8))]
    assert calls == []


class _PhaseTwoSolver(_Solver):
    """Counts the searches that start at the sink (phase 2) and the nodes
    each leaves in its forward and backward halves, read from the stamps."""

    def __init__(self, req):
        super().__init__(req)
        self.searches = self.nodes = 0

    def _meet(self, start, target):
        m = super()._meet(start, target)
        if start == _SNK:
            self.searches += 1
            if m is not None:
                self.nodes += self.fwd.count(self.stamp) + self.bwd.count(self.stamp)
        return m


def test_phase_two_search_grows_from_both_ends():
    # A forward search from the sink walks every covered optional right
    # first: here it left 216,631 nodes in its one half, against 23,299
    # nodes in both halves of the two-ended search.
    req = shell_request(random.Random(4), 1000, 2, 6, 200, 0.02)
    solver = _PhaseTwoSolver(req)
    assert solver.prepare()
    assert solver.searches == 145
    assert 0 < solver.nodes < 60_000, solver.nodes


def renamed_rights(req, scale=1_000_003, shift=7):
    """The request with every right id b renamed scale*b + shift, and the
    renaming.  From two rights on, the largest id is far past ``_DENSE``
    times their number, so the solver renumbers them by position."""

    def name(b):
        return scale * b + shift

    g = req.graph
    graph = FiniteBipartiteGraph(
        g.left_ids,
        tuple(map(name, g.right_ids)),
        {a: tuple(map(name, row)) for a, row in g.adjacency.items()},
    )
    req = MatchingRequest(
        graph,
        req.k,
        req.required_left,
        frozenset(map(name, req.required_right)),
        frozenset(map(name, req.optional_right)),
    )
    return req, name


def every_star(req):
    """solve_star at every vertex of the request, in id order; "unmatched"
    for an optional right the canonical matching leaves out."""
    g, answers = req.graph, []
    for v in [Vertex(Side.LEFT, a) for a in g.left_ids] + [
        Vertex(Side.RIGHT, b) for b in g.right_ids
    ]:
        try:
            answers.append(solve_star(req, v))
        except ValueError:
            answers.append("unmatched")
    return answers


def check_renamed_rights(req):
    """The renumbered rights give the dense ids' answers, renamed."""
    renamed, name = renamed_rights(req)
    assert _Solver(req).rights is None
    assert _Solver(renamed).rights == (
        renamed.graph.right_ids if len(req.graph.right_ids) > 1 else None
    )
    got, got_renamed = solve_harem(req), solve_harem(renamed)
    want = got and {a: tuple(map(name, star)) for a, star in got.stars.items()}
    assert (got_renamed and got_renamed.stars) == want
    renamed_answers = [
        x if x is None or x == "unmatched" else (x[0], tuple(map(name, x[1])))
        for x in every_star(req)
    ]
    assert every_star(renamed) == renamed_answers
    return got is not None, "unmatched" in renamed_answers


def test_renumbered_rights_match_dense_ids():
    rng = random.Random(26)
    outcomes = set()
    for i in range(60):
        n_left, k = rng.randint(3, 25), 1 + i % 3
        req = shell_request(
            rng, n_left, k, k + rng.randint(0, 3), rng.randint(0, n_left),
            rng.random() * 0.5, planted=i % 4 != 0,
        )
        outcomes.add((k,) + check_renamed_rights(req))
    # at every k feasible with an unmatched optional right, and infeasible;
    # feasible with every right matched at some k
    assert outcomes >= {(k, f, f) for k in (1, 2, 3) for f in (True, False)}, outcomes
    assert any(f and not u for _, f, u in outcomes), outcomes


@given(requests())
@settings(max_examples=80, deadline=None)
def test_renumbered_rights_match_dense_ids_small(req):
    check_renamed_rights(req)


# -- verify_matching ----------------------------------------------------------


def test_verify_accepts_solver_output():
    g = graph({0: (0, 1, 2), 1: (1, 2, 3)})
    req = MatchingRequest.all_required(g, 2)
    assert verify_matching(req, solve_harem(req)).ok


def test_verify_flags_non_edge():
    req = MatchingRequest.all_required(k12(), 2)
    bad = HaremMatching(stars={0: (0, 5)})
    kinds = [v.kind for v in verify_matching(req, bad).violations]
    assert "non-edge" in kinds


def test_verify_flags_missing_required_right():
    g = graph({0: (0, 1, 2)})
    req = MatchingRequest(g, 2, frozenset({0}), frozenset({0, 1, 2}), frozenset())
    m = HaremMatching(stars={0: (0, 1)})
    report = verify_matching(req, m)
    assert [v for v in report.violations if v.kind == "right-not-exactly-once"] == [
        report.violations[0]
    ]
    assert report.violations[0].subject == (2,)


def test_verify_flags_wrong_star_size_and_double_cover():
    g = graph({0: (0, 1), 1: (0, 1)})
    req = MatchingRequest.all_required(g, 1)
    m = HaremMatching(stars={0: (0,), 1: (0,)})
    kinds = {v.kind for v in verify_matching(req, m).violations}
    assert "right-over-once" in kinds
    assert "right-not-exactly-once" in kinds  # right 1 uncovered


# -- Hall condition checkers ---------------------------------------------------


def test_hall_k12():
    assert check_hall_harem(k12(), 2)


def test_hall_starved_left():
    assert not check_hall_harem(graph({0: (0,)}), 2)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        check_hall_harem(k12(), 0)


def test_hall_isolated_right_fails():
    g = graph({0: (0, 1)}, nr=3)
    assert not check_hall_harem(g, 1)


def test_hall_matches_naive_and_feasibility():
    # 120 graphs of 3x6 at k = 2; two of every shape from 0x0 to 6x10 at
    # k = 1, 2 and 3, where rows may be empty and rights isolated; and ten
    # more of each shape with |R| = k|L|, the only one that can pass.  On a
    # finite graph the condition is exactly perfect-(1,k) feasibility.
    rng = random.Random(11)
    ks = (1, 2, 3)
    shapes = (
        [(3, 6, 2)] * 120
        + [(nl, nr, k) for nl in range(7) for nr in range(11) for k in ks] * 2
        + [(nl, k * nl, k) for nl in range(7) for k in ks if k * nl <= 10] * 10
    )
    for nl, nr, k in shapes:
        adj = {
            a: tuple(sorted(rng.sample(range(nr), rng.randint(0, nr))))
            for a in range(nl)
        }
        g = FiniteBipartiteGraph(tuple(range(nl)), tuple(range(nr)), adj)
        expected = naive_hall(g, k)
        assert check_hall_harem(g, k) == expected, (adj, nr, k)
        feasible = solve_harem(MatchingRequest.all_required(g, k)) is not None
        assert expected == feasible, (adj, nr, k)


def test_hall_guard():
    g = graph({a: () for a in range(21)}, nr=1)
    with pytest.raises(SizeGuardError, match="^subset checks capped at 20 lefts, got 21$"):
        check_hall_harem(g, 1)
    # Rights are not capped: the checker's one table is indexed by lefts.
    wide = graph({0: range(0, 60, 2), 1: range(1, 60, 2)})
    assert check_hall_harem(wide, 30)
    assert not check_hall_harem(wide, 31)
