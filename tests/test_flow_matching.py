import hashlib
import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallharem.core_graph import FiniteBipartiteGraph, Side, Vertex
from hallharem.errors import SizeGuardError, WitnessError
from hallharem.flow_matching import (
    HaremMatching,
    MatchingRequest,
    brute_force_harem,
    check_expanding_hall_witness,
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
                n.update(g.neighbors_right(b))
            if k * len(n) < size:
                return False
    return True


def naive_expanding_hall(g, k, h, n_max):
    for n in range(n_max + 1):
        for size in range(1, len(g.left_ids) + 1):
            if h(n) > size:
                continue
            for xs in itertools.combinations(g.left_ids, size):
                nb = set()
                for a in xs:
                    nb.update(g.adjacency.get(a, ()))
                if n > len(nb) - k * size:
                    return False
        for size in range(1, len(g.right_ids) + 1):
            if h(n) > size:
                continue
            for ys in itertools.combinations(g.right_ids, size):
                nb = set()
                for b in ys:
                    nb.update(g.neighbors_right(b))
                if k * n > k * len(nb) - size:
                    return False
    return True


# -- solve_harem -------------------------------------------------------------


def test_k12_unique_matching():
    m = solve_harem(MatchingRequest.all_required(k12(), 2))
    assert m.stars == {0: (0, 1)}
    assert m.inverse == {0: 0, 1: 0}


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
        for b, a in full.inverse.items():
            assert solve_star(req, Vertex(Side.RIGHT, b)) == (a, full.stars[a])


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
    with pytest.raises(ValueError):
        MatchingRequest(g, 0, lefts, rights, frozenset())
    with pytest.raises(ValueError):
        MatchingRequest(g, 1, frozenset({9}), rights, frozenset())
    with pytest.raises(ValueError):
        MatchingRequest(g, 1, lefts, rights, frozenset({0}))
    # every left is required
    g2 = graph({0: (0, 1), 1: (1,)})
    with pytest.raises(ValueError):
        MatchingRequest(g2, 1, lefts, rights, frozenset())
    # every right is required or optional
    with pytest.raises(ValueError):
        MatchingRequest(g, 1, lefts, frozenset({0}), frozenset())


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


# -- beyond brute-force sizes ----------------------------------------------------


def shell_request(rng, n_left, k, degree, n_shell, p_optional, planted=True):
    """k*n_left rights plus an optional shell of n_shell more, each of the
    others optional with probability p_optional.  A planted instance hides
    a perfect matching among its rows; an unplanted one has no isolated
    right, so a degree count cannot settle it."""
    n_right = k * n_left + n_shell
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


def networkx_feasible(nx, req):
    """Feasibility by max-flow with lower bounds: s -> left [k, k], left ->
    right [0, 1], right -> t [1, 1] if required else [0, 1], t -> s
    unbounded; the lower bounds are moved to a super source and sink."""
    edges = [("t", "s", 0, req.k * len(req.graph.left_ids))]
    for a in req.graph.left_ids:
        edges.append(("s", ("L", a), req.k, req.k))
        for b in req.graph.adjacency.get(a, ()):
            edges.append((("L", a), ("R", b), 0, 1))
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


def test_hall_isolated_right_fails():
    g = graph({0: (0, 1)}, nr=3)
    assert not check_hall_harem(g, 1)


def test_hall_matches_naive_and_feasibility():
    import random

    rng = random.Random(11)
    for _ in range(120):
        nl, nr = 3, 6
        adj = {
            a: tuple(sorted(rng.sample(range(nr), rng.randint(0, nr))))
            for a in range(nl)
        }
        g = FiniteBipartiteGraph(tuple(range(nl)), tuple(range(nr)), adj)
        expected = naive_hall(g, 2)
        assert check_hall_harem(g, 2) == expected
        if nr == 2 * nl:
            feasible = solve_harem(MatchingRequest.all_required(g, 2)) is not None
            assert expected == feasible


def test_hall_guard():
    g = graph({a: () for a in range(21)}, nr=1)
    with pytest.raises(SizeGuardError):
        check_hall_harem(g, 1)


# -- expanding margins ----------------------------------------------------------


def test_expanding_hall_witness_must_vanish_at_zero():
    with pytest.raises(WitnessError):
        check_expanding_hall_witness(k12(), 2, lambda n: 1, 1)


def test_expanding_hall_n_max_zero_is_plain_hall():
    import random

    rng = random.Random(5)
    for _ in range(60):
        adj = {
            a: tuple(sorted(rng.sample(range(6), rng.randint(0, 6))))
            for a in range(3)
        }
        g = FiniteBipartiteGraph((0, 1, 2), tuple(range(6)), adj)
        assert check_expanding_hall_witness(g, 2, lambda n: n, 0) == check_hall_harem(g, 2)


def test_expanding_hall_vacuous_witness_reduces_to_hall():
    g = graph({0: (0, 1), 1: (0, 1)})  # |B| <= |A|, so both sides vacuous
    h = lambda n: 0 if n == 0 else 3
    assert check_expanding_hall_witness(g, 1, h, 5) == check_hall_harem(g, 1)


def test_expanding_hall_matches_naive():
    import random

    rng = random.Random(17)
    witnesses = [lambda n: n, lambda n: 0 if n == 0 else 2, lambda n: 2 * n]
    for _ in range(40):
        adj = {
            a: tuple(sorted(rng.sample(range(5), rng.randint(0, 5))))
            for a in range(3)
        }
        g = FiniteBipartiteGraph((0, 1, 2), tuple(range(5)), adj)
        for h in witnesses:
            for k in (1, 2):
                assert check_expanding_hall_witness(g, k, h, 2) == naive_expanding_hall(g, k, h, 2)
