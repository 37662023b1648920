import itertools

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


def test_solve_star_matches_full_solve():
    g = graph({0: (0, 1, 2), 1: (1, 2, 3), 2: (2, 3, 4, 5)})
    req = MatchingRequest.all_required(g, 2)
    full = solve_harem(req)
    for a in g.left_ids:
        assert solve_star(req, Vertex(Side.LEFT, a)) == (a, full.stars[a])
    for b in g.right_ids:
        a = full.inverse[b]
        assert solve_star(req, Vertex(Side.RIGHT, b)) == (a, full.stars[a])


def test_request_validation():
    g = k12()
    with pytest.raises(ValueError):
        MatchingRequest(g, 0, frozenset(), frozenset(), frozenset())
    with pytest.raises(ValueError):
        MatchingRequest(g, 1, frozenset({9}), frozenset(), frozenset())
    with pytest.raises(ValueError):
        MatchingRequest(g, 1, frozenset(), frozenset({0}), frozenset({0}))


def test_unlisted_rights_stay_unmatched():
    g = graph({0: (0, 1, 2)})
    req = MatchingRequest(g, 1, frozenset({0}), frozenset({2}), frozenset())
    m = solve_harem(req)
    assert m.stars == {0: (2,)}


def test_non_required_lefts_left_empty_when_possible():
    g = graph({0: (0,), 1: (0, 1)})
    req = MatchingRequest(
        g, 1, frozenset({1}), frozenset({1}), frozenset({0})
    )
    assert solve_harem(req).stars == {1: (1,)}


def test_non_required_left_pressed_into_service():
    # right 0 is required but only left 0 (non-required) can cover it
    g = graph({0: (0,), 1: (1,)})
    req = MatchingRequest(g, 1, frozenset({1}), frozenset({0, 1}), frozenset())
    assert solve_harem(req).stars == {0: (0,), 1: (1,)}


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
    req_left = draw(st.frozensets(st.integers(0, nl - 1), max_size=nl))
    req_right = draw(st.frozensets(st.integers(0, nr - 1), max_size=nr))
    optional = (
        draw(st.frozensets(st.integers(0, nr - 1), max_size=nr)) - req_right
    )
    return MatchingRequest(g, k, req_left, req_right, optional)


@given(requests())
@settings(max_examples=120, deadline=None)
def test_solver_agrees_with_brute_force(req):
    got = solve_harem(req)
    first = next(iter(brute_force_harem(req)), None)
    assert (got is None) == (first is None)
    if got is not None:
        assert got.stars == first.stars
        assert verify_matching(req, got).ok


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
