import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallharem.core_graph import FiniteBipartiteGraph, Side
from hallharem.decomposition import ParadoxDecomp, tight_spec
from hallharem.errors import BallBudgetExceeded, WitnessRefuted, EngineExhausted
from hallharem.flow_matching import (
    MatchingRequest,
    check_hall_harem,
    solve_harem,
    verify_matching,
)
from hallharem.harem_engine import (
    DEFAULT_MAX_BALL,
    EngineState,
    HWitness,
    identity_witness,
    vacuous_witness,
)


def engine_for(adj, k=2, h=None, right_ids=None):
    g = FiniteBipartiteGraph.from_adjacency(adj, right_ids=right_ids)
    if h is None:
        h = vacuous_witness(len(g.left_ids))
    return g, EngineState(g.as_oracle(), k=k, h=h)


def random_plantable(rng, m):
    """Random graph on m x 2m vertices containing a planted (1,2)-matching."""
    rights = list(range(2 * m))
    rng.shuffle(rights)
    adj = {a: set(rights[2 * a : 2 * a + 2]) for a in range(m)}
    for a in range(m):
        for b in range(2 * m):
            if rng.random() < 0.25:
                adj[a].add(b)
    return FiniteBipartiteGraph.from_adjacency(
        {a: tuple(sorted(s)) for a, s in adj.items()}, right_ids=range(2 * m)
    )


# -- witness bookkeeping -----------------------------------------------------


def test_witness_requires_zero_at_zero():
    with pytest.raises(ValueError, match="^h: h\\(0\\) must be 0$"):
        HWitness(eval=lambda n: n + 1)


def test_shifted_h_pins():
    g, eng = engine_for({0: (0, 1)}, h=identity_witness())
    h0 = eng.shifted_h()
    assert [h0(n) for n in range(4)] == [0, 1, 2, 3]  # step 0: unshifted
    eng.step = 1
    h1 = eng.shifted_h()
    assert h1(0) == 0
    assert [h1(n) for n in (1, 2, 3)] == [3, 4, 5]  # n + k for n > 0
    eng.step = 3
    h3 = eng.shifted_h()
    assert [h3(n) for n in (1, 2)] == [7, 8]  # n + 3k


def test_step_radius_pins():
    g, eng = engine_for({0: (0, 1)}, h=identity_witness())
    assert eng.step_radius(Side.LEFT) == 5  # max(2*h(2)+1, 3)
    eng.step = 1
    assert eng.step_radius(Side.RIGHT) == 10  # max(2*h'(2)+2, 4), h'(2)=4
    eng.step = 0
    zero = HWitness(eval=lambda n: 0, description="zero")
    eng2 = EngineState(g.as_oracle(), k=2, h=zero)
    assert eng2.step_radius(Side.LEFT) == 3
    assert eng2.step_radius(Side.RIGHT) == 4


# -- single steps -------------------------------------------------------------


def test_k12_first_step():
    g, eng = engine_for({0: (0, 1)})
    assert eng.run_step() == (0, (0, 1))
    assert eng.removed_left == {0}
    assert eng.removed_right == {0, 1}
    assert eng.step == 1


def test_scheduler_alternates_sides():
    g, eng = engine_for({0: (0, 1), 1: (2, 3)})
    eng.run_step()  # even step: left pivot 0
    # odd step: least remaining right is 2; its partner's star commits
    a, star = eng.run_step()
    assert a == 1 and star == (2, 3)


def test_match_left_memoizes():
    g, eng = engine_for({0: (0, 1), 1: (2, 3)})
    star = eng.match_left(1)
    steps = eng.step
    assert eng.match_left(1) == star
    assert eng.step == steps


def test_match_right_consistency():
    g, eng = engine_for({0: (0, 1, 2, 3), 1: (0, 1, 2, 3)})
    for a in g.left_ids:
        for b in eng.match_left(a):
            assert eng.match_right(b) == a


def test_match_left_progress_bound():
    rng = random.Random(2)
    g = random_plantable(rng, 6)
    eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(6))
    before = eng.step
    eng.match_left(3)
    assert eng.step - before <= 2 * (3 + 1)


def test_out_of_support_query_rejected():
    g, eng = engine_for({0: (0, 1)})
    with pytest.raises(ValueError):
        eng.match_left(5)


def test_negative_query_fails_fast():
    # On F2 a negative index is never matched; with a 10-vertex budget any
    # step would raise BallBudgetExceeded instead of ValueError.
    eng = ParadoxDecomp(tight_spec(2), max_ball_size=10).engine
    with pytest.raises(ValueError):
        eng.match_left(-1)
    with pytest.raises(ValueError):
        eng.match_right(-1)
    assert eng.step == 0 and not eng.stars


@pytest.mark.parametrize("size", [0, -5])
def test_nonpositive_ball_budget_rejected(size):
    g = FiniteBipartiteGraph.from_adjacency({0: (0, 1)})
    with pytest.raises(ValueError):
        EngineState(g.as_oracle(), k=2, h=vacuous_witness(1), max_ball_size=size)
    with pytest.raises(ValueError):
        ParadoxDecomp(tight_spec(2), max_ball_size=size)


def test_engine_rejects_k_zero_and_exhausting_f2():
    g = FiniteBipartiteGraph.from_adjacency({0: (0, 1)})
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        EngineState(g.as_oracle(), k=0, h=vacuous_witness(1))
    eng = ParadoxDecomp(tight_spec(2)).engine
    with pytest.raises(ValueError, match="^only finite-support oracles can be exhausted$"):
        eng.drive_to_exhaustion()
    assert eng.step == 0 and not eng.stars


def test_witness_refuted_on_starved_graph():
    g, eng = engine_for({0: (0,)}, k=2)
    with pytest.raises(WitnessRefuted):
        eng.run_step()


def engine_state(eng):
    return eng.committed_prefix(), eng.next_left, eng.next_right


def test_budget_failure_leaves_state_unchanged():
    # a caught budget error must not skip the pivot: the retry commits the
    # same star as a fresh run
    eng = ParadoxDecomp(tight_spec(2), max_ball_size=100).engine
    before = engine_state(eng)
    with pytest.raises(BallBudgetExceeded):
        eng.run_step()
    assert engine_state(eng) == before
    eng.max_ball_size = DEFAULT_MAX_BALL
    assert eng.run_step() == (0, (0, 1))


def test_refuted_step_leaves_state_unchanged():
    # no (1,2)-matching exists, so every witness is invalid: step 1 fails at
    # R2, and fails there again when retried
    g, eng = engine_for({0: (0, 1), 1: (2,)})
    eng.run_step()
    before = engine_state(eng)
    with pytest.raises(WitnessRefuted) as first:
        eng.run_step()
    assert engine_state(eng) == before
    with pytest.raises(WitnessRefuted) as again:
        eng.run_step()
    assert str(again.value) == str(first.value)
    assert "around R2 at step 1" in str(first.value)


def test_engine_exhausted():
    g, eng = engine_for({0: (0, 1)})
    eng.run_step()
    with pytest.raises(EngineExhausted):
        eng.run_step()


def test_f2_steps_hold_each_ball_once():
    # Steps 0 and 1 peak at about 21 MB traced.  Re-validating the ball in
    # FiniteBipartiteGraph and copying its ids to check the request lifted
    # the peak to about 27 MB.
    tracemalloc.start()
    try:
        d = ParadoxDecomp(tight_spec(2))
        d.run_steps(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.engine.stars == {0: (0, 1), 2: (2, 8)}
    assert peak < 24_000_000, peak


# -- exhaustion and invariants --------------------------------------------------


def test_exhaustion_produces_valid_perfect_matching():
    rng = random.Random(7)
    for _ in range(10):
        m = rng.randint(3, 9)
        g = random_plantable(rng, m)
        assert check_hall_harem(g, 2)
        eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(m))
        snap = eng.drive_to_exhaustion()
        assert snap.step == m
        assert snap.removed_left == frozenset(g.left_ids)
        assert snap.removed_right == frozenset(g.right_ids)
        from hallharem.flow_matching import HaremMatching

        req = MatchingRequest.all_required(g, 2)
        assert verify_matching(req, HaremMatching(stars=dict(snap.stars))).ok


def test_perfectness_so_far_and_edge_soundness():
    rng = random.Random(13)
    g = random_plantable(rng, 7)
    eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(7))
    for _ in range(4):
        eng.run_step()
        seen_right = set()
        for a, star in eng.stars.items():
            assert len(star) == 2
            assert not seen_right & set(star)
            seen_right.update(star)
            for b in star:
                assert b in g.adjacency[a]
        assert eng.removed_left == set(eng.stars)
        assert eng.removed_right == seen_right
        assert len(eng.removed_right) == 2 * eng.step


def test_replay_determinism():
    rng = random.Random(19)
    g = random_plantable(rng, 8)
    runs = []
    for _ in range(2):
        eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(8))
        runs.append(eng.drive_to_exhaustion())
    assert runs[0] == runs[1]


def test_residual_keeps_hall_condition():
    # the graph minus committed stars still satisfies the Hall condition
    rng = random.Random(23)
    g = random_plantable(rng, 6)
    eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(6))
    for _ in range(3):
        eng.run_step()
        residual = FiniteBipartiteGraph.from_adjacency(
            {
                a: tuple(b for b in g.adjacency[a] if b not in eng.removed_right)
                for a in g.left_ids
                if a not in eng.removed_left
            },
            right_ids=set(g.right_ids) - eng.removed_right,
        )
        assert check_hall_harem(residual, 2)


def test_engine_matches_direct_solver_validity():
    rng = random.Random(29)
    g = random_plantable(rng, 8)
    eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(8))
    snap = eng.drive_to_exhaustion()
    req = MatchingRequest.all_required(g, 2)
    direct = solve_harem(req)
    from hallharem.flow_matching import HaremMatching

    assert verify_matching(req, HaremMatching(stars=dict(snap.stars))).ok
    assert verify_matching(req, direct).ok


@st.composite
def planted_components(draw):
    """A feasible all-required k = 2 graph of two or three parts, each with
    a planted (1,2)-matching and no edge to the others, so at least one
    component per part.  Ids are shuffled, so the parts interleave and the
    engine's left and right pivots hop between components."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    n = sum(sizes)
    lefts = draw(st.permutations(range(n)))
    rights = draw(st.permutations(range(2 * n)))
    adj = {}
    start = 0
    for size in sizes:
        part = rights[2 * start : 2 * (start + size)]
        for i, a in enumerate(lefts[start : start + size]):
            extra = draw(st.frozensets(st.sampled_from(part), max_size=3))
            adj[a] = tuple(sorted(extra | set(part[2 * i : 2 * i + 2])))
        start += size
    return FiniteBipartiteGraph.from_adjacency(adj, right_ids=range(2 * n))


@given(planted_components())
@settings(max_examples=100, deadline=None)
def test_engine_star_map_equals_direct_solver(g):
    # Odd steps pivot on a right, so right pivots are always among the steps.
    eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(len(g.left_ids)))
    snap = eng.drive_to_exhaustion()
    assert dict(snap.stars) == solve_harem(MatchingRequest.all_required(g, 2)).stars


def test_committed_prefix_snapshot_is_frozen_copy():
    g, eng = engine_for({0: (0, 1), 1: (2, 3)})
    empty = eng.committed_prefix()
    assert empty.step == 0 and empty.stars == ()
    eng.run_step()
    one = eng.committed_prefix()
    assert one.step == 1 and len(one.stars) == 1
    assert empty.stars == ()  # earlier snapshot unaffected


def test_gappy_support():
    # left ids 0 and 2 (gap at 1): scheduler skips the absent index
    g = FiniteBipartiteGraph(
        (0, 2), (0, 1, 2, 3), {0: (0, 1), 2: (2, 3)}
    )
    eng = EngineState(g.as_oracle(), k=2, h=vacuous_witness(2))
    snap = eng.drive_to_exhaustion()
    assert dict(snap.stars) == {0: (0, 1), 2: (2, 3)}
