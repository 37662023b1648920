import random
import re
from collections import deque
from collections.abc import Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallharem.core_graph import (
    BipartiteOracle,
    FiniteBipartiteGraph,
    Side,
    Vertex,
    dump_bg,
    extract_ball,
    parse_bg,
)
from hallharem.decomposition import build_action_graph, tight_spec
from hallharem.errors import BallBudgetExceeded, OracleError, ParseError


def brute_ball(oracle, removed_left, removed_right, pivot, radius):
    """Independent BFS over (side, index) pairs, for cross-checking."""
    removed = {
        Side.LEFT: frozenset(removed_left),
        Side.RIGHT: frozenset(removed_right),
    }
    dist = {(pivot.side, pivot.index): 0}
    queue = deque([(pivot.side, pivot.index)])
    while queue:
        side, i = queue.popleft()
        d = dist[(side, i)]
        if d == radius:
            continue
        for j in oracle.neighbors(Vertex(side, i)):
            key = (side.opposite(), j)
            if j in removed[side.opposite()] or key in dist:
                continue
            dist[key] = d + 1
            queue.append(key)
    return dist


class ProbeOnlySet(Set):
    """A set that answers ``in`` and ``isdisjoint`` but cannot be iterated,
    so any copy of it fails."""

    def __init__(self, items):
        self._items = frozenset(items)

    def __contains__(self, x):
        return x in self._items

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        raise AssertionError("the removed set was iterated")


# -- parsing ---------------------------------------------------------------


def test_parse_basic():
    g, k = parse_bg("A 0: 0 1\nA 1: 1 2\n")
    assert k is None
    assert g.left_ids == (0, 1)
    assert g.right_ids == (0, 1, 2)
    assert g.edge_count == 4
    oracle = g.as_oracle()
    rows = {side: [oracle.neighbors(Vertex(side, i)) for i in range(4)] for side in Side}
    # index 3 is on neither side, and index 2 is a right but no left
    assert rows[Side.LEFT] == [(0, 1), (1, 2), (), ()]
    assert rows[Side.RIGHT] == [(0,), (0, 1), (1,), ()]


def test_parse_empty_input_is_empty_graph():
    g, _ = parse_bg("")
    assert g.left_ids == () and g.right_ids == ()


def test_parse_header_and_comments():
    text = "# comment\nk 2\n\nA 0: 0 1\n"
    g, k = parse_bg(text)
    assert k == 2
    assert g.adjacency[0] == (0, 1)
    # one leading byte-order mark is ignored, in text and in bytes
    for given in (text, "\ufeff" + text):
        assert parse_bg(given) == (g, k)
        assert parse_bg(given.encode("utf-8")) == (g, k)


COMMENT_CHARS = pytest.mark.parametrize(
    "char", ["\u2028", "\x85", "\x0c"], ids=["line-separator", "next-line", "form-feed"]
)


@COMMENT_CHARS
def test_parse_comment_may_hold_other_line_breaks(char):
    # str.splitlines() ends a line at each of these, so "more" read as data
    text = f"# note{char}more\nk 2\nA 0: 0 1\n"
    want = parse_bg("k 2\nA 0: 0 1\n")
    assert parse_bg(text) == want
    assert parse_bg(text.encode("utf-8")) == want
    with pytest.raises(ParseError, match="^line 4: unrecognized line: 'B'$"):
        parse_bg(text + "B\n")


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_parse_counts_lines_at_crlf_and_cr(end):
    text = "\ufeff# c\u2028d\nk 2\n\nA 0: 0 1\n".replace("\n", end)
    assert parse_bg(text) == parse_bg("k 2\nA 0: 0 1\n")
    with pytest.raises(ParseError, match="^line 5: unrecognized line: 'B'$"):
        parse_bg(text + "B" + end)


def test_parse_duplicate_edge_rejected():
    with pytest.raises(ParseError) as err:
        parse_bg("A 0: 1 1\n")
    assert err.value.line_no == 1


def test_parse_out_of_order_left_rejected():
    with pytest.raises(ParseError) as err:
        parse_bg("A 1: 0\nA 0: 0\n")
    assert err.value.line_no == 2


def test_parse_negative_left_rejected():
    with pytest.raises(ParseError, match="left index must be >= 0"):
        parse_bg("A -1: 2\n")


def test_parse_header_after_data_rejected():
    with pytest.raises(ParseError):
        parse_bg("A 0: 0\nk 2\n")


def test_parse_garbage_line():
    with pytest.raises(ParseError) as err:
        parse_bg("A 0: 0\nB 0: 0\n")
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("k 2\nk 3\n", 2, "duplicate k header"),
        ("# c\nk two\n", 2, "bad k header: 'k two'"),
        ("k 0\n", 1, "k must be >= 1"),
        ("k 2\n\nA 0 1\n", 3, "missing ':' in data line"),
        ("A x: 0\n", 1, "bad left index: 'x'"),
        ("A 0: 0\nA 1: 1 y\n", 2, "bad right index"),
        ("A 0: -1 2\n", 1, "right indices must be >= 0"),
        ("\ufeffA x: 0\n", 1, "bad left index: 'x'"),
    ],
    ids=["duplicate-k", "bad-k", "k-below-one", "missing-colon", "bad-left", "bad-right",
         "negative-right", "bad-left-after-byte-order-mark"],
)
def test_parse_rejects_malformed_line(text, line_no, message):
    with pytest.raises(ParseError, match=f"^line {line_no}: {re.escape(message)}$") as err:
        parse_bg(text)
    assert err.value.line_no == line_no


@st.composite
def adjacency_graphs(draw):
    nl = draw(st.integers(1, 5))
    nr = draw(st.integers(1, 6))
    adj = {}
    for a in range(nl):
        row = draw(st.frozensets(st.integers(0, nr - 1), max_size=nr))
        if row:
            adj[a] = tuple(sorted(row))
    return FiniteBipartiteGraph.from_adjacency(dict.fromkeys(range(nl), ()) | adj)


@given(adjacency_graphs())
@settings(max_examples=60)
def test_bg_roundtrip(g):
    text = dump_bg(g, k=2)
    got, k = parse_bg(text)
    assert k == 2
    assert got == g


def test_dump_rejects_isolated_right():
    # .bg lists rights only through edges: right 2 would not parse back.
    g = FiniteBipartiteGraph((0,), (0, 1, 2), {0: (0, 1)})
    with pytest.raises(ValueError, match=r"\[2\]"):
        dump_bg(g)


# -- ball extraction -------------------------------------------------------


def single_edge_oracle():
    return FiniteBipartiteGraph.from_adjacency({0: (0,)}).as_oracle()


def test_ball_single_edge_radius_3():
    ball = extract_ball(single_edge_oracle(), set(), set(), Vertex(Side.LEFT, 0), 3)
    assert ball.graph.left_ids == (0,)
    assert ball.graph.right_ids == (0,)
    assert ball.shell_right == frozenset()
    assert ball.interior_right == frozenset({0})


def test_ball_parity_enforced():
    with pytest.raises(ValueError, match="^left pivot needs an odd radius, got 2$"):
        extract_ball(single_edge_oracle(), set(), set(), Vertex(Side.LEFT, 0), 2)
    with pytest.raises(ValueError, match="^right pivot needs an even radius, got 3$"):
        extract_ball(single_edge_oracle(), set(), set(), Vertex(Side.RIGHT, 0), 3)
    with pytest.raises(ValueError, match="^radius must be >= 1$"):
        extract_ball(single_edge_oracle(), set(), set(), Vertex(Side.LEFT, 0), 0)


def test_ball_removed_pivot_rejected():
    with pytest.raises(ValueError):
        extract_ball(single_edge_oracle(), {0}, set(), Vertex(Side.LEFT, 0), 1)
    with pytest.raises(ValueError, match="is a removed vertex"):
        extract_ball(single_edge_oracle(), ProbeOnlySet({0}), set(), Vertex(Side.LEFT, 0), 1)
    with pytest.raises(ValueError, match="^vertex index must be >= 0, got -1$"):
        Vertex(Side.LEFT, -1)


@pytest.fixture(scope="module")
def f2_oracle():
    return build_action_graph(tight_spec(2))


def test_f2_radius_1_ball(f2_oracle):
    ball = extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 1)
    assert ball.graph.left_ids == (0,)
    assert ball.graph.right_ids == (0, 1, 2, 3, 4)
    # identity is a neighbor, so the pivot's own index sits strictly inside
    # only at distance 1 as well: the whole layer is the shell
    assert ball.shell_right == frozenset({0, 1, 2, 3, 4})


def test_f2_ball_matches_brute_bfs(f2_oracle):
    ball = extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 3)
    dist = brute_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 3)
    lefts = sorted(i for (s, i) in dist if s is Side.LEFT)
    rights = sorted(i for (s, i) in dist if s is Side.RIGHT)
    assert list(ball.graph.left_ids) == lefts
    assert list(ball.graph.right_ids) == rights
    shell = {i for (s, i) in dist if s is Side.RIGHT and dist[(s, i)] == 3}
    assert ball.shell_right == shell


def test_f2_ball_respects_removals(f2_oracle):
    removed_right = {0}
    ball = extract_ball(f2_oracle, set(), removed_right, Vertex(Side.LEFT, 0), 1)
    assert ball.graph.right_ids == (1, 2, 3, 4)
    dist = brute_ball(f2_oracle, set(), removed_right, Vertex(Side.LEFT, 0), 1)
    assert sorted(i for (s, i) in dist if s is Side.RIGHT) == [1, 2, 3, 4]


@pytest.mark.parametrize("pivot, radius", [(Vertex(Side.LEFT, 0), 5), (Vertex(Side.RIGHT, 2), 6)])
def test_f2_ball_with_removed_rights_matches_brute(f2_oracle, pivot, radius):
    removed_left = {5}
    removed_right = {0, 1, 8, 14, 30, 41}
    ball = extract_ball(f2_oracle, removed_left, removed_right, pivot, radius)
    g = ball.graph
    assert FiniteBipartiteGraph(g.left_ids, g.right_ids, dict(g.adjacency)) == g
    probed = ProbeOnlySet(removed_left), ProbeOnlySet(removed_right)
    assert extract_ball(f2_oracle, *probed, pivot, radius) == ball
    dist = brute_ball(f2_oracle, removed_left, removed_right, pivot, radius)
    lefts = sorted(i for (s, i) in dist if s is Side.LEFT)
    rights = sorted(i for (s, i) in dist if s is Side.RIGHT)
    assert list(ball.graph.left_ids) == lefts
    assert list(ball.graph.right_ids) == rights
    assert ball.shell_right == {i for (s, i) in dist if s is Side.RIGHT and dist[(s, i)] == radius}
    in_ball = set(rights)
    restricted = 0
    for a in lefts:
        row = f2_oracle.neighbors(Vertex(Side.LEFT, a))
        assert ball.graph.adjacency[a] == tuple(j for j in row if j in in_ball)
        if removed_right.isdisjoint(row):
            assert ball.graph.adjacency[a] is row  # shared, not copied
        else:
            restricted += 1
    assert restricted > 0


def test_f2_removals_disconnect(f2_oracle):
    # removing both copies of an index cuts every walk through it
    dist = brute_ball(f2_oracle, {0}, {0}, Vertex(Side.RIGHT, 2), 4)
    ball = extract_ball(f2_oracle, {0}, {0}, Vertex(Side.RIGHT, 2), 4)
    assert sorted(i for (s, i) in dist if s is Side.LEFT) == list(ball.graph.left_ids)
    # index 3 (the other branch) is unreachable around the removed root
    assert 3 not in ball.graph.right_ids


def test_ball_edges_are_oracle_edges(f2_oracle):
    ball = extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 3)
    for a, row in ball.graph.adjacency.items():
        nbrs = f2_oracle.neighbors(Vertex(Side.LEFT, a))
        assert set(row) <= set(nbrs)


def test_ball_monotone_in_radius(f2_oracle):
    small = extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 1)
    big = extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 3)
    assert set(small.graph.left_ids) <= set(big.graph.left_ids)
    assert set(small.graph.right_ids) <= set(big.graph.right_ids)
    for a, row in small.graph.adjacency.items():
        assert set(row) <= set(big.graph.adjacency[a])


def test_ball_deterministic(f2_oracle):
    b1 = extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 3)
    b2 = extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 3)
    assert b1 == b2


def test_ball_budget(f2_oracle):
    with pytest.raises(BallBudgetExceeded):
        extract_ball(f2_oracle, set(), set(), Vertex(Side.LEFT, 0), 5, max_vertices=10)


def test_ball_detects_asymmetry():
    # left 0 claims right 1 as a neighbor, right 1 does not claim left 0;
    # radius 3 queries both directions, so the audit sees the contradiction
    def neighbors(v):
        if v.side is Side.LEFT:
            return (0, 1) if v.index == 0 else ()
        return (0,) if v.index == 0 else ()

    broken = BipartiteOracle(neighbors=neighbors)
    with pytest.raises(OracleError):
        extract_ball(broken, set(), set(), Vertex(Side.LEFT, 0), 3)


@pytest.mark.parametrize("row", [(1, 0), (0, 0)], ids=["unsorted", "repeated"])
def test_ball_detects_unsorted_row(row):
    def neighbors(v):
        return row if v.side is Side.LEFT else (0,)

    broken = BipartiteOracle(neighbors=neighbors)
    with pytest.raises(OracleError, match="not strictly sorted"):
        extract_ball(broken, set(), set(), Vertex(Side.LEFT, 0), 1)


@pytest.mark.parametrize("radius", [1, 3])
def test_ball_detects_negative_index(radius):
    # Named as the oracle's fault, before a ball or a Vertex is built from it.
    def neighbors(v):
        return (-1, 0) if v.side is Side.LEFT else (0,)

    broken = BipartiteOracle(neighbors=neighbors, name="neg")
    with pytest.raises(OracleError, match=r"neg: neighbors\(L0\) has a negative index"):
        extract_ball(broken, set(), set(), Vertex(Side.LEFT, 0), radius)


@pytest.mark.parametrize(
    "left_ids, right_ids, adjacency, message",
    [
        ((1, 0), (0,), {}, "left_ids must be strictly increasing"),
        ((0, 0), (0,), {}, "left_ids must be strictly increasing"),
        ((0,), (1, 0), {}, "right_ids must be strictly increasing"),
        ((0,), (0, 0), {}, "right_ids must be strictly increasing"),
        ((-1, 0), (0,), {}, "left_ids must be non-negative"),
        ((0,), (-1, 0), {}, "right_ids must be non-negative"),
        ((0,), (0,), {1: (0,)}, "adjacency key 1 not in left_ids"),
        ((0,), (0, 1), {0: (1, 0)}, r"adjacency\[0\] must be strictly increasing"),
        ((0,), (0,), {0: (0, 1)}, r"adjacency\[0\] mentions unknown right ids"),
        ((0, 1), (0,), {0: (0,)}, r"adjacency has no row for left ids \[1\]"),
    ],
    ids=[
        "unsorted-left", "repeated-left", "unsorted-right", "repeated-right",
        "negative-left", "negative-right", "unknown-key", "unsorted-row", "unknown-right",
        "missing-row",
    ],
)
def test_finite_graph_rejects_malformed_input(left_ids, right_ids, adjacency, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteBipartiteGraph(left_ids, right_ids, adjacency)


def counting_oracle(graph):
    """``graph``'s oracle, plus the list of vertices whose rows were read."""
    inner = graph.as_oracle()
    reads = []

    def neighbors(v):
        reads.append(v)
        return inner.neighbors(v)

    return BipartiteOracle(neighbors=neighbors), reads


def random_finite_graph(rng):
    n_left, n_right = rng.randint(1, 8), rng.randint(1, 10)
    p = rng.choice((0.1, 0.25, 0.5))
    adj = {a: [b for b in range(n_right) if rng.random() < p] for a in range(n_left)}
    return FiniteBipartiteGraph.from_adjacency(adj, right_ids=range(n_right))


def test_ball_matches_brute_past_closure():
    # Radii run from 1 to 2|L|+3, past the radius at which every residual
    # component closes.  The rows read, in their order, are brute_ball's.
    rng = random.Random(20261018)
    closed = open_ = 0
    for _ in range(250):
        g = random_finite_graph(rng)
        removed_left = {a for a in g.left_ids if rng.random() < 0.2}
        removed_right = {b for b in g.right_ids if rng.random() < 0.2}
        side = rng.choice((Side.LEFT, Side.RIGHT))
        ids, removed = (
            (g.left_ids, removed_left) if side is Side.LEFT else (g.right_ids, removed_right)
        )
        candidates = [i for i in ids if i not in removed]
        if not candidates:
            continue
        pivot = Vertex(side, rng.choice(candidates))
        component = brute_ball(g.as_oracle(), removed_left, removed_right, pivot, 10**6)
        first = 1 if side is Side.LEFT else 2
        for radius in range(first, 2 * len(g.left_ids) + 4, 2):
            oracle, reads = counting_oracle(g)
            ball = extract_ball(oracle, removed_left, removed_right, pivot, radius)
            # Extraction skips the constructor's checks; they accept its graph.
            bg = ball.graph
            assert FiniteBipartiteGraph(bg.left_ids, bg.right_ids, dict(bg.adjacency)) == bg
            # The engine passes dict key views, read in place.
            n_reads = len(reads)
            viewed = extract_ball(
                oracle, dict.fromkeys(removed_left).keys(),
                dict.fromkeys(removed_right).keys(), pivot, radius,
            )
            assert viewed == ball and reads[n_reads:] == reads[:n_reads]
            del reads[n_reads:]
            brute, brute_reads = counting_oracle(g)
            dist = brute_ball(brute, removed_left, removed_right, pivot, radius)
            lefts = sorted(i for (s, i) in dist if s is Side.LEFT)
            rights = sorted(i for (s, i) in dist if s is Side.RIGHT)
            assert list(ball.graph.left_ids) == lefts
            assert list(ball.graph.right_ids) == rights
            assert ball.graph.adjacency == {
                a: tuple(b for b in g.adjacency[a] if b in rights) for a in lefts
            }
            shell = {i for (s, i) in dist if s is Side.RIGHT and dist[(s, i)] == radius}
            assert ball.shell_right == shell
            exhausted = max(component.values()) < radius
            assert (ball.shell_right == frozenset()) == exhausted
            assert reads == brute_reads
            closed += exhausted
            open_ += not exhausted
    assert closed > 100 and open_ > 100


def closing_radius(oracle, pivot, limit=50):
    """The least radius up to ``limit`` whose ball around ``pivot`` has an
    empty shell."""
    for radius in range(1 if pivot.side is Side.LEFT else 2, limit + 1, 2):
        if not extract_ball(oracle, set(), set(), pivot, radius).shell_right:
            return radius
    raise AssertionError(f"the ball around {pivot!r} has a shell up to radius {limit}")


@pytest.mark.parametrize("pivot", [Vertex(Side.LEFT, 0), Vertex(Side.RIGHT, 2)])
def test_closed_ball_reads_each_row_once(pivot):
    # Two components: the path L0-R0-L1-R1-L2-R2 and the edge L3-R3.
    g = FiniteBipartiteGraph.from_adjacency({0: (0,), 1: (0, 1), 2: (1, 2), 3: (3,)})
    oracle, reads = counting_oracle(g)
    closing = closing_radius(oracle, pivot)
    del reads[:]
    ball = extract_ball(oracle, set(), set(), pivot, closing)
    assert ball.shell_right == frozenset()
    assert ball.graph.left_ids == (0, 1, 2) and ball.graph.right_ids == (0, 1, 2)
    inside = {Vertex(Side.LEFT, a) for a in ball.graph.left_ids} | {
        Vertex(Side.RIGHT, b) for b in ball.graph.right_ids
    }
    assert sorted(reads, key=repr) == sorted(inside, key=repr)
    closing_reads = list(reads)
    del reads[:]
    huge = 10**6 + 1 if pivot.side is Side.LEFT else 10**6 + 2
    far = extract_ball(oracle, set(), set(), pivot, huge)
    assert far.graph == ball.graph and far.shell_right == frozenset()
    assert reads == closing_reads


@pytest.mark.parametrize("budget", [0, -5])
def test_ball_rejects_budget_below_one(budget):
    # An isolated pivot would fit any budget, so only the argument check can
    # refuse it, and it does so before any row is read.
    oracle, reads = counting_oracle(FiniteBipartiteGraph.from_adjacency({0: ()}))
    with pytest.raises(ValueError, match=f"^max_vertices must be >= 1, got {budget}$"):
        extract_ball(oracle, set(), set(), Vertex(Side.LEFT, 0), 1, max_vertices=budget)
    assert reads == []


@pytest.mark.parametrize(
    "pivot, radius",
    [(Vertex(Side.LEFT, 0), 5), (Vertex(Side.LEFT, 0), 10**6 + 1), (Vertex(Side.RIGHT, 1), 10**6)],
)
def test_ball_detects_asymmetry_in_closed_component(pivot, radius):
    # L1's row lists R1 but R1's row omits L1.  From either pivot L1 is the
    # last level queried, and finds nothing new, so only the audit of that
    # last level can see the pair before extraction ends.
    rows = {
        Vertex(Side.LEFT, 0): (0, 1),
        Vertex(Side.LEFT, 1): (0, 1),
        Vertex(Side.RIGHT, 0): (0, 1),
        Vertex(Side.RIGHT, 1): (0,),
    }
    broken = BipartiteOracle(neighbors=lambda v: rows.get(v, ()))
    with pytest.raises(OracleError, match=r"asymmetric edge at \(1, 1\)"):
        extract_ball(broken, set(), set(), pivot, radius)


@pytest.mark.parametrize(
    "pivot, radius",
    [(Vertex(Side.LEFT, 0), 3), (Vertex(Side.LEFT, 0), 10**6 + 1), (Vertex(Side.RIGHT, 0), 2)],
)
def test_ball_detects_asymmetry_seen_from_a_right(pivot, radius):
    # R0's row lists L1 but L1's row omits R0; both rows are read, and only
    # R0's row shows the fault.  The pair is named left first.
    rows = {
        Vertex(Side.LEFT, 0): (0,),
        Vertex(Side.LEFT, 1): (2,),
        Vertex(Side.RIGHT, 0): (0, 1),
        Vertex(Side.RIGHT, 2): (1,),
    }
    broken = BipartiteOracle(neighbors=lambda v: rows.get(v, ()))
    with pytest.raises(OracleError, match=r"asymmetric edge at \(1, 0\)$"):
        extract_ball(broken, set(), set(), pivot, radius)


def test_check_symmetry_f2(f2_oracle):
    # every entry in the rows of the first 51 vertices on each side is mirrored
    for side in Side:
        for i in range(51):
            for j in f2_oracle.neighbors(Vertex(side, i)):
                assert i in f2_oracle.neighbors(Vertex(side.opposite(), j)), (side, i, j)
