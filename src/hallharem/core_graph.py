"""Finite and oracle-presented bipartite graphs, and induced ball subgraphs.

Both sides of every bipartite graph here are (subsets of) the natural
numbers; a vertex is a (side, index) pair and indices are never renumbered,
so matchings extracted from local subgraphs are stated in global indices.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import lt
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping

from .errors import BallBudgetExceeded, OracleError, ParseError

DEFAULT_MAX_BALL = 5_000_000


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"

    def opposite(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


@dataclass(frozen=True)
class Vertex:
    side: Side
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"vertex index must be >= 0, got {self.index}")

    def __repr__(self) -> str:
        return f"{self.side.value}{self.index}"


@dataclass(frozen=True)
class BipartiteOracle:
    """A bipartite graph given by one procedure.

    ``neighbors`` maps a vertex to the strictly increasing tuple of
    opposite-side indices adjacent to it; rows must be symmetric (j is in
    the row of Li iff i is in the row of Rj).  Oracles must be pure:
    repeated calls return identical answers.

    ``left_support``/``right_support`` are None for graphs living on all of
    the naturals; finite graphs wrapped as oracles declare their vertex sets
    so lazy consumers know when a side is exhausted.
    """

    neighbors: Callable[[Vertex], tuple[int, ...]]
    name: str = "oracle"
    left_support: tuple[int, ...] | None = None
    right_support: tuple[int, ...] | None = None

    def support(self, side: Side) -> tuple[int, ...] | None:
        return self.left_support if side is Side.LEFT else self.right_support


@dataclass(frozen=True, eq=True)
class FiniteBipartiteGraph:
    """An explicit finite bipartite graph.

    ``adjacency`` holds exactly one row per left index: the sorted tuple of
    its right neighbors, ``()`` for an isolated left.  An isolated right
    appears in ``right_ids`` with no incident edge.  Treat instances as
    immutable.
    """

    left_ids: tuple[int, ...]
    right_ids: tuple[int, ...]
    adjacency: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        _check_sorted_unique(self.left_ids, "left_ids")
        _check_sorted_unique(self.right_ids, "right_ids")
        right_set = set(self.right_ids)
        left_set = set(self.left_ids)
        for a, row in self.adjacency.items():
            if a not in left_set:
                raise ValueError(f"adjacency key {a} not in left_ids")
            # The label is formatted only for a row that fails.
            fault = _order_fault(row)
            if fault is not None:
                raise ValueError(f"adjacency[{a}] {fault}")
            if not right_set.issuperset(row):
                raise ValueError(f"adjacency[{a}] mentions unknown right ids")
        # Every key is a left, so equal sizes mean every left has a row.
        if len(self.adjacency) != len(self.left_ids):
            missing = sorted(left_set.difference(self.adjacency))
            raise ValueError(f"adjacency has no row for left ids {missing}")

    @classmethod
    def _from_ball(
        cls,
        left_ids: tuple[int, ...],
        right_ids: tuple[int, ...],
        adjacency: dict[int, tuple[int, ...]],
    ) -> "FiniteBipartiteGraph":
        """The graph ``extract_ball`` built, without ``__post_init__``'s
        checks, which extraction's own invariant replaces one by one:

        - the ids are sorted and unique: they are the sorted keys of a dict;
        - every left has a row: every ball left is strictly inside the
          radius, so its row was read;
        - every row is strictly increasing and non-negative: each read row
          is checked, and filtering out removed rights keeps the order;
        - every row entry is a ball right: each neighbor of a read row is
          either removed, and filtered out, or added to the ball.

        Nothing but ``extract_ball`` calls it.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "left_ids", left_ids)
        object.__setattr__(graph, "right_ids", right_ids)
        object.__setattr__(graph, "adjacency", adjacency)
        return graph

    @staticmethod
    def from_adjacency(
        adjacency: Mapping[int, Iterable[int]],
        *,
        right_ids: Iterable[int] | None = None,
    ) -> "FiniteBipartiteGraph":
        adj = {a: tuple(sorted(set(row))) for a, row in adjacency.items()}
        rights = set() if right_ids is None else set(right_ids)
        for row in adj.values():
            rights.update(row)
        return FiniteBipartiteGraph(tuple(sorted(adj)), tuple(sorted(rights)), adj)

    @cached_property
    def right_adjacency(self) -> dict[int, tuple[int, ...]]:
        radj: dict[int, list[int]] = {}
        for a in self.left_ids:
            for b in self.adjacency[a]:
                radj.setdefault(b, []).append(a)
        return {b: tuple(row) for b, row in radj.items()}

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency.values())

    def as_oracle(self, name: str = "finite") -> BipartiteOracle:
        def neighbors(v: Vertex) -> tuple[int, ...]:
            if v.side is Side.LEFT:
                return self.adjacency.get(v.index, ())
            return self.right_adjacency.get(v.index, ())

        return BipartiteOracle(
            neighbors=neighbors,
            name=name,
            left_support=self.left_ids,
            right_support=self.right_ids,
        )


@dataclass(frozen=True, eq=True)
class BallSubgraph:
    """The induced residual subgraph within a fixed path-distance of a pivot.

    ``shell_right`` holds the right vertices at exactly the extraction
    radius; every other vertex of the subgraph is strictly closer to the
    pivot, and an empty shell means the ball is the pivot's whole residual
    component.  Radius parity forces the outermost layer onto the right
    side: odd radii pair with left pivots, even radii with right pivots.
    """

    graph: FiniteBipartiteGraph
    shell_right: frozenset[int]

    @property
    def interior_right(self) -> frozenset[int]:
        shell = self.shell_right
        return frozenset(b for b in self.graph.right_ids if b not in shell)


def extract_ball(
    oracle: BipartiteOracle,
    removed_left: AbstractSet[int],
    removed_right: AbstractSet[int],
    pivot: Vertex,
    radius: int,
    max_vertices: int = DEFAULT_MAX_BALL,
) -> BallSubgraph:
    """Breadth-first extraction of the induced ball around ``pivot``.

    Removed vertices are invisible: they are neither visited nor traversed,
    so the result is the ball of the residual graph.  The removed sets are
    read, not copied, and only through ``in`` and ``isdisjoint``, so a set
    or a dict's key view will do.  Extraction stops at the first level that
    finds no new vertex: the ball is then the pivot's whole residual
    component and ``shell_right`` is empty, so an empty shell means a closed
    residual component.  The work is thus per ball vertex, not per radius
    level.  Raises ValueError on a radius/side mismatch or a budget below
    1, before any row is read; OracleError if a queried row is not a
    strictly increasing run of naturals or the rows fail symmetry on the
    pairs queried in both directions; and BallBudgetExceeded past
    ``max_vertices``.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if max_vertices < 1:
        raise ValueError(f"max_vertices must be >= 1, got {max_vertices}")
    if pivot.side is Side.LEFT and radius % 2 == 0:
        raise ValueError(f"left pivot needs an odd radius, got {radius}")
    if pivot.side is Side.RIGHT and radius % 2 == 1:
        raise ValueError(f"right pivot needs an even radius, got {radius}")
    home_left = pivot.side is Side.LEFT
    skip_next, skip = (removed_left, removed_right) if home_left else (removed_right, removed_left)
    if pivot.index in skip_next:
        raise ValueError(f"pivot {pivot!r} is a removed vertex")

    # Per side, every ball vertex maps to its row once queried, else None;
    # each dict holds its side's vertices in the order they were found.
    # ``frontier`` lists the vertices of the last level found, which are
    # queried next.  Each level swaps the roles of the two sides' dicts
    # and removed sets.
    home: dict[int, tuple[int, ...] | None] = {pivot.index: None}
    away: dict[int, tuple[int, ...] | None] = {}
    frontier = [pivot.index]
    size = 1
    side, other = pivot.side, pivot.side.opposite()
    mine, theirs = home, away
    for _ in range(radius):
        found: list[int] = []
        for i in frontier:
            nbrs = oracle.neighbors(Vertex(side, i))
            if not all(map(lt, nbrs, nbrs[1:])):
                raise OracleError(f"{oracle.name}: neighbors({side.value}{i}) not strictly sorted")
            if nbrs and nbrs[0] < 0:  # sorted, so the least entry comes first
                raise OracleError(f"{oracle.name}: neighbors({side.value}{i}) has a negative index")
            mine[i] = nbrs
            for j in nbrs:
                if j in skip or j in theirs:
                    continue
                theirs[j] = None
                size += 1
                if size > max_vertices:
                    raise BallBudgetExceeded(
                        f"ball around {pivot!r} exceeds {max_vertices} vertices"
                    )
                found.append(j)
        if not found:
            break
        frontier = found
        side, other = other, side
        mine, theirs = theirs, mine
        skip, skip_next = skip_next, skip
    # A search that ran out of vertices found none at its last level; one
    # that reached the radius found the shell there, whose rows stay None.
    shell = frozenset(found)

    lefts, rights = (home, away) if home_left else (away, home)
    for mine, theirs, left_side in ((lefts, rights, True), (rights, lefts, False)):
        for i, row in mine.items():
            if row is None:
                continue
            for j in row:
                back = theirs.get(j)
                if back is not None and i not in back:
                    pair = (i, j) if left_side else (j, i)
                    raise OracleError(f"{oracle.name}: asymmetric edge at {pair}")

    # Every left vertex of the ball is strictly inside, so its row was read
    # and each of its neighbors is a ball right or a removed right.  The
    # row restricted to the ball is then the oracle's own tuple unless it
    # meets a removed right, and ``lefts`` becomes the adjacency.
    for a, row in lefts.items():
        if not removed_right.isdisjoint(row):
            lefts[a] = tuple(j for j in row if j not in removed_right)
    graph = FiniteBipartiteGraph._from_ball(tuple(sorted(lefts)), tuple(sorted(rights)), lefts)
    return BallSubgraph(graph=graph, shell_right=shell)


def parse_bg(text: str | bytes) -> tuple[FiniteBipartiteGraph, int | None]:
    """Parse the .bg text format; returns the graph and the optional header k.

    Format: UTF-8 lines, after one optional byte-order mark; ``#`` starts
    a comment; an optional ``k <int>`` header may precede the data; data
    lines read ``A <i>: <j1> <j2> ...`` with strictly increasing i across
    lines and strictly increasing j within a line.  Every number is one or
    more ASCII decimal digits, the right vertices are the listed j, and
    blank lines are ignored.
    """
    k: int | None = None
    adjacency: dict[int, tuple[int, ...]] = {}
    last_left = -1
    for line_no, line in _data_lines(text):
        if line.startswith("k "):
            if adjacency:
                raise ParseError(line_no, "k header must precede data lines")
            if k is not None:
                raise ParseError(line_no, "duplicate k header")
            try:
                k = _natural(line[2:])
            except ValueError:
                raise ParseError(line_no, f"bad k header: {line!r}") from None
            if k < 1:
                raise ParseError(line_no, "k must be >= 1")
            continue
        if not line.startswith("A "):
            raise ParseError(line_no, f"unrecognized line: {line!r}")
        head, sep, tail = line[2:].partition(":")
        if not sep:
            raise ParseError(line_no, "missing ':' in data line")
        try:
            i = _natural(head)
        except ValueError:
            raise ParseError(line_no, f"bad left index: {head.strip()!r}") from None
        if i <= last_left:
            raise ParseError(line_no, f"left index {i} not strictly increasing")
        try:
            row = tuple(map(_natural, tail.split()))
        except ValueError:
            raise ParseError(line_no, "bad right index") from None
        if any(x >= y for x, y in zip(row, row[1:])):
            raise ParseError(line_no, "right indices not strictly increasing")
        adjacency[i] = row
        last_left = i
    rights = tuple(sorted(set().union(*adjacency.values())))
    return FiniteBipartiteGraph(tuple(sorted(adjacency)), rights, adjacency), k


def dump_bg(graph: FiniteBipartiteGraph, k: int | None = None) -> str:
    """Serialize a finite graph to the .bg format, which parse_bg reads
    back with the same vertices and edges.  A .bg file lists a right vertex
    only through its edges, so a graph with an isolated right raises
    ValueError rather than lose it."""
    unlisted = sorted(set(graph.right_ids).difference(*graph.adjacency.values()))
    if unlisted:
        raise ValueError(f"the .bg format cannot list isolated right ids {unlisted}")
    lines = []
    if k is not None:
        lines.append(f"k {k}")
    for a in graph.left_ids:
        row = " ".join(str(j) for j in graph.adjacency[a])
        lines.append(f"A {a}: {row}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def _data_lines(text: str | bytes) -> Iterator[tuple[int, str]]:
    """The numbered, stripped lines of a .bg or matching text that are
    neither blank nor ``#`` comments.  Bytes are decoded as UTF-8, and one
    leading byte-order mark is ignored.  Lines end only at ``\n``, ``\r\n``
    and ``\r``, as in a file opened as text, so a comment may hold any
    other character, such as a form feed or U+2028."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = io.StringIO(text.removeprefix("\ufeff"), newline=None)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _natural(token: str) -> int:
    """The index that ``token`` spells, after surrounding whitespace, in
    one or more ASCII decimal digits; anything else raises ValueError."""
    token = token.strip()
    if token.isascii() and token.isdigit():
        return int(token)
    raise ValueError(f"not an index: {token!r}")


def _order_fault(seq: tuple[int, ...]) -> str | None:
    """Why ``seq`` is not a strictly increasing run of naturals, or None."""
    if not all(map(lt, seq, seq[1:])):
        return "must be strictly increasing"
    if seq and seq[0] < 0:  # sorted, so the least entry comes first
        return "must be non-negative"
    return None


def _check_sorted_unique(seq: tuple[int, ...], label: str) -> None:
    fault = _order_fault(seq)
    if fault is not None:
        raise ValueError(f"{label} {fault}")
