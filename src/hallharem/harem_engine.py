"""Lazy construction of perfect (1,k)-matchings on oracle graphs.

The engine alternates between the two sides: at even steps it takes the
least unmatched left index, at odd steps the least unmatched right index.
Around the chosen pivot it extracts a ball of the residual graph whose
radius is dictated by the (shifted) margin witness, solves the local
matching problem with the ball's outermost right layer relaxed to
optional, and commits the single star adjacent to the pivot.  Committed
stars are never revisited, so match queries are answered incrementally.

On genuinely expanding infinite graphs ball sizes grow exponentially with
the step number; faithful execution is practical only for the first few
steps, and a configurable vertex budget aborts instead of thrashing.
Finite graphs wrapped as oracles can be driven to exhaustion.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import KeysView
from dataclasses import dataclass
from typing import Callable

from .core_graph import DEFAULT_MAX_BALL, BipartiteOracle, Side, Vertex, extract_ball
from .errors import WitnessRefuted, EngineExhausted
from .flow_matching import MatchingRequest, solve_star


@dataclass(frozen=True)
class HWitness:
    """A total computable margin function with eval(0) = 0."""

    eval: Callable[[int], int]
    description: str = "h"

    def __post_init__(self) -> None:
        if self.eval(0) != 0:
            raise ValueError(f"{self.description}: h(0) must be 0")


def identity_witness() -> HWitness:
    return HWitness(eval=lambda n: n, description="identity")


def vacuous_witness(left_size: int) -> HWitness:
    """Witness for finite graphs: constant |A|+1 above zero, so every
    margin condition is vacuous on the left side."""
    bound = left_size + 1
    return HWitness(
        eval=lambda n: 0 if n == 0 else bound,
        description=f"vacuous({bound})",
    )


@dataclass(frozen=True)
class EngineSnapshot:
    """Immutable copy of the committed state, for reporting and replay."""

    step: int
    stars: tuple[tuple[int, tuple[int, ...]], ...]
    removed_left: frozenset[int]
    removed_right: frozenset[int]


class EngineState:
    """Sequential, memoizing matcher; callers must serialize access.

    ``run_step`` changes the state only after the local solve succeeds, so
    a step that raises leaves the engine exactly as it was before the call.
    """

    def __init__(
        self,
        oracle: BipartiteOracle,
        k: int,
        h: HWitness,
        max_ball_size: int = DEFAULT_MAX_BALL,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if max_ball_size < 1:
            raise ValueError(f"max_ball_size must be >= 1, got {max_ball_size}")
        self.oracle = oracle
        self.k = k
        self.h = h
        self.max_ball_size = max_ball_size
        self.step = 0
        self.stars: dict[int, tuple[int, ...]] = {}
        self.inverse: dict[int, int] = {}
        self.next_left = 0
        self.next_right = 0

    @property
    def removed_left(self) -> KeysView[int]:
        """The matched left indices (a read-only view of ``stars``)."""
        return self.stars.keys()

    @property
    def removed_right(self) -> KeysView[int]:
        """The matched right indices (a read-only view of ``inverse``)."""
        return self.inverse.keys()

    # -- witness bookkeeping ----------------------------------------------

    def shifted_h(self) -> Callable[[int], int]:
        """The witness after ``step`` star removals: each removed star
        shifts the argument by k (and 0 stays fixed)."""
        shift = self.step * self.k
        base = self.h.eval
        return lambda n: 0 if n == 0 else base(n + shift)

    def step_radius(self, pivot_side: Side) -> int:
        h_s = self.shifted_h()
        if pivot_side is Side.LEFT:
            return max(2 * h_s(self.k) + 1, 3)
        return max(2 * h_s(self.k) + 2, 4)

    # -- the back-and-forth -----------------------------------------------

    def _scan(self, side: Side) -> int | None:
        removed = self.removed_left if side is Side.LEFT else self.removed_right
        start = self.next_left if side is Side.LEFT else self.next_right
        support = self.oracle.support(side)
        if support is None:
            i = start
            while i in removed:
                i += 1
            return i
        pos = bisect_left(support, start)
        while pos < len(support) and support[pos] in removed:
            pos += 1
        return support[pos] if pos < len(support) else None

    def _pick_pivot(self) -> Vertex:
        side = Side.LEFT if self.step % 2 == 0 else Side.RIGHT
        i = self._scan(side)
        if i is None:
            side = side.opposite()
            i = self._scan(side)
        if i is None:
            raise EngineExhausted(f"{self.oracle.name}: all vertices matched")
        return Vertex(side, i)

    def run_step(self) -> tuple[int, tuple[int, ...]]:
        """Commit one star and return it (left index, k right partners)."""
        pivot = self._pick_pivot()
        ball = extract_ball(
            self.oracle,
            self.removed_left,
            self.removed_right,
            pivot,
            self.step_radius(pivot.side),
            max_vertices=self.max_ball_size,
        )
        req = MatchingRequest(
            graph=ball.graph,
            k=self.k,
            required_left=frozenset(ball.graph.left_ids),
            required_right=ball.interior_right,
            optional_right=ball.shell_right,
        )
        result = solve_star(req, pivot)
        if result is None:
            raise WitnessRefuted(
                f"{self.oracle.name}: no local matching around {pivot!r} at "
                f"step {self.step} (witness {self.h.description} is invalid)"
            )
        a, star = result
        self.stars[a] = star
        for b in star:
            self.inverse[b] = a
        if pivot.side is Side.LEFT:
            self.next_left = pivot.index + 1
        else:
            self.next_right = pivot.index + 1
        self.step += 1
        return a, star

    def _match(self, side: Side, i: int, matched: dict):
        """The committed entry of vertex i of ``side`` in ``matched``,
        running steps until there is one."""
        name = "left" if side is Side.LEFT else "right"
        if i < 0:
            raise ValueError(f"{name} vertex must be >= 0, got {i}")
        support = self.oracle.support(side)
        if support is not None and i not in support:
            raise ValueError(f"{name} vertex {i} is not in the oracle support")
        while i not in matched:
            self.run_step()
        return matched[i]

    def match_left(self, i: int) -> tuple[int, ...]:
        """The k partners of left vertex i, running steps as needed."""
        return self._match(Side.LEFT, i, self.stars)

    def match_right(self, j: int) -> int:
        """The unique partner of right vertex j, running steps as needed."""
        return self._match(Side.RIGHT, j, self.inverse)

    def committed_prefix(self) -> EngineSnapshot:
        return EngineSnapshot(
            step=self.step,
            stars=tuple(sorted(self.stars.items())),
            removed_left=frozenset(self.removed_left),
            removed_right=frozenset(self.removed_right),
        )

    def drive_to_exhaustion(self) -> EngineSnapshot:
        """Run steps until a finite oracle has no unmatched vertex left."""
        if self.oracle.left_support is None or self.oracle.right_support is None:
            raise ValueError("only finite-support oracles can be exhausted")
        while True:
            try:
                self.run_step()
            except EngineExhausted:
                return self.committed_prefix()
