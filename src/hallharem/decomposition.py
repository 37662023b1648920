"""Doubling decompositions of free-group actions, built and verified.

The action graph of a free group acting on itself by left multiplication
joins index x to every index in K∘x for a fixed symmetric word set K
containing the identity.  Driving the lazy matcher on this graph at k = 2
yields a two-to-one assignment whose two branches psi1/psi2 split the
naturals into two computable halves, each carried back onto the whole set
by translations theta drawn from K; the resulting piece families (indexed
by K) are what ``verify_decomposition`` checks on finite windows.

``ClassicF2Decomp`` is the hand-built rank-2 decomposition along initial
letters (with the usual adjustment absorbing the negative powers of the
first generator), used as an engine-independent oracle for the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Protocol

from .core_graph import BipartiteOracle, Vertex
from .errors import InternalError
from .group_kit import GeneratorSet, Word, act, enumeration, identity, inv
from .harem_engine import DEFAULT_MAX_BALL, EngineState, identity_witness

TIGHT_EXPANSION_N = 2  # any finite set loses half its size under some generator


@dataclass(frozen=True)
class ActionGraphSpec:
    """Recipe for the action graph of the free group that ``r_set`` lives in.

    In tight mode the edge set K is the generating ball itself (n1 = 1);
    corollary mode takes the n1-fold product K = R^n1 where n1 is the least
    with (1 + 1/n)^n1 >= 3 exactly, trading a denser graph for the generic
    expansion argument.  ``rank``, ``n1`` and ``k_set`` follow from the fields.
    """

    r_set: GeneratorSet
    n: int
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("tight", "corollary"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def rank(self) -> int:
        return self.r_set.rank

    @cached_property
    def n1(self) -> int:
        n1 = 1
        if self.mode == "corollary":
            while (self.n + 1) ** n1 < 3 * self.n**n1:  # (1 + 1/n)^n1 < 3
                n1 += 1
        return n1

    @cached_property
    def k_set(self) -> GeneratorSet:
        return self.r_set if self.n1 == 1 else self.r_set.power(self.n1)


def tight_spec(rank: int = 2) -> ActionGraphSpec:
    return ActionGraphSpec(GeneratorSet.standard(rank), TIGHT_EXPANSION_N, "tight")


def corollary_spec(rank: int = 2, n: int = 1) -> ActionGraphSpec:
    return ActionGraphSpec(GeneratorSet.standard(rank), n, "corollary")


def build_action_graph(spec: ActionGraphSpec) -> BipartiteOracle:
    """Both sides are the word indices; x and y are adjacent iff y lies in
    K∘x.  K is symmetric with identity, so adjacency is symmetric and every
    index is its own neighbor.

    Rows are memoized: the left and the right row of an index coincide, so
    the two sides share one tuple.  When K is the standard generating set
    each row comes in closed form from ``Enumeration.generator_row``; any
    other K folds ``act`` over its words.
    """
    memo: dict[int, tuple[int, ...]] = {}
    k_words = spec.k_set.elements
    # K is symmetric, distinct and holds e, so 2r+1 words of at most one
    # letter are exactly e and the generators with their inverses.
    if len(k_words) == 2 * spec.rank + 1 and all(len(k) <= 1 for k in k_words):
        make_row = enumeration(spec.rank).generator_row
    else:
        def make_row(i: int) -> tuple[int, ...]:
            return tuple(sorted({act(k, i) for k in k_words}))

    def neighbors(v: Vertex) -> tuple[int, ...]:
        row = memo.get(v.index)
        if row is None:
            row = memo[v.index] = make_row(v.index)
        return row

    return BipartiteOracle(
        neighbors=neighbors,
        name=f"action(rank={spec.rank},mode={spec.mode})",
    )


class DecompProvider(Protocol):
    rank: int

    def psi(self, m: int) -> tuple[int, int]: ...

    def theta(self, m: int, which: int) -> Word: ...


class ParadoxDecomp:
    """Engine-backed doubling decomposition of a free-group action.

    psi(m) is the sorted pair of right partners of left vertex m under the
    lazy (1,2)-matching; theta(m, i) is the first word of K carrying m to
    psi_i(m).  Pieces follow: m belongs to A_k iff theta(m, 1) = k and to
    B_k iff theta(m, 2) = k.  Queries run engine steps on demand and are
    practical only for small indices.
    """

    def __init__(self, spec: ActionGraphSpec, max_ball_size: int = DEFAULT_MAX_BALL):
        self.spec = spec
        self.rank = spec.rank
        self.oracle = build_action_graph(spec)
        self.engine = EngineState(
            self.oracle, k=2, h=identity_witness(), max_ball_size=max_ball_size
        )

    def psi(self, m: int) -> tuple[int, int]:
        star = self.engine.match_left(m)
        return star[0], star[1]

    def theta(self, m: int, which: int) -> Word:
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        target = self.psi(m)[which - 1]
        for k in self.spec.k_set.elements:
            if act(k, m) == target:
                return k
        raise InternalError(f"no word of K maps {m} to its partner {target}")

    def run_steps(self, count: int) -> None:
        for _ in range(count):
            self.engine.run_step()


class ClassicF2Decomp:
    """The textbook rank-2 doubling along initial letters.

    Words are split by first letter into W(a), W(A), W(b), W(B) plus the
    trunk {e, A, AA, ...}, which is absorbed into the a-side piece.  With
    P1 = W(a) ∪ trunk, the two exact identities are
    X = P1 ⊔ a·(X ∖ P1) and X = W(b) ⊔ b·(X ∖ W(b)), giving a four-piece
    decomposition with translations drawn from {e, A, B}.  Both thetas of m
    come from one read of its first letter and the digits after it.  Only
    the last index's pair is kept: the verifier asks about one index up to
    ten times in a row, and a table over the window would grow with it.
    """

    def __init__(self) -> None:
        self.rank = 2
        self.k_set = GeneratorSet.standard(2)
        self._enum = enumeration(2)
        self._id = identity(2)
        self._a_inv = Word(2, (-1,))
        self._b_inv = Word(2, (-2,))
        self._last: int | None = None  # None, not -1, so head(-1) still raises
        self._pair: tuple[Word, Word]  # the thetas of _last, set by _thetas

    def _thetas(self, m: int) -> tuple[Word, Word]:
        if m != self._last:
            first, tail = self._enum.head(m)
            # P1 is W(a) and the trunk: e, and A^n, whose tail digits are all 0.
            keep_a = first in (0, 1) or (first == -1 and tail == 0)
            self._pair = (
                self._id if keep_a else self._a_inv,
                self._id if first == 2 else self._b_inv,
            )
            self._last = m
        return self._pair

    def psi(self, m: int) -> tuple[int, int]:
        t1, t2 = self._thetas(m)
        return act(t1, m), act(t2, m)

    def theta(self, m: int, which: int) -> Word:
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        return self._thetas(m)[which - 1]

    # The verifier's repeat questions skip the call to _thetas, and Words are
    # compared field by field: the dataclass __eq__ call would cost more
    # than the rest of the question.
    def a_member(self, k: Word, m: int) -> bool:
        t = (self._pair if m == self._last else self._thetas(m))[0]
        return k.letters == t.letters and k.rank == t.rank

    def b_member(self, k: Word, m: int) -> bool:
        t = (self._pair if m == self._last else self._thetas(m))[1]
        return k.letters == t.letters and k.rank == t.rank


def planted_defect_classifier(
    base: Callable[[Word, int], bool], index: int, wrong: Word
) -> Callable[[Word, int], bool]:
    """Misclassify one index into the piece of ``wrong`` (test fixture)."""

    def classify(k: Word, m: int) -> bool:
        if m == index:
            return k == wrong
        return base(k, m)

    return classify


@dataclass(frozen=True)
class DecompViolation:
    kind: str
    index: int
    detail: tuple

    def __str__(self) -> str:
        return f"{self.kind}@{self.index}{self.detail}"


@dataclass(frozen=True)
class DecompReport:
    violations: tuple[DecompViolation, ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_decomposition(
    classify_a: Callable[[Word, int], bool],
    classify_b: Callable[[Word, int], bool],
    k_set: GeneratorSet,
    window: int,
) -> DecompReport:
    """Mechanical check of the doubling identities on the indices below
    ``window``.

    For every such m: m must lie in exactly one A-piece and exactly one
    B-piece, and m must be hit by exactly one translate among
    {k∘A_k} ∪ {k∘B_k}.  The preimage of m under k is k⁻¹∘m, so the second
    check runs over |K| candidate sources per side.  Violations are data.
    """
    indices = range(window)
    named = [(k, str(k), inv(k)) for k in k_set.elements]
    violations: list[DecompViolation] = []
    for m in indices:
        a_homes = [name for k, name, _ in named if classify_a(k, m)]
        if len(a_homes) != 1:
            violations.append(DecompViolation("a-pieces", m, tuple(a_homes)))
        b_homes = [name for k, name, _ in named if classify_b(k, m)]
        if len(b_homes) != 1:
            violations.append(DecompViolation("b-pieces", m, tuple(b_homes)))
        hits: list[tuple[str, str, int]] = []
        for k, name, k_inv in named:
            x = act(k_inv, m)
            if classify_a(k, x):
                hits.append(("A", name, x))
            if classify_b(k, x):
                hits.append(("B", name, x))
        if len(hits) != 1:
            violations.append(DecompViolation("translates", m, tuple(hits)))
    return DecompReport(tuple(violations), len(indices))


def verify_engine_window(decomp: ParadoxDecomp) -> DecompReport:
    """Check the doubling identities on the portion an engine has committed.

    Every committed left vertex must carry two distinct partners reachable
    through K (theta-soundness, one A-home and one B-home each), and every
    removed right vertex must be claimed by exactly one branch of exactly
    one committed star.
    """
    engine = decomp.engine
    k_words = decomp.spec.k_set.elements
    violations: list[DecompViolation] = []
    claimed: dict[int, list[tuple[int, int]]] = {}
    committed = sorted(engine.stars)
    for m in committed:
        p1, p2 = decomp.psi(m)
        if not p1 < p2:
            violations.append(DecompViolation("psi-order", m, (p1, p2)))
        for which, target in ((1, p1), (2, p2)):
            claimed.setdefault(target, []).append((m, which))
            homes = [k for k in k_words if act(k, m) == target]
            if not homes:
                violations.append(DecompViolation("theta-unsound", m, (which, target)))
                continue
            # The free group acts freely: the one word that carries m to
            # target is its home in K, so no membership test is needed.
            theta = decomp.theta(m, which)
            if act(theta, m) != target:
                violations.append(DecompViolation("theta-unsound", m, (which, str(theta))))
    removed = frozenset(engine.removed_right)
    for target, owners in sorted(claimed.items()):
        if len(owners) != 1:
            violations.append(DecompViolation("translates", target, tuple(owners)))
        if target not in removed:
            violations.append(DecompViolation("image-not-removed", target, ()))
    for target in sorted(removed - set(claimed)):
        violations.append(DecompViolation("removed-unclaimed", target, ()))
    return DecompReport(tuple(violations), len(committed))


TSV_HEADER = "index\tword\tpsi1\tpsi1_word\tpsi2\tpsi2_word\ttheta1\ttheta2"


def tsv_rows(provider: DecompProvider, window: range) -> Iterable[str]:
    """Deterministic TSV dump of a decomposition over an index window, its
    indices read as words of the provider's rank."""
    e = enumeration(provider.rank)
    yield TSV_HEADER
    for m in window:
        p1, p2 = provider.psi(m)
        yield "\t".join(
            (
                str(m),
                str(e.index_to_word(m)),
                str(p1),
                str(e.index_to_word(p1)),
                str(p2),
                str(e.index_to_word(p2)),
                str(provider.theta(m, 1)),
                str(provider.theta(m, 2)),
            )
        )
