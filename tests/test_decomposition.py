import dataclasses
import random

import pytest

from hallharem import decomposition
from hallharem.core_graph import Side, Vertex
from hallharem.decomposition import (
    ActionGraphSpec,
    ClassicF2Decomp,
    ParadoxDecomp,
    build_action_graph,
    corollary_spec,
    planted_defect_classifier,
    tight_spec,
    tsv_rows,
    verify_decomposition,
    verify_engine_window,
)
from hallharem.group_kit import (
    GeneratorSet,
    act,
    ball,
    d_r,
    enumeration,
    inv,
    is_folner,
    parse_word,
)


def w2(s):
    return parse_word(2, s)


@pytest.fixture(scope="module")
def f2_decomp():
    d = ParadoxDecomp(tight_spec(2))
    d.run_steps(2)
    return d


# -- specs and the action graph ------------------------------------------------


def test_tight_spec_shape():
    spec = tight_spec(2)
    assert spec.n1 == 1 and spec.k_set == spec.r_set
    assert [str(w) for w in spec.k_set.elements] == ["e", "a", "A", "b", "B"]


def test_corollary_spec_arithmetic():
    spec = corollary_spec(2, n=1)
    assert spec.n1 == 2  # (1 + 1/1)^2 = 4 >= 3
    assert len(spec.k_set.elements) == 17
    spec3 = corollary_spec(2, n=2)
    assert spec3.n1 == 3  # (3/2)^2 = 9/4 < 3 <= (3/2)^3


def test_spec_validation():
    r = GeneratorSet.standard(2)
    with pytest.raises(ValueError, match="unknown mode"):
        ActionGraphSpec(r, 1, "loose")
    with pytest.raises(ValueError, match="n must be >= 1"):
        ActionGraphSpec(r, 0, "corollary")


def test_spec_derives_n1_and_k_set():
    # n1 and K follow from mode, n and R, so no spec can contradict them
    r = GeneratorSet.standard(2)
    tight = ActionGraphSpec(r, 5, "tight")
    assert tight.n1 == 1 and tight.k_set == r
    spec = ActionGraphSpec(r, 1, "corollary")
    assert spec.n1 == 2 and spec.k_set == r.power(2)
    assert spec == corollary_spec(2, n=1)
    with pytest.raises(TypeError):
        ActionGraphSpec(2, r, 1, 2, "corollary", r)
    with pytest.raises(AttributeError):
        spec.n1 = 1


def test_spec_rank_is_its_word_sets(f2_decomp):
    # The rank is read from R, so a spec cannot name a rank its words lack:
    # rank 3 over rank-2 words once drove the rank-2 graph while tsv_rows
    # decoded its indices in rank 3 (psi2 of index 2 printed as ab).
    assert [f.name for f in dataclasses.fields(ActionGraphSpec)] == ["r_set", "n", "mode"]
    for rank in (1, 2, 3):
        for spec in (tight_spec(rank), corollary_spec(rank)):
            assert spec.rank == spec.r_set.rank == rank
    with pytest.raises(TypeError):
        ActionGraphSpec(3, GeneratorSet.standard(2), 2, "tight")
    row = list(tsv_rows(f2_decomp, range(2, 3)))[1].split("\t")
    assert (row[1], row[4], row[5]) == ("A", "8", "AA")


def test_action_graph_neighbors_pin():
    oracle = build_action_graph(tight_spec(2))
    assert oracle.neighbors(Vertex(Side.LEFT, 0)) == (0, 1, 2, 3, 4)
    assert len(oracle.neighbors(Vertex(Side.LEFT, 0))) == 5


def test_action_graph_identity_edge():
    oracle = build_action_graph(tight_spec(2))
    for i in range(60):
        assert i in oracle.neighbors(Vertex(Side.LEFT, i))


def test_action_graph_symmetric():
    oracle = build_action_graph(tight_spec(2))
    rows = {
        side: [oracle.neighbors(Vertex(side, i)) for i in range(101)]
        for side in Side
    }
    for i in range(101):
        for j in range(101):
            assert (j in rows[Side.LEFT][i]) == (i in rows[Side.RIGHT][j]), (i, j)


def test_mode_consistency():
    # the oracle depends only on the word set: the corollary graph for
    # (n=1, n1=2) equals the tight graph over the squared generating set
    spec_c = corollary_spec(2, n=1)
    squared = GeneratorSet.standard(2).power(2)
    spec_t = ActionGraphSpec(squared, 2, "tight")
    a = build_action_graph(spec_c)
    b = build_action_graph(spec_t)
    for i in range(40):
        assert a.neighbors(Vertex(Side.LEFT, i)) == b.neighbors(Vertex(Side.LEFT, i))


def counted_act(monkeypatch):
    """Wrap ``decomposition.act`` where the oracle looks it up; returns the
    list that collects one entry per call."""
    calls = []

    def counting(k, i):
        calls.append(i)
        return act(k, i)

    monkeypatch.setattr(decomposition, "act", counting)
    return calls


def act_fold_row(k_set, i):
    return tuple(sorted({act(k, i) for k in k_set.elements}))


WINDOW = [*range(400), 10**15, 3**40 - 1, 3**40]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_tight_rows_in_closed_form(monkeypatch, rank):
    spec = tight_spec(rank)
    oracle = build_action_graph(spec)
    calls = counted_act(monkeypatch)
    for side in Side:
        for i in WINDOW:
            assert oracle.neighbors(Vertex(side, i)) == act_fold_row(spec.k_set, i)
    assert calls == []


@pytest.mark.parametrize(
    "spec",
    [
        corollary_spec(2, n=1),
        # 3 words of at most one letter in rank 2: not the standard set
        ActionGraphSpec(GeneratorSet.symmetrized(2, [w2("a")]), 2, "tight"),
    ],
    ids=["corollary", "a-only"],
)
def test_other_word_sets_fold_act(monkeypatch, spec):
    oracle = build_action_graph(spec)
    calls = counted_act(monkeypatch)
    for i in range(200):
        assert oracle.neighbors(Vertex(Side.LEFT, i)) == act_fold_row(spec.k_set, i)
    assert len(calls) == 200 * len(spec.k_set.elements)


# -- engine-backed decomposition -------------------------------------------------


def test_engine_psi_pins(f2_decomp):
    # committed stars after two steps: e -> {e, a} and A -> {A, AA}
    assert f2_decomp.psi(0) == (0, 1)
    assert f2_decomp.psi(2) == (2, 8)


def test_engine_theta_pins(f2_decomp):
    assert str(f2_decomp.theta(0, 1)) == "e"
    assert str(f2_decomp.theta(0, 2)) == "a"
    assert str(f2_decomp.theta(2, 1)) == "e"
    assert str(f2_decomp.theta(2, 2)) == "A"


def test_engine_theta_soundness(f2_decomp):
    for m in f2_decomp.engine.stars:
        p1, p2 = f2_decomp.psi(m)
        assert act(f2_decomp.theta(m, 1), m) == p1
        assert act(f2_decomp.theta(m, 2), m) == p2
        assert f2_decomp.theta(m, 1) in f2_decomp.spec.k_set.elements


def test_engine_psi_within_one_step(f2_decomp):
    r = f2_decomp.spec.r_set
    for m in f2_decomp.engine.stars:
        for p in f2_decomp.psi(m):
            assert d_r(r, m, p, 1) in (0, 1)


def test_engine_membership_partition(f2_decomp):
    k_set = f2_decomp.spec.k_set
    for m in f2_decomp.engine.stars:
        assert sum(f2_decomp.theta(m, 1) == k for k in k_set.elements) == 1
        assert sum(f2_decomp.theta(m, 2) == k for k in k_set.elements) == 1


def test_engine_window_verifies(f2_decomp):
    report = verify_engine_window(f2_decomp)
    assert report.ok
    assert report.checked == 2


def test_engine_images_partition_removed(f2_decomp):
    eng = f2_decomp.engine
    images1 = {f2_decomp.psi(m)[0] for m in eng.stars}
    images2 = {f2_decomp.psi(m)[1] for m in eng.stars}
    assert not images1 & images2
    assert images1 | images2 == eng.removed_right


def test_residual_margins_survive_first_step():
    # after one committed star the leftover graph still clears the shifted
    # margin demand on small left sets: with h1(n) = n + 2 and |X| <= 3 the
    # binding case is n = 1, |X| = 3, which needs |N(X)| - 2|X| >= 1 in the
    # residual; one star removes at most two rights from any neighborhood
    import itertools

    from hallharem.core_graph import Vertex as V

    d = ParadoxDecomp(tight_spec(2))
    d.engine.run_step()
    eng = d.engine
    oracle = eng.oracle
    h1 = eng.shifted_h()
    assert [h1(n) for n in (0, 1, 2)] == [0, 3, 4]
    survivors = [i for i in ball(d.spec.r_set, 0, 2) if i not in eng.removed_left]
    for size in (1, 2, 3):
        for xs in itertools.combinations(survivors, size):
            nb = set()
            for x in xs:
                nb.update(oracle.neighbors(V(Side.LEFT, x)))
            nb -= eng.removed_right
            margin = len(nb) - 2 * size
            for n in range(0, 4):
                if h1(n) <= size:
                    assert n <= margin, (xs, n, margin)


# -- the classical decomposition ---------------------------------------------------


def test_classic_pieces():
    # theta is e on the piece a branch keeps: the trunk and W(a) for branch
    # 1, W(b) for branch 2; everything else moves by A and by B.
    classic = ClassicF2Decomp()
    e = enumeration(2)
    keep, by_a, by_b = w2("e"), w2("A"), w2("B")
    expected = {
        "e": (keep, by_b),
        "AA": (keep, by_b),
        "ab": (keep, by_b),
        "Ab": (by_a, by_b),
        "ba": (by_a, keep),
        "Ba": (by_a, by_b),
    }
    for word, thetas in expected.items():
        m = e.word_to_index(w2(word))
        assert (classic.theta(m, 1), classic.theta(m, 2)) == thetas, word


def test_classic_two_sided_split_on_window():
    # X = P1 |_| a*P2 and X = W(b) |_| b*W(B): pointwise, m falls outside the
    # untranslated piece exactly when its preimage lies in the shifted piece
    # (theta is e exactly on the untranslated piece).  The pieces are read
    # off the decoded word, independently of theta.
    classic = ClassicF2Decomp()
    enum = enumeration(2)
    a, b, e = w2("a"), w2("b"), w2("e")

    def first_letter(m):
        """The first letter of word m; None for the trunk {e, A, AA, ...},
        which W(A) excludes."""
        letters = enum.index_to_word(m).letters
        return None if set(letters) <= {-1} else letters[0]

    for m in range(3000):
        assert (classic.theta(m, 1) != e) == (first_letter(act(inv(a), m)) == -1)
        assert (classic.theta(m, 2) != e) == (first_letter(act(inv(b), m)) == -2)


def test_classic_cached_pieces_match_decoded_words():
    # The classifier keeps the last index's two thetas.  Ask in shuffled
    # order, with repeats and the methods interleaved, so a pair kept for the
    # wrong index would answer some question; the expected pieces are read
    # off the decoded word.
    classic = ClassicF2Decomp()
    enum = enumeration(2)
    ks = classic.k_set.elements
    e, by_a, by_b = w2("e"), w2("A"), w2("B")

    def expected(m):
        letters = enum.index_to_word(m).letters
        keep_a = not letters or letters[0] == 1 or set(letters) == {-1}
        return (e if keep_a else by_a), (e if letters[:1] == (2,) else by_b)

    with pytest.raises(ValueError):
        classic.theta(-1, 1)
    # The first index of each length 1..9 and the last of the length before.
    levels = [enum.word_to_index(w2("a" * n)) for n in range(1, 10)]
    edges = [i + d for i in levels for d in (-1, 0)]
    trunk = [enum.word_to_index(w2("A" * n)) for n in range(1, 10)]
    indices = [*range(600), *edges, *trunk]
    assert max(len(enum.index_to_word(m)) for m in indices) == 9
    queries = [(m, kind) for m in indices for kind in ("theta", "a", "b", "psi")] * 2
    random.Random(16).shuffle(queries)
    for m, kind in queries:
        t1, t2 = expected(m)
        if kind == "theta":
            assert (classic.theta(m, 1), classic.theta(m, 2)) == (t1, t2), m
        elif kind == "a":
            assert [classic.a_member(k, m) for k in ks] == [k == t1 for k in ks], m
        elif kind == "b":
            assert [classic.b_member(k, m) for k in ks] == [k == t2 for k in ks], m
        else:
            assert classic.psi(m) == (act(t1, m), act(t2, m)), m
    for ask in (lambda: classic.theta(-1, 2), lambda: classic.a_member(e, -1),
                lambda: classic.b_member(by_b, -1), lambda: classic.psi(-1)):
        with pytest.raises(ValueError):
            ask()


@pytest.mark.parametrize(
    "make", [lambda: ParadoxDecomp(tight_spec(2)), ClassicF2Decomp], ids=["engine", "classic"]
)
def test_theta_rejects_a_third_partner(make):
    with pytest.raises(ValueError, match="^which must be 1 or 2$"):
        make().theta(0, 3)


def test_classic_verifies_on_window():
    classic = ClassicF2Decomp()
    report = verify_decomposition(
        classic.a_member, classic.b_member, classic.k_set, 2000
    )
    assert report.ok and report.checked == 2000


def test_classic_psi_images_partition():
    classic = ClassicF2Decomp()
    seen = {}
    for m in range(2000):
        p1, p2 = classic.psi(m)
        for p in (p1, p2):
            assert p not in seen, f"{p} hit twice"
            seen[p] = m


def test_planted_defect_exact_violations():
    classic = ClassicF2Decomp()
    wrong = w2("A")
    bad = planted_defect_classifier(classic.a_member, 7, wrong)
    report = verify_decomposition(bad, classic.b_member, classic.k_set, 60)
    # index 7 (word aB) sits in the a-side piece of e; the plant moves it to
    # the piece of A, so 7 loses its only hit and A(7) = B gains a second one
    assert not report.ok
    locations = {(v.kind, v.index) for v in report.violations}
    gained = act(wrong, 7)  # the plant claims 7 maps there under wrong
    assert locations == {("translates", 7), ("translates", gained)}


def test_cross_oracle_both_pass(f2_decomp):
    classic = ClassicF2Decomp()
    assert verify_decomposition(
        classic.a_member, classic.b_member, classic.k_set, 500
    ).ok
    assert verify_engine_window(f2_decomp).ok


class WrongThetaDecomp(ParadoxDecomp):
    """Answers theta(0, 2) with b, which carries 0 to 3, not to psi_2(0) = 1."""

    def theta(self, m, which):
        return w2("b") if (m, which) == (0, 2) else super().theta(m, which)


def plant_e_to_5(eng):
    # 5 (aa) lies outside K∘0 = {0, 1, 2, 3, 4}, so no word of K carries 0
    # there; it replaces 1 as a partner of 0
    eng.stars[0] = (0, 5)
    del eng.inverse[1]
    eng.inverse[5] = 0


def plant_shared_partner(eng):
    # 0 = a·A is reachable from 2, so both stars may claim it; 8 goes free
    eng.stars[2] = (0, 2)
    del eng.inverse[8]


@pytest.mark.parametrize(
    "plant, cls, expected",
    [
        (lambda eng: eng.stars.update({0: (1, 0)}), ParadoxDecomp, [("psi-order", 0, (1, 0))]),
        (plant_e_to_5, ParadoxDecomp, [("theta-unsound", 0, (2, 5))]),
        (lambda eng: None, WrongThetaDecomp, [("theta-unsound", 0, (2, "b"))]),
        (plant_shared_partner, ParadoxDecomp, [("translates", 0, ((0, 1), (2, 1)))]),
        (lambda eng: eng.inverse.pop(8), ParadoxDecomp, [("image-not-removed", 8, ())]),
        (lambda eng: eng.inverse.update({5: 0}), ParadoxDecomp, [("removed-unclaimed", 5, ())]),
    ],
    ids=["psi-order", "theta-unreachable", "theta-wrong-word", "translates",
         "image-not-removed", "removed-unclaimed"],
)
def test_engine_window_reports_each_planted_fault(f2_decomp, plant, cls, expected):
    # The two committed stars 0 -> (0, 1) and 2 -> (2, 8), copied into a
    # decomposition that has run no step, then edited.
    decomp = cls(tight_spec(2))
    decomp.engine.stars.update(f2_decomp.engine.stars)
    decomp.engine.inverse.update(f2_decomp.engine.inverse)
    plant(decomp.engine)
    report = verify_engine_window(decomp)
    assert [(v.kind, v.index, v.detail) for v in report.violations] == expected
    assert report.checked == 2


def test_classic_reports_index_in_two_a_pieces_and_no_b_piece():
    # Index 7 (aB) has thetas e and B; it is added to the A-piece of A and
    # taken out of every B-piece.
    classic = ClassicF2Decomp()
    two_a = lambda k, m: classic.a_member(k, m) or (m == 7 and k == w2("A"))
    no_b = lambda k, m: m != 7 and classic.b_member(k, m)
    report = verify_decomposition(two_a, no_b, classic.k_set, 60)
    assert [(v.kind, v.index, v.detail) for v in report.violations] == [
        # A·7 = 4 (the word B) is now hit from the A-piece of A as well
        ("translates", 4, (("A", "A", 7), ("B", "B", 0))),
        ("a-pieces", 7, ("e", "A")),
        ("b-pieces", 7, ()),
        # B·7 = 46 lost its only hit
        ("translates", 46, ()),
    ]


# -- expansion certificates ----------------------------------------------------------


def test_certificate_f2_balls():
    spec = tight_spec(2)  # n = 2
    for r in range(4):
        assert not is_folner(spec.r_set.elements, spec.n, ball(spec.r_set, 0, r))


def test_certificate_f2_n1_fails_on_balls():
    # with n = 1 the displaced part must be the whole set; only the
    # singleton ball manages that
    r = GeneratorSet.standard(2)
    spec = ActionGraphSpec(r, 1, "corollary")
    fam = [ball(r, 0, radius) for radius in range(3)]
    assert [is_folner(spec.r_set.elements, spec.n, f) for f in fam] == [False, True, True]


def test_certificate_rank1_contrast():
    spec_z = ActionGraphSpec(GeneratorSet.standard(1), 3, "tight")
    fam = [ball(spec_z.r_set, 0, r) for r in range(2, 4)]
    assert all(is_folner(spec_z.r_set.elements, spec_z.n, f) for f in fam)


def test_certificate_singleton():
    spec = tight_spec(2)
    assert not is_folner(spec.r_set.elements, spec.n, {0})
    # the first generator that expands it is a
    assert is_folner([w2("e")], spec.n, {0})
    assert not is_folner([w2("a")], spec.n, {0})


def test_certificate_empty_set_rejected():
    with pytest.raises(ValueError, match="^F must be non-empty$"):
        is_folner(tight_spec(2).r_set.elements, 2, set())


# -- TSV dump ---------------------------------------------------------------------


def test_tsv_classic_golden():
    classic = ClassicF2Decomp()
    rows = list(tsv_rows(classic, range(0, 3)))
    assert rows == [
        "index\tword\tpsi1\tpsi1_word\tpsi2\tpsi2_word\ttheta1\ttheta2",
        "0\te\t0\te\t4\tB\te\tB",
        "1\ta\t1\ta\t14\tBa\te\tB",
        "2\tA\t2\tA\t15\tBA\te\tB",
    ]


def test_tsv_engine_rows(f2_decomp):
    rows = list(tsv_rows(f2_decomp, range(0, 1)))
    assert rows[1] == "0\te\t0\te\t1\ta\te\ta"


def test_tsv_window_empty():
    classic = ClassicF2Decomp()
    rows = list(tsv_rows(classic, range(0, 0)))
    assert len(rows) == 1  # header only


def test_tsv_reads_words_in_the_providers_rank():
    class Rank3Stub:
        rank = 3

        def psi(self, m):
            return 5, 6

        def theta(self, m, which):
            return parse_word(3, "e")

    rows = list(tsv_rows(Rank3Stub(), range(0, 1)))
    assert rows[1] == "0\te\t5\tc\t6\tC\te\te"
