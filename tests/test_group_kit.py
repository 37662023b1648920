import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hallharem.errors import SizeGuardError
from hallharem.group_kit import (
    Enumeration,
    GeneratorSet,
    Word,
    act,
    ball,
    d_r,
    enumeration,
    folner_search,
    identity,
    inv,
    is_folner,
    mul,
    parse_word,
    reduce,
    wbt_free,
)


def w2(s):
    return parse_word(2, s)


def naive_reduce(letters):
    """Repeated-scan cancellation, the second implementation for reduce."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def brute_shortlex(rank, max_len):
    """Enumerate reduced words shortlex by direct generation."""

    def pos(l):
        return 2 * (l - 1) if l > 0 else 2 * (-l) - 1

    alphabet = sorted(
        [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)], key=pos
    )
    words = [()]
    level = [()]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for l in alphabet:
                if w and w[-1] == -l:
                    continue
                nxt.append(w + (l,))
        words.extend(nxt)
        level = nxt
    return words


letters_st = st.lists(
    st.integers(-2, 2).filter(lambda l: l != 0), min_size=0, max_size=12
)


# -- words -------------------------------------------------------------------


def test_reduce_trivial():
    assert reduce(2, [1, -1]).letters == ()
    assert reduce(2, [1, 2, -2, -1]).letters == ()
    assert reduce(2, [1, 1, 2, -1]).letters == (1, 1, 2, -1)


@given(letters_st)
@settings(max_examples=200)
def test_reduce_agrees_with_naive(letters):
    assert reduce(2, letters).letters == naive_reduce(letters)


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(2, (1, -1))


def test_mul_inv_basics():
    a, b = w2("a"), w2("b")
    assert mul(a, inv(a)) == identity(2)
    assert inv(mul(a, b)) == w2("BA")
    with pytest.raises(ValueError, match="^rank 2 vs 1$"):
        mul(a, parse_word(1, "a"))


def test_parse_and_str_roundtrip():
    for s in ("e", "a", "A", "ab", "aBAb"):
        assert str(w2(s)) == s
    assert str(w2("aA")) == "e"
    # e names the identity only below rank 5; 1 names it at every rank
    assert parse_word(5, "e") == Word(5, (5,))
    assert str(identity(5)) == "1"
    for rank in (1, 4, 5, 26):
        assert parse_word(rank, "1") == identity(rank)
    with pytest.raises(ValueError):
        parse_word(1, "b")
    with pytest.raises(ValueError):
        parse_word(2, "a b")


@st.composite
def reduced_words(draw):
    rank = draw(st.integers(1, 26))
    letter = st.integers(1, rank).flatmap(lambda g: st.sampled_from((g, -g)))
    return reduce(rank, draw(st.lists(letter, max_size=8)))


@given(reduced_words())
@example(Word(5, (5,)))  # the generator e
@example(identity(5))
@settings(max_examples=300)
def test_str_parses_back_at_every_rank(w):
    assert parse_word(w.rank, str(w)) == w


@given(letters_st, letters_st, letters_st)
@settings(max_examples=150)
def test_associativity(ls1, ls2, ls3):
    x, y, z = reduce(2, ls1), reduce(2, ls2), reduce(2, ls3)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


# -- enumeration ---------------------------------------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_enumeration_matches_brute_shortlex(rank):
    max_len = 6 if rank == 1 else 4
    e = Enumeration(rank)
    expected = brute_shortlex(rank, max_len)
    for n, letters in enumerate(expected):
        assert e.index_to_word(n).letters == letters
        assert e.word_to_index(Word(rank, letters)) == n


def test_enumeration_bijective_to_length_6():
    e = Enumeration(2)
    total = len(brute_shortlex(2, 6))
    for n in range(total):
        assert e.word_to_index(e.index_to_word(n)) == n


def test_enumeration_pins():
    e = enumeration(2)
    assert str(e.index_to_word(0)) == "e"
    assert [str(e.index_to_word(i)) for i in (1, 2, 3, 4)] == ["a", "A", "b", "B"]
    assert str(e.index_to_word(6)) == "ab"  # second reduced length-2 word


def test_enumeration_rank_mismatch():
    with pytest.raises(ValueError, match="^rank 1 vs 2$"):
        enumeration(2).word_to_index(parse_word(1, "a"))


# -- action ----------------------------------------------------------------------


def test_act_identity_and_inverse_law():
    e = identity(2)
    a = w2("a")
    for n in range(1000):
        assert act(e, n) == n
        assert act(a, act(inv(a), n)) == n


def test_act_of_generator_on_identity():
    assert act(w2("a"), 0) == enumeration(2).word_to_index(w2("a"))


def word_level_act(w, n):
    """Left multiplication spelled out on words: the reference for act."""
    e = enumeration(w.rank)
    return e.word_to_index(mul(w, e.index_to_word(n)))


def level_starts(rank, max_len):
    """Index of the first word of each length 0..max_len+1 (1 + 2r + 2rq + ...)."""
    q = 2 * rank - 1
    starts = [0, 1]
    for length in range(1, max_len + 1):
        starts.append(starts[-1] + 2 * rank * q ** (length - 1))
    return starts


# Rank 1 has 2 words per level, so index n is a word of length about n/2:
# past a few thousand the word-level reference gets slow, and near 10**15 it
# cannot build the word at all.
BIG_INDICES = (10**15, 10**15 + 1, 3**40 - 1, 3**40, 10**30 + 7)


def fixed_indices(rank):
    """The indices on both sides of every level boundary up to length 12,
    and for ranks above 1 a few indices >= 10**15."""
    out = set(BIG_INDICES) if rank > 1 else set()
    for start in level_starts(rank, 12)[1:]:
        out.update((start - 1, start, start + 1))
    return sorted(out)


def reduced_words(rank, max_len=6):
    letter = st.integers(-rank, rank).filter(lambda l: l != 0)
    return st.lists(letter, max_size=max_len).map(lambda ls: reduce(rank, ls))


def indices(rank):
    small = st.integers(0, 10**6 if rank > 1 else 2000)
    return st.one_of(small, st.sampled_from(fixed_indices(rank)))


@pytest.mark.parametrize("rank", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_act_matches_word_level_reference(rank, data):
    w = data.draw(reduced_words(rank))
    n = data.draw(indices(rank))
    assert act(w, n) == word_level_act(w, n)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_act_letter_at_level_boundaries(rank):
    e = Enumeration(rank)
    for g in range(1, rank + 1):
        for letter in (g, -g):
            for n in fixed_indices(rank):
                assert e.act_letter(letter, n) == word_level_act(Word(rank, (letter,)), n)


def test_rank1_act_in_closed_form():
    # Rank 1 is the integers: index 2z-1 is a^z and index 2z is A^z.
    e = Enumeration(1)
    for n in range(300):
        for letter in (1, -1):
            assert e.act_letter(letter, n) == word_level_act(Word(1, (letter,)), n)
    assert len(e._cum) == 1
    a = Word(1, (1,))
    grown = len(enumeration(1)._cum), len(enumeration(1)._pow)
    assert act(a, 10**9) == 10**9 - 2
    assert act(inv(a), 10**9) == 10**9 + 2
    assert act(a, 10**18 + 1) == 10**18 + 3
    assert act(Word(1, (-1, -1, -1)), 10**18 - 1) == 10**18 - 7
    assert (len(enumeration(1)._cum), len(enumeration(1)._pow)) == grown
    # head and index_to_word too: 2z-1 is a^z and 2z is A^z.
    for n, word in enumerate(brute_shortlex(1, 12)):
        assert e.index_to_word(n).letters == word
        assert e.head(n) == ((word[0], 0) if word else (0, 0))
    assert e.head(10**9) == (-1, 0) and e.head(10**18 + 1) == (1, 0)
    assert e.index_to_word(2 * 10**5 - 1) == Word(1, (1,) * 10**5)
    assert (len(e._cum), len(e._pow)) == (1, 1)


def test_act_letter_exhaustive_window():
    e = enumeration(2)
    for n in range(3000):
        for letter in (1, -1, 2, -2):
            assert e.act_letter(letter, n) == word_level_act(Word(2, (letter,)), n)


def test_act_rejects_negative_index():
    for w in (identity(2), w2("a"), w2("abA")):
        with pytest.raises(ValueError):
            act(w, -1)
    with pytest.raises(ValueError):
        enumeration(2).act_letter(1, -1)


def test_head_reads_first_letter_and_tail():
    e = enumeration(2)
    assert e.head(0) == (0, 0)
    for n in range(1, 2000):
        letters = e.index_to_word(n).letters
        # The least letter allowed after a or A is the letter itself, and a
        # after b or B; the tail is 0 iff that choice is made at every place.
        least = -1 if letters[0] == -1 else 1
        first, tail = e.head(n)
        assert first == letters[0]
        assert (tail == 0) == (letters[1:] == (least,) * (len(letters) - 1))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_generator_row_matches_word_level_reference(rank):
    e = Enumeration(rank)
    gens = GeneratorSet.standard(rank).elements
    for n in [0, *fixed_indices(rank)]:
        assert e.generator_row(n) == tuple(sorted({word_level_act(s, n) for s in gens})), n


def test_generator_row_rank1_closed_form_and_negative_index():
    e = Enumeration(1)
    assert e.generator_row(10**18) == (10**18 - 2, 10**18, 10**18 + 2)
    assert len(e._cum) == 1
    for rank in (1, 2, 3):
        with pytest.raises(ValueError):
            Enumeration(rank).generator_row(-1)


def test_act_injective_into_larger_ball():
    r = GeneratorSet.standard(2)
    w = w2("ab")
    domain = ball(r, 0, 2)
    images = [act(w, n) for n in domain]
    assert len(set(images)) == len(images)
    assert set(images) <= set(ball(r, 0, 2 + len(w)))


# -- metric and balls -------------------------------------------------------------


@pytest.fixture(scope="module")
def r2():
    return GeneratorSet.standard(2)


def test_d_r_zero_and_overcap(r2):
    assert d_r(r2, 5, 5, 0) == 0
    assert d_r(r2, 0, enumeration(2).word_to_index(w2("aaaa")), 2) is None


def test_d_r_matches_word_metric(r2):
    # left multiplication moves x to y in |y x^-1| steps
    e = enumeration(2)
    rng = random.Random(23)
    for _ in range(300):
        x, y = rng.randrange(50), rng.randrange(50)
        wx, wy = e.index_to_word(x), e.index_to_word(y)
        expected = len(mul(wy, inv(wx)))
        assert d_r(r2, x, y, 12) == expected


def test_d_r_symmetry_and_triangle(r2):
    rng = random.Random(29)
    pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(100)]
    for x, y in pairs:
        assert d_r(r2, x, y, 10) == d_r(r2, y, x, 10)
    for _ in range(60):
        x, y, z = (rng.randrange(20) for _ in range(3))
        dxy, dyz, dxz = (
            d_r(r2, x, y, 10),
            d_r(r2, y, z, 10),
            d_r(r2, x, z, 10),
        )
        assert dxz <= dxy + dyz


def test_ball_counts(r2):
    assert ball(r2, 0, 0) == (0,)
    assert len(ball(r2, 0, 1)) == 5
    assert len(ball(r2, 0, 2)) == 17  # 1 + 4 + 12 in the 4-regular tree


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(2, (w2("a"),))  # no identity, not symmetric
    sym = GeneratorSet.symmetrized(2, [w2("ab")])
    assert [str(w) for w in sym.elements] == ["e", "ab", "BA"]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Word(0, ()), "rank must be >= 1"),
        (lambda: Word(2, (3,)), "letter 3 out of range for rank 2"),
        (lambda: Enumeration(0), "rank must be >= 1"),
        (lambda: enumeration(2).index_to_word(-1), "index must be >= 0"),
        (lambda: GeneratorSet(2, ()), "generator set must be non-empty"),
        (lambda: GeneratorSet(2, (w2("e"), w2("A"), w2("a"))),
         "elements must be distinct and in shortlex order"),
        (lambda: GeneratorSet(2, (w2("e"), w2("a"), w2("a"), w2("A"))),
         "elements must be distinct and in shortlex order"),
        (lambda: GeneratorSet(2, (w2("e"), w2("a"))), "generator set not symmetric: missing A"),
        (lambda: GeneratorSet.symmetrized(2, [parse_word(1, "a")]), "rank 1 vs 2"),
        (lambda: GeneratorSet.standard(2).power(0), "power must be >= 1"),
        (lambda: d_r(GeneratorSet.standard(2), 0, 0, -1), "cap must be >= 0"),
        (lambda: ball(GeneratorSet.standard(2), 0, -1), "radius must be >= 0"),
        (lambda: is_folner([w2("a")], 0, {0}), "n must be >= 1"),
    ],
    ids=["word-rank", "word-letter", "enumeration-rank", "negative-index", "empty-set",
         "unsorted-set", "duplicate-set", "asymmetric-set", "symmetrized-rank", "power-0",
         "negative-cap", "negative-radius", "folner-n-0"],
)
def test_rejects_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_generator_set_power():
    r = GeneratorSet.standard(1)
    assert len(r.power(2).elements) == 5  # e, a, A, aa, AA
    r2_ = GeneratorSet.standard(2)
    assert len(r2_.power(2).elements) == 17
    # against products of exactly n elements, multiplied out word by word
    for r in (
        GeneratorSet.standard(1),
        r2_,
        GeneratorSet.standard(3),
        GeneratorSet.symmetrized(2, [parse_word(2, "ab")]),
    ):
        order = enumeration(r.rank).word_to_index
        products = {identity(r.rank)}
        for n in (1, 2, 3):
            products = {mul(x, w) for x in r.elements for w in products}
            assert r.power(n).elements == tuple(sorted(products, key=order))


# -- boundary ratio tests -------------------------------------------------------------


def test_is_folner_rank1_pins():
    a = parse_word(1, "a")
    r = GeneratorSet.standard(1)
    assert not is_folner([a], 3, ball(r, 0, 1))  # 3*1 < 3 fails
    assert is_folner([a], 3, ball(r, 0, 2))  # 3*1 < 5
    assert is_folner([identity(1)], 3, {0, 1, 2})


def test_is_folner_empty_set():
    with pytest.raises(ValueError, match="^F must be non-empty$"):
        is_folner([parse_word(1, "a")], 1, set())


def test_folner_search_z():
    a = parse_word(1, "a")
    ground = ball(GeneratorSet.standard(1), 0, 3)
    found = folner_search([a], 3, ground, 5)
    # the first qualifying set is the 4-run {e, a, A, aa}
    assert found == frozenset({0, 1, 2, 3})
    assert is_folner([a], 3, found)


def test_folner_search_identity_singleton():
    found = folner_search([identity(1)], 3, (0, 1, 2), 3)
    assert found == frozenset({0})


def test_folner_search_f2_contrast():
    ground = ball(GeneratorSet.standard(2), 0, 2)
    k = [w2("a"), w2("b")]
    # at n=1 a small set always exists ({e, a, b} works)
    assert folner_search(k, 1, ground, 5) == frozenset({0, 1, 3})
    # at n=2 nothing works: the needed internal edges would form a cycle
    # inside a forest
    assert folner_search(k, 2, ground, 5) is None


def test_folner_search_guards():
    a = parse_word(1, "a")
    with pytest.raises(SizeGuardError):
        folner_search([a], 1, range(25), 3)
    with pytest.raises(SizeGuardError):
        folner_search([a], 1, range(5), 9)


# -- paradox witness test ---------------------------------------------------------------


def test_wbt_pins():
    assert wbt_free([w2("a"), w2("b")]) == (w2("a"), w2("b"))
    assert wbt_free([w2("a"), w2("aa"), w2("A")]) is None
    assert wbt_free([w2("ab"), w2("ba")]) == (w2("ab"), w2("ba"))
    assert wbt_free([w2("a"), w2("Bab")]) == (w2("a"), w2("Bab"))
    assert wbt_free([identity(2)]) is None
    assert wbt_free([]) is None
    # Only the given words are decoded: no table grows with the rank.
    big = 10**5
    assert wbt_free([parse_word(big, "b"), parse_word(big, "a")]) == (
        parse_word(big, "a"), parse_word(big, "b")
    )


def test_wbt_rank_mismatch():
    with pytest.raises(ValueError, match="^rank 1 vs 2$"):
        wbt_free([w2("a"), parse_word(1, "a")])


def test_wbt_matches_commutation_oracle():
    rng = random.Random(31)
    e = enumeration(2)
    for _ in range(300):
        words = [e.index_to_word(rng.randrange(40)) for _ in range(rng.randint(1, 4))]
        got = wbt_free(words)
        truth = any(
            mul(x, y) != mul(y, x)
            for i, x in enumerate(words)
            for y in words[i + 1 :]
        )
        assert (got is not None) == truth
        if got is not None:
            x, y = got
            assert mul(x, y) != mul(y, x)
