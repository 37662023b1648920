"""Free groups as computable permutation actions on the naturals.

Reduced words over rank-m generators are enumerated shortlex with letter
order a < A < b < B < ... (lowercase generators, uppercase inverses), so
index 0 is the empty word and the bijection with the naturals is cheap in
both directions.  Left multiplication by a fixed word then acts on indices
as a computable permutation, which is what the matching machinery and the
decomposition layer consume.

An index of length L reads as a level offset plus base-q digits, q = 2m-1:
the first digit picks any of the 2m letters, each later one picks among the
q letters that do not cancel its predecessor.  Left multiplication by one
letter either prepends it (one new leading digit, the old leading digit
re-read against the new letter) or cancels the first letter (the second
digit re-read as a leading one), so it needs the length, at most two
digits and one level offset, never the whole word.  A word acts as the
right-to-left fold of its letters.

Also here: the step metric generated by a symmetric word set, exact
boundary-ratio tests used by the amenability searches, and the
commutation test deciding which finite word sets witness paradoxicality
in a free group.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import SizeGuardError


@dataclass(frozen=True)
class Word:
    """A freely reduced word; letters are +g for generators, -g for inverses."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        for l in self.letters:
            if l == 0 or abs(l) > self.rank:
                raise ValueError(f"letter {l} out of range for rank {self.rank}")
        for x, y in zip(self.letters, self.letters[1:]):
            if x == -y:
                raise ValueError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            # From rank 5 up, "e" is the fifth generator.
            return "e" if self.rank < 5 else "1"
        out = []
        for l in self.letters:
            if abs(l) > 26:
                raise ValueError(f"generator {abs(l)} has no letter: only a-z name generators")
            base = ord("a") if l > 0 else ord("A")
            out.append(chr(base + abs(l) - 1))
        return "".join(out)


def identity(rank: int) -> Word:
    return Word(rank, ())


def reduce(rank: int, letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence (stack cancellation)."""
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return Word(rank, tuple(stack))


def mul(x: Word, y: Word) -> Word:
    if x.rank != y.rank:
        raise ValueError(f"rank {x.rank} vs {y.rank}")
    return reduce(x.rank, x.letters + y.letters)


def inv(x: Word) -> Word:
    return Word(x.rank, tuple(-l for l in reversed(x.letters)))


def parse_word(rank: int, text: str) -> Word:
    """Parse the a/A syntax; "" and "1" are the empty word, and so is "e"
    below rank 5, where it names no generator.  Input is reduced."""
    text = text.strip()
    if text in ("", "1") or (text == "e" and rank < 5):
        return identity(rank)
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            g = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            g = -(ord(ch) - ord("A") + 1)
        else:
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        if abs(g) > rank:
            raise ValueError(f"letter {ch!r} exceeds rank {rank}")
        letters.append(g)
    return reduce(rank, letters)


class Enumeration:
    """The shortlex bijection between reduced words and the naturals."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.q = 2 * rank - 1  # choices per letter after the first
        self._cum = [1]  # number of words of length < L+1, starting at L=0
        self._pow = [1]  # q ** L, as far as _cum reaches

    @cached_property
    def _prepend_digits(self) -> list[tuple[int, ...]]:
        # Entry f: for a word whose first letter sits at position f, the two
        # leading digits of p·w for each letter position p that does not
        # cancel it, ascending in p: p itself, then f re-read against the new
        # first letter, which skips p ^ 1.  Built on first use: 2r(2r-1) digits.
        q, m = self.q, 2 * self.rank
        return [
            tuple(p * q + (f if f < p ^ 1 else f - 1) for p in range(m) if p != f ^ 1)
            for f in range(m)
        ]

    def _extend_cum(self, length: int) -> None:
        while len(self._cum) <= length:
            self._cum.append(self._cum[-1] + 2 * self.rank * self._pow[-1])
            self._pow.append(self._pow[-1] * self.q)

    def _length(self, n: int) -> int:
        """Length of the word with index n >= 0."""
        cum = self._cum
        while cum[-1] <= n:
            self._extend_cum(len(cum))
        return bisect_right(cum, n)

    @staticmethod
    def _pos(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter) - 1

    @staticmethod
    def _letter(pos: int) -> int:
        return pos // 2 + 1 if pos % 2 == 0 else -((pos + 1) // 2)

    def word_to_index(self, w: Word) -> int:
        if w.rank != self.rank:
            raise ValueError(f"rank {w.rank} vs {self.rank}")
        length = len(w.letters)
        if length == 0:
            return 0
        self._extend_cum(length)
        rank_in_level = self._pos(w.letters[0]) * self._pow[length - 1]
        for i in range(1, length):
            banned = self._pos(-w.letters[i - 1])
            p = self._pos(w.letters[i])
            r = p if p < banned else p - 1
            rank_in_level += r * self._pow[length - 1 - i]
        return self._cum[length - 1] + rank_in_level

    def index_to_word(self, n: int) -> Word:
        if n < 0:
            raise ValueError("index must be >= 0")
        if n == 0:
            return identity(self.rank)
        if self.q == 1:  # rank 1 in closed form, as in act_letter
            return Word(1, (1 if n % 2 else -1,) * ((n + 1) // 2))
        length = self._length(n)
        first, r = divmod(n - self._cum[length - 1], self._pow[length - 1])
        letters = [self._letter(first)]
        for i in range(1, length):
            d, r = divmod(r, self._pow[length - 1 - i])
            banned = self._pos(-letters[-1])
            p = d if d < banned else d + 1
            letters.append(self._letter(p))
        return Word(self.rank, tuple(letters))

    def head(self, n: int) -> tuple[int, int]:
        """The first letter of word n (0 for the empty word) and the value of
        its later digits; the tail is 0 iff every later letter is the least
        one allowed after its predecessor."""
        if n < 0:
            raise ValueError("index must be >= 0")
        if n == 0:
            return 0, 0
        if self.q == 1:  # rank 1 in closed form, as in act_letter
            return (1 if n % 2 else -1), 0
        # The decode and _letter inlined, as in act_letter.
        cum = self._cum
        length = bisect_right(cum, n) if n < cum[-1] else self._length(n)
        first, tail = divmod(n - cum[length - 1], self._pow[length - 1])
        return (-((first + 1) // 2) if first % 2 else first // 2 + 1), tail

    def act_letter(self, letter: int, n: int) -> int:
        """Index of letter·w for the word w with index n."""
        if n < 0:
            raise ValueError("index must be >= 0")
        if self.q == 1:
            # Rank 1 in closed form, so act grows no table one entry per
            # length: index 2z-1 is a^z and index 2z is A^z.
            z = ((n + 1) // 2 if n % 2 else -(n // 2)) + letter
            return 2 * z - 1 if z > 0 else -2 * z
        p = 2 * (letter - 1) if letter > 0 else -2 * letter - 1  # _pos, inlined
        if n == 0:
            return 1 + p
        cum = self._cum
        length = bisect_right(cum, n) if n < cum[-1] else self._length(n)
        span = self._pow[length - 1]
        first, tail = divmod(n - cum[length - 1], span)
        cancel = p + 1 if p % 2 == 0 else p - 1  # the position of -letter
        if first == cancel:
            if length == 1:
                return 0
            span = self._pow[length - 2]
            second, tail = divmod(tail, span)
            return cum[length - 2] + (second if second < p else second + 1) * span + tail
        if first > cancel:
            first -= 1
        return cum[length] + (p * self.q + first) * span + tail

    def generator_row(self, n: int) -> tuple[int, ...]:
        """The sorted indices of s·w over s in {e} ∪ generators ∪ inverses,
        for the word w with index n, from one decode of n.

        The order needs no sort: the neighbour that cancels the first letter
        is one letter shorter (0 when w has one letter), then comes n itself,
        then the 2r-1 words one letter longer, ascending in the prepended
        letter's position.
        """
        if n < 0:
            raise ValueError("index must be >= 0")
        if n == 0:
            return tuple(range(2 * self.rank + 1))
        if self.q == 1:
            # Rank 1 in closed form (see act_letter): a^z and A^z step by 2.
            return (n - 2 if n > 2 else 0, n, n + 2)
        # The decode of act_letter, kept inline: a call here costs a tenth
        # of the row.
        cum = self._cum
        length = bisect_right(cum, n) if n < cum[-1] else self._length(n)
        span = self._pow[length - 1]
        first, tail = divmod(n - cum[length - 1], span)
        if length == 1:
            row = [0, n]
        else:
            # The second digit ranks its letter among those that do not
            # cancel the first, so as a position it skips first ^ 1.
            step = self._pow[length - 2]
            second, rest = divmod(tail, step)
            if second >= first ^ 1:
                second += 1
            row = [cum[length - 2] + second * step + rest, n]
        base = cum[length] + tail
        for lead in self._prepend_digits[first]:
            row.append(base + lead * span)
        return tuple(row)


_ENUMS: dict[int, Enumeration] = {}


def enumeration(rank: int) -> Enumeration:
    if rank not in _ENUMS:
        _ENUMS[rank] = Enumeration(rank)
    return _ENUMS[rank]


def act(w: Word, n: int) -> int:
    """Left multiplication by w, as a permutation of word indices."""
    if n < 0:
        raise ValueError("index must be >= 0")
    e = _ENUMS.get(w.rank) or enumeration(w.rank)
    for letter in reversed(w.letters):
        n = e.act_letter(letter, n)
    return n


@dataclass(frozen=True)
class GeneratorSet:
    """A finite symmetric set of words containing the identity, kept in
    shortlex order; the step metric and balls below are taken over it."""

    rank: int
    elements: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("generator set must be non-empty")
        e = enumeration(self.rank)
        indices = [e.word_to_index(w) for w in self.elements]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("elements must be distinct and in shortlex order")
        if 0 not in indices:
            raise ValueError("generator set must contain the identity")
        have = set(indices)
        for w in self.elements:
            if e.word_to_index(inv(w)) not in have:
                raise ValueError(f"generator set not symmetric: missing {inv(w)}")

    @staticmethod
    def symmetrized(rank: int, words: Iterable[Word]) -> "GeneratorSet":
        e = enumeration(rank)
        pool = {0}
        for w in words:
            if w.rank != rank:
                raise ValueError(f"rank {w.rank} vs {rank}")
            pool.add(e.word_to_index(w))
            pool.add(e.word_to_index(inv(w)))
        return GeneratorSet(
            rank, tuple(e.index_to_word(i) for i in sorted(pool))
        )

    @staticmethod
    def standard(rank: int) -> "GeneratorSet":
        return GeneratorSet.symmetrized(
            rank, [Word(rank, (g,)) for g in range(1, rank + 1)]
        )

    def power(self, n: int) -> "GeneratorSet":
        """All products of n elements: the identity is one, so these are
        the products of at most n, the ball of radius n around it."""
        if n < 1:
            raise ValueError("power must be >= 1")
        e = enumeration(self.rank)
        return GeneratorSet(self.rank, tuple(map(e.index_to_word, ball(self, 0, n))))


def _levels(r_set: GeneratorSet, center: int) -> Iterator[list[int]]:
    """The points at exactly 0, 1, 2, ... steps from ``center``, one level
    at a time, found breadth first over ``act``; ends at the first empty one.
    Each level is computed only when asked for."""
    seen = {center}
    level = [center]
    while level:
        yield level
        found = []
        for z in level:
            for g in r_set.elements:
                w = act(g, z)
                if w not in seen:
                    seen.add(w)
                    found.append(w)
        level = found


def d_r(r_set: GeneratorSet, x: int, y: int, cap: int) -> int | None:
    """Least number of applications of elements of ``r_set`` mapping x to y,
    computed by breadth-first search; None if more than ``cap`` (possibly
    infinite)."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    for dist, level in zip(range(cap + 1), _levels(r_set, x)):
        if y in level:
            return dist
    return None


def ball(r_set: GeneratorSet, center: int, radius: int) -> tuple[int, ...]:
    """All points within ``radius`` steps of ``center``, sorted."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    points: list[int] = []
    for _, level in zip(range(radius + 1), _levels(r_set, center)):
        points.extend(level)
    return tuple(sorted(points))


# -- boundary ratios and paradox witnesses --------------------------------


def is_folner(k_words: Sequence[Word], n: int, f_set: Iterable[int]) -> bool:
    """True iff n * |F \\ kF| < |F| for every k (exact integer arithmetic)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = frozenset(f_set)
    if not f:
        raise ValueError("F must be non-empty")
    for k in k_words:
        image = {act(k, x) for x in f}
        if n * len(f - image) >= len(f):
            return False
    return True


FOLNER_MAX_GROUND = 24
FOLNER_MAX_SIZE = 8


def folner_search(
    k_words: Sequence[Word],
    n: int,
    ground: Iterable[int],
    max_size: int,
) -> frozenset[int] | None:
    """First subset of ``ground`` (smallest size, then lexicographic over
    the sorted ground) whose boundary ratio beats 1/n for every k, or None.
    Raises ValueError for n or max_size below 1, where no search would run.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    base = tuple(sorted(set(ground)))
    if len(base) > FOLNER_MAX_GROUND:
        raise SizeGuardError(f"ground capped at {FOLNER_MAX_GROUND}, got {len(base)}")
    if max_size > FOLNER_MAX_SIZE:
        raise SizeGuardError(f"max_size capped at {FOLNER_MAX_SIZE}, got {max_size}")
    for size in range(1, min(max_size, len(base)) + 1):
        for combo in itertools.combinations(base, size):
            if is_folner(k_words, n, combo):
                return frozenset(combo)
    return None


def wbt_free(k_words: Sequence[Word]) -> tuple[Word, Word] | None:
    """The first non-commuting pair of a finite word set, in shortlex order,
    or None if all pairs commute.

    In a free group a finite set generates a non-amenable subgroup exactly
    when two of its members fail to commute, so this single test decides
    whether the set witnesses a paradoxical decomposition.
    """
    if not k_words:
        return None
    rank = k_words[0].rank
    for w in k_words:
        if w.rank != rank:
            raise ValueError(f"rank {w.rank} vs {rank}")
    e = enumeration(rank)
    pool = sorted({e.word_to_index(w) for w in k_words})
    words = [e.index_to_word(i) for i in pool]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            x, y = words[i], words[j]
            if mul(x, y) != mul(y, x):
                return x, y
    return None
