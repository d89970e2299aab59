"""Binary words over {x0, x1}: shuffle product, grading and the composition bijection.

Words ending in x1 span the nonunitary algebra that encodes MZV indices;
words that moreover start with x0 are the convergent (admissible) ones.
The empty word exists only as the internal shuffle unit and is rejected by
every operation that is defined on the nonunitary algebra.  Coefficients
are ``int`` unless a non-integer scalar enters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

from .core import DomainError, LinComb, mixable_shuffle

if TYPE_CHECKING:
    from .compositions import Composition

X0 = 0
X1 = 1

# The word syntax, read by Word.from_text and by the expression parser.
WORD_SYNTAX = re.compile(r"(?:x[01])*")


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable word over the two-letter alphabet, stored as a 0/1 tuple."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if any(letter not in (X0, X1) for letter in self.letters):
            raise DomainError(f"word letters must be x0 or x1: {self.letters}")

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse the concatenated token syntax, e.g. ``x0x1x1``, between optional whitespace."""
        body = text.strip()
        start = len(text) - len(text.lstrip())
        end = WORD_SYNTAX.match(text, start).end()
        if end != start + len(body):
            raise DomainError(f"invalid word syntax at offset {end}: {text!r}")
        return cls(tuple(int(digit) for digit in body[1::2]))

    @property
    def ends_with_x1(self) -> bool:
        """Membership in the nonunitary algebra: nonempty and ending in x1."""
        return bool(self.letters) and self.letters[-1] == X1

    @property
    def is_convergent(self) -> bool:
        """Admissible words start with x0 and end with x1."""
        return self.ends_with_x1 and self.letters[0] == X0

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "ε"
        return "".join("x1" if letter else "x0" for letter in self.letters)


X1_WORD = Word((X1,))

_new, _set_letters = object.__new__, Word.letters.__set__


def _trusted_word(letters: tuple[int, ...]) -> Word:
    """``Word(letters)`` for letters known to be x0 or x1, unchecked; only the shuffle engine calls it."""
    w = _new(Word)
    _set_letters(w, letters)
    return w


@lru_cache(maxsize=8192)
def _shuffle_letters(a: tuple[int, ...], b: tuple[int, ...]) -> LinComb[Word]:
    return mixable_shuffle(a, b).map_basis(_trusted_word)


def shuffle(a: Word, b: Word) -> LinComb[Word]:
    """Shuffle product; sums all interleavings of the two letter sequences."""
    return _shuffle_letters(a.letters, b.letters)


def shuffle_lin(a: LinComb[Word], b: LinComb[Word]) -> LinComb[Word]:
    from .core import bilinear

    return bilinear(shuffle, a, b)


def prepend_x0(w: Word) -> Word:
    """The weight-0 Rota-Baxter operator on the nonunitary word algebra."""
    if not w.ends_with_x1:
        raise DomainError(f"operator defined only on words ending in x1: {w}")
    return Word((X0,) + w.letters)


def degree(w: Word) -> int:
    """Grading of the nonunitary algebra: the total letter count."""
    if not w.ends_with_x1:
        raise DomainError(f"degree defined only on words ending in x1: {w}")
    return len(w.letters)


def to_composition(w: Word) -> "Composition":
    """Bijection onto positive compositions: x0^(s1-1)x1...x0^(sk-1)x1 -> [s1..sk]."""
    from .compositions import Composition

    if not w.ends_with_x1:
        raise DomainError(f"only words ending in x1 encode compositions: {w}")
    entries = []
    run = 0
    for letter in w.letters:
        if letter == X0:
            run += 1
        else:
            entries.append(run + 1)
            run = 0
    return Composition(tuple(entries))


def from_composition(s: "Composition") -> Word:
    """Inverse bijection; requires all entries >= 1."""
    if not s.is_positive:
        raise DomainError(f"only positive compositions encode words: {s}")
    letters: list[int] = []
    for entry in s.entries:
        letters.extend([X0] * (entry - 1))
        letters.append(X1)
    return Word(tuple(letters))


def words_of_degree(m: int, convergent_only: bool = False) -> list[Word]:
    """All degree-m words in the nonunitary algebra, in canonical order."""
    if m < 1:
        raise DomainError("degree must be >= 1")
    out = []
    for letters in product((X0, X1), repeat=m - 1):
        w = Word(letters + (X1,))
        if convergent_only and not w.is_convergent:
            continue
        out.append(w)
    return out
