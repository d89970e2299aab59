"""The free commutative nonunitary Rota-Baxter algebra of weight 0 on one generator.

Basis elements are exponent tensors x^(n1) (x) ... (x) x^(nk) with all
exponents >= 0 and the last one >= 1.  The product adds the first exponents
and shuffles the remaining slots; the operator prepends a zero exponent.
Two graded isomorphisms realize this algebra concretely: one onto the word
algebra (sending the generator to x1 and the operator to left x0), one onto
the composition algebra (generator to [0], operator to the first-entry
shift).  A generic evaluator maps the free algebra into any caller-supplied
Rota-Baxter target through the universal property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Callable, TypeVar

from . import compositions as comp
from . import words
from .core import DomainError, LinComb, mixable_shuffle

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class TensorWord:
    """Exponent tensor (n1, ..., nk), k >= 1, all >= 0, last >= 1.

    As for :class:`~mzvkit.compositions.Composition`, the hash is computed
    once, at construction, and kept in a hidden slot.
    """

    exponents: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.exponents:
            raise DomainError("tensor words are nonempty")
        if any(n < 0 for n in self.exponents):
            raise DomainError(f"exponents must be >= 0: {self}")
        if self.exponents[-1] < 1:
            raise DomainError(f"last exponent must be >= 1: {self}")
        object.__setattr__(self, "_hash", hash(self.exponents))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (TensorWord, (self.exponents,))

    @property
    def degree(self) -> int:
        return sum(self.exponents) + len(self.exponents) - 1

    def sort_key(self):
        return (len(self.exponents), self.exponents)

    def __str__(self) -> str:
        return "(" + ",".join(str(n) for n in self.exponents) + ")"


GENERATOR = TensorWord((1,))

_new, _set_exponents, _set_hash = object.__new__, TensorWord.exponents.__set__, TensorWord._hash.__set__


def _trusted_tensor(exponents: tuple[int, ...]) -> TensorWord:
    """``TensorWord(exponents)`` for exponents known to be valid, unchecked; only :func:`product` calls it."""
    t = _new(TensorWord)
    _set_exponents(t, exponents)
    _set_hash(t, hash(exponents))
    return t


# keyed on the exponent tuples, which hash in C
@lru_cache(maxsize=8192)
def _product_exponents(x: tuple[int, ...], y: tuple[int, ...]) -> LinComb[TensorWord]:
    first = x[0] + y[0]
    return mixable_shuffle(x[1:], y[1:]).map_basis(lambda t: _trusted_tensor((first,) + t))


def product(a: TensorWord, b: TensorWord) -> LinComb[TensorWord]:
    """First exponents add; the remaining slots shuffle without merging.

    Every term is a valid tensor, built unchecked: its exponents are those
    of a and b, with the first two added, so they are >= 0, and the last is
    the last of a or of b, or the sum of both when neither has a tail.
    """
    return _product_exponents(a.exponents, b.exponents)


def nest(t: TensorWord) -> TensorWord:
    """The Rota-Baxter operator: prepend a zero exponent (degree goes up by 1)."""
    return TensorWord((0,) + t.exponents)


def to_word_sum(t: TensorWord) -> LinComb[words.Word]:
    """Graded isomorphism onto the word algebra, generator to x1.

    A single slot x^n maps to the n-th shuffle power of x1, which is n!
    times the word of n ones (the empty word, the unit, when n = 0); deeper
    tensors recurse through the x0-prepend operator.
    """
    head, rest = t.exponents[0], t.exponents[1:]
    head_power = LinComb.single(words.Word((words.X1,) * head), factorial(head))
    if not rest:
        return head_power
    inner = to_word_sum(TensorWord(rest)).map_basis(words.prepend_x0)
    return words.shuffle_lin(head_power, inner)


def to_composition(t: TensorWord) -> comp.Composition:
    """Basis-to-basis isomorphism onto compositions, generator to [0].

    The entry map is :func:`~mzvkit.compositions.exponents_to_entries`; the
    composition shuffle is this module's product carried through it.
    """
    return comp.Composition(comp.exponents_to_entries(t.exponents))


def evaluate(
    t: TensorWord,
    mul: Callable[[T, T], T],
    rb: Callable[[T], T],
    generator: T,
) -> T:
    """Evaluate through the universal property into a caller-supplied target.

    The tensor (n1, ..., nk) is read as x^n1 . P(x^n2 . P(... P(x^nk)...))
    with the generator substituted for x and ``rb`` for P; a zero exponent
    contributes no factor (the target algebra has no unit).  The caller is
    responsible for ``mul`` being commutative-associative and ``rb``
    satisfying the weight-0 Rota-Baxter identity for it.
    """
    head, rest = t.exponents[0], t.exponents[1:]
    if not rest:
        return _power(mul, generator, head)
    inner = rb(evaluate(TensorWord(rest), mul, rb, generator))
    if head == 0:
        return inner
    return mul(_power(mul, generator, head), inner)


def _power(mul: Callable[[T, T], T], x: T, n: int) -> T:
    if n < 1:
        raise DomainError("powers in a nonunitary algebra need n >= 1")
    acc = x
    for _ in range(n - 1):
        acc = mul(acc, x)
    return acc


def word_target() -> tuple[Callable, Callable, LinComb[words.Word]]:
    """(mul, rb, generator) triple realizing the word algebra as a target."""
    return (
        words.shuffle_lin,
        lambda v: v.map_basis(words.prepend_x0),
        LinComb.single(words.X1_WORD),
    )


def composition_target() -> tuple[Callable, Callable, LinComb[comp.Composition]]:
    """(mul, rb, generator) triple realizing the composition algebra as a target."""
    return (
        comp.shuffle_lin,
        lambda v: v.map_basis(comp.raise_first),
        LinComb.single(comp.Composition((0,))),
    )


def graded_basis(m: int) -> list[TensorWord]:
    """All tensor words of degree m, canonically ordered; there are 2^(m-1).

    A tensor of k slots spreads m - k + 1 over them with the last slot >= 1:
    k - 1 bars among m - 1 places cut off the slots, and the end point m in
    place of m - 1 adds the one to the last.  ``combinations`` yields the
    bar sets in lexicographic order, and so the exponents in theirs.
    """
    if m < 1:
        raise DomainError("degree must be >= 1")
    return [
        TensorWord(tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, m))))
        for k in range(1, m + 1)
        for bars in combinations(range(m - 1), k - 1)
    ]
