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

from dataclasses import dataclass
from typing import Callable, TypeVar

from . import compositions as comp
from . import words
from .core import DomainError, LinComb, mixable_shuffle

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class TensorWord:
    """Exponent tensor (n1, ..., nk), k >= 1, all >= 0, last >= 1."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if not self.exponents:
            raise DomainError("tensor words are nonempty")
        if any(n < 0 for n in self.exponents):
            raise DomainError(f"exponents must be >= 0: {self.exponents}")
        if self.exponents[-1] < 1:
            raise DomainError(f"last exponent must be >= 1: {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents) + len(self.exponents) - 1

    def sort_key(self):
        return (len(self.exponents), self.exponents)

    def __str__(self) -> str:
        return "(" + ",".join(str(n) for n in self.exponents) + ")"


GENERATOR = TensorWord((1,))


def product(a: TensorWord, b: TensorWord) -> LinComb[TensorWord]:
    """First exponents add; the remaining slots shuffle without merging."""
    first = a.exponents[0] + b.exponents[0]
    tails = mixable_shuffle(a.exponents[1:], b.exponents[1:])
    return tails.map_basis(lambda t: TensorWord((first,) + t))


def nest(t: TensorWord) -> TensorWord:
    """The Rota-Baxter operator: prepend a zero exponent (degree goes up by 1)."""
    return TensorWord((0,) + t.exponents)


def to_word_sum(t: TensorWord) -> LinComb[words.Word]:
    """Graded isomorphism onto the word algebra, generator to x1.

    A single slot x^n maps to the n-th shuffle power of x1 (n! times the
    word of n ones); deeper tensors recurse through the x0-prepend operator.
    """
    head, rest = t.exponents[0], t.exponents[1:]
    head_power = words.shuffle_power(words.X1_WORD, head)
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
    """All tensor words of degree m, canonically ordered; there are 2^(m-1)."""
    if m < 1:
        raise DomainError("degree must be >= 1")
    out: list[TensorWord] = []
    for k in range(1, m + 1):
        total = m - k + 1  # remaining exponent sum

        def build(remaining: int, slots_left: int, prefix: tuple[int, ...]):
            if slots_left == 1:
                if remaining >= 1:
                    out.append(TensorWord(prefix + (remaining,)))
                return
            for n in range(remaining + 1):
                build(remaining - n, slots_left - 1, prefix + (n,))

        build(total, k, ())
    return sorted(out, key=TensorWord.sort_key)
