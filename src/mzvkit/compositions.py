"""Integer-composition algebras: extended shuffle, first-entry shift, stuffle.

Compositions with entries >= 0 carry the extended shuffle product.  It is
the product of the free commutative nonunitary Rota-Baxter algebra on one
generator (:mod:`mzvkit.free_rba`) transported through the basis bijection
``free_rba.to_composition``: map both entry tuples to exponent tensors, add
the first exponents, shuffle the remaining slots with the core engine and
map each term back.  Positive compositions additionally carry the stuffle
(quasi-shuffle) product, and two-row symbols extend stuffle to the
directional setting used by regularized MZVs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iter_product
from math import lcm
from operator import add, attrgetter

from .core import DomainError, LinComb, _exact, bilinear, mixable_shuffle


# (numerator, denominator) of an int or Fraction
_ratio = attrgetter("numerator", "denominator")


@dataclass(frozen=True, slots=True)
class Composition:
    """Finite nonempty sequence of integers >= 0.

    The hash is computed once, at construction, and kept in a hidden slot:
    compositions are dict keys in every product and relation table.
    """

    entries: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise DomainError("compositions are nonempty")
        if min(self.entries) < 0:
            raise DomainError(f"composition entries must be >= 0: {self}")
        object.__setattr__(self, "_hash", hash(self.entries))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Composition, (self.entries,))

    @property
    def is_positive(self) -> bool:
        return min(self.entries) >= 1

    @property
    def is_convergent(self) -> bool:
        """Admissible index of a convergent MZV: positive with first entry >= 2."""
        return self.is_positive and self.entries[0] >= 2

    @property
    def weight(self) -> int:
        return sum(self.entries)

    @property
    def depth(self) -> int:
        return len(self.entries)

    def leading_ones(self) -> int:
        n = 0
        for e in self.entries:
            if e != 1:
                break
            n += 1
        return n

    def sort_key(self):
        return (len(self.entries), self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


@dataclass(frozen=True, slots=True)
class BiComposition:
    """Two-row symbol: integer top row, non-negative rational bottom row.

    As for :class:`Composition`, the hash is computed once and kept in a
    hidden slot.  It reads the numerator and denominator of each direction
    entry, never a ``Fraction`` hash; a ``Fraction`` is in lowest terms and
    an ``int`` is n/1, so equal symbols hash equal.
    """

    s_row: tuple[int, ...]
    r_row: tuple[Fraction | int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.s_row:
            raise DomainError("bi-compositions are nonempty")
        if len(self.s_row) != len(self.r_row):
            raise DomainError(f"rows must have equal length: {self}")
        r_row = tuple(map(_exact, self.r_row))
        object.__setattr__(self, "r_row", r_row)
        ratios = tuple(map(_ratio, r_row))
        if min(ratios)[0] < 0:  # the least numerator
            raise DomainError(f"direction entries must be >= 0: {self}")
        object.__setattr__(self, "_hash", hash((self.s_row, ratios)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (BiComposition, (self.s_row, self.r_row))

    @classmethod
    def make(cls, s_row, r_row) -> "BiComposition":
        return cls(tuple(int(s) for s in s_row), tuple(r_row))

    @property
    def depth(self) -> int:
        return len(self.s_row)

    def s_composition(self) -> Composition:
        return Composition(self.s_row)

    def sort_key(self):
        return (len(self.s_row), self.s_row, self.r_row)

    def __str__(self) -> str:
        top = ",".join(str(s) for s in self.s_row)
        bottom = ",".join(str(r) for r in self.r_row)
        return f"[{top} | {bottom}]"


def raise_first(s: Composition) -> Composition:
    """Add 1 to the first entry; the Rota-Baxter operator of the shuffle side."""
    return Composition((s.entries[0] + 1,) + s.entries[1:])


def exponents_to_entries(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Entries of the composition an exponent tensor (n0, n1, ..., nl) maps to.

    n0 zeros, then for each later slot a 1 followed by n_i - 1 zeros; slots
    with n_i = 0 collapse into the preceding 1, raising it instead of opening
    a new block.  This is ``free_rba.to_composition`` on exponent tuples.
    """
    entries: list[int] = [0] * exps[0]
    pending = 0
    for n in exps[1:]:
        pending += 1
        if n >= 1:
            entries.append(pending)
            entries.extend([0] * (n - 1))
            pending = 0
    return tuple(entries)


def entries_to_exponents(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`exponents_to_entries`.

    Leading zeros count into the first slot; each positive entry e opens
    e - 1 zero slots and one slot of exponent 1, which the zeros after it
    raise.
    """
    exps = [0]
    for e in entries:
        if e:
            exps.extend([0] * (e - 1))
            exps.append(1)
        else:
            exps[-1] += 1
    return tuple(exps)


# the one composition with given entries that the products hand out as a
# term; the cache wraps the class itself, so a miss runs no Python frame more
_composition = lru_cache(maxsize=8192)(Composition)


@lru_cache(maxsize=8192)
def _from_exponents(exps: tuple[int, ...]) -> Composition:
    """The term of the exponent tensor ``exps``: :func:`_composition` of its entries."""
    return _composition(exponents_to_entries(exps))


@lru_cache(maxsize=8192)
def _shuffle_entries(s: tuple[int, ...], t: tuple[int, ...]) -> LinComb[Composition]:
    x, y = entries_to_exponents(s), entries_to_exponents(t)
    head = (x[0] + y[0],)
    return mixable_shuffle(x[1:], y[1:]).map_basis(lambda e: _from_exponents(head + e))


def shuffle(s: Composition, t: Composition) -> LinComb[Composition]:
    """Extended shuffle on compositions with entries >= 0.

    The free Rota-Baxter product of the two exponent tensors, read back as
    compositions: [0] is the generator and the first-entry shift the
    operator.  Leading zeros are pulled out front, and on positive
    compositions this is exactly the word shuffle transported through the
    word/composition bijection.
    """
    return _shuffle_entries(s.entries, t.entries)


def shuffle_lin(a: LinComb[Composition], b: LinComb[Composition]) -> LinComb[Composition]:
    return bilinear(shuffle, a, b)


@lru_cache(maxsize=8192)
def _stuffle_entries(s: tuple[int, ...], t: tuple[int, ...]) -> LinComb[Composition]:
    return mixable_shuffle(s, t, weight=1, merge=add).map_basis(_composition)


def stuffle(s: Composition, t: Composition) -> LinComb[Composition]:
    """Quasi-shuffle product on positive compositions (merged entries add)."""
    if not (s.is_positive and t.is_positive):
        raise DomainError(f"stuffle is defined on positive compositions: {s}, {t}")
    return _stuffle_entries(s.entries, t.entries)


def stuffle_lin(a: LinComb[Composition], b: LinComb[Composition]) -> LinComb[Composition]:
    return bilinear(stuffle, a, b)


def _merge_pairs(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] + b[0], a[1] + b[1])


def _column_shuffle(u: BiComposition, v: BiComposition, weight) -> LinComb[BiComposition]:
    """Mixable shuffle of the (s, r) columns of two-row symbols at the given weight.

    The recursion runs on integer columns (s, r*D), D the lcm of the
    denominators of both r-rows, so no memo or term key hashes a
    ``Fraction``.  Each distinct numerator n then maps back to one r value
    per call: ``Fraction(n, D)`` if either r-row holds a ``Fraction``, else
    the ``int`` n (D is 1).  A merged column adds numerators over the same
    D, so the values are those of the shuffle on the (s, r) columns.
    """
    rows = u.r_row + v.r_row
    d = lcm(*(r.denominator for r in rows))

    def columns(x: BiComposition) -> tuple[tuple[int, int], ...]:
        return tuple((s, r.numerator * (d // r.denominator)) for s, r in zip(x.s_row, x.r_row))

    a, b = columns(u), columns(v)
    numerators = {n for _, n in a + b}
    if weight:
        numerators.update(m + n for _, m in a for _, n in b)
    rational = any(type(r) is Fraction for r in rows)
    r_value = {n: Fraction(n, d) if rational else n for n in numerators}.__getitem__

    def term(cols: tuple[tuple[int, int], ...]) -> BiComposition:
        s_row, nums = zip(*cols)
        return BiComposition(s_row, tuple(map(r_value, nums)))

    return mixable_shuffle(a, b, weight, _merge_pairs).map_basis(term)


def bistuffle(u: BiComposition, v: BiComposition) -> LinComb[BiComposition]:
    """Quasi-shuffle of two-row symbols; merged columns add componentwise."""
    return _column_shuffle(u, v, 1)


def ones(n: int) -> Composition:
    if n < 1:
        raise DomainError("need n >= 1 ones")
    return Composition((1,) * n)


def _cut_compositions(weight: int, least_first: int) -> list[Composition]:
    """The positive compositions of the weight whose first entry is >= least_first (>= 1).

    A composition of depth d cuts [0, weight] at d - 1 of the points
    least_first..weight-1; ``combinations`` yields the cut sets in
    lexicographic order, and so in lexicographic order of the entries they
    give.  Depth by depth, this is canonical order.
    """
    if weight < least_first:
        return []
    return [
        Composition(tuple(b - a for a, b in zip((0, *cuts), (*cuts, weight))))
        for depth in range(1, weight - least_first + 2)
        for cuts in combinations(range(least_first, weight), depth - 1)
    ]


def positive_compositions(weight: int) -> list[Composition]:
    """All positive compositions of the given weight, in canonical order."""
    return _cut_compositions(weight, 1)


def convergent_compositions(weight: int) -> list[Composition]:
    """All convergent compositions (first entry >= 2) of the given weight, in canonical order."""
    return _cut_compositions(weight, 2)


def nonnegative_compositions(max_weight: int, max_depth: int) -> list[Composition]:
    """Compositions with entries >= 0, bounded entry sum and bounded depth, in canonical order."""
    out: list[Composition] = []
    for length in range(1, max_depth + 1):
        for entries in iter_product(range(max_weight + 1), repeat=length):
            if sum(entries) <= max_weight:
                out.append(Composition(entries))
    return out
