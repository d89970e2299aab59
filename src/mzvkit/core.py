"""Exact algebraic kernel shared by every product in the package.

One sparse-sum base, :class:`Sparse`, owns the pruned ``{key: coefficient}``
dict and its arithmetic for all four coefficient types of the package:
linear combinations over an arbitrary hashable basis with exact
coefficients (:class:`LinComb`), polynomials in the formal symbol T over a
caller-chosen coefficient ring (:class:`TPoly`), and, in their own modules,
polynomials in MZV symbols and Laurent polynomials in eps.  Next to them
sit the generic mixable shuffle, built bottom-up over suffix positions, that
the word shuffle, the composition shuffle and both quasi-shuffle products
instantiate, and the certified exact matrix rank.  Terms are added with zero
sums dropped by one helper, :func:`_add_into`; :meth:`LinComb.map_basis`
needs it only when its basis map merges terms.  The mixable shuffle needs no
pruning: its coefficients never cancel.
Coefficients are ``int`` unless a non-integer scalar enters (:func:`_exact`).
Values are immutable after construction and safe to share between threads.
Every :func:`mixable_shuffle` call builds its products from scratch and
keeps nothing once it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt, lcm
from operator import add, mul, neg
from typing import Callable, Generic, Hashable, Iterable, Iterator, Mapping, TypeVar

B = TypeVar("B", bound=Hashable)
R = TypeVar("R")

Scalar = Fraction | int


class DomainError(ValueError):
    """An operation was applied outside its declared domain."""


class MergeUndefinedError(DomainError):
    """A weighted shuffle tried to merge a pair of atoms it cannot combine."""


def _exact(c) -> Scalar:
    """c itself if an ``int`` or ``Fraction``, else ``Fraction(c)`` (so ``True`` becomes 1)."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


def _same(c):
    return c


def _add_into(acc: dict, terms: Iterable[tuple], scale=None) -> dict:
    """Add each ``(key, c)`` of terms, or ``(key, scale * c)``, into acc, dropping zero sums; return acc.

    No shortcut for a scale of 1: ``1.0 * Fraction`` stays a float.
    """
    for key, c in terms:
        if scale is not None:
            c = scale * c
        prev = acc.get(key)  # coefficients are never None
        if prev is not None:
            c = prev + c
        if c:
            acc[key] = c
        elif prev is not None:
            del acc[key]
    return acc


class Sparse:
    """Finite formal sum ``{key: coefficient}`` with zero coefficients pruned.

    The one sparse-dict type behind :class:`LinComb`, :class:`TPoly`,
    :class:`~mzvkit.regularization.ZetaExpr` and
    :class:`~mzvkit.numerics.LaurentPoly`.  A subclass fixes up to five
    constants: ``_coerce`` converts coefficients (:func:`_exact` unless
    overridden), ``_key`` validates or normalises a key on construction (the
    key itself by default), ``_mul_key`` combines the keys of two terms in a
    product (none: the type has no product of its own), ``_order`` gives the
    sort key of a key for :meth:`sorted_items` and ``str`` (the key itself by
    default), and ``_text`` writes a key as a monomial, ``""`` for the unit
    key (``str`` by default).  All arithmetic adds terms with :func:`_add_into`
    (:meth:`LinComb.map_basis` only when its basis map merges terms).
    Equality is term-set equality between values of the same type.
    Instances never mutate.
    """

    __slots__ = ("_terms",)

    _coerce: Callable = staticmethod(_exact)
    _key: Callable = staticmethod(_same)
    _mul_key: Callable | None = None
    _order: Callable = staticmethod(_same)
    _text: Callable = str

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        coerce, key_of = self._coerce, self._key
        self._terms = _add_into({}, ((key_of(key), coerce(c)) for key, c in items))

    @classmethod
    def _new(cls, terms: dict):
        """Wrap an already pruned dict without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    def items(self) -> Iterator[tuple]:
        return iter(self._terms.items())

    def coeff(self, key, default=0):
        c = self._terms.get(key)
        return self._coerce(default) if c is None else c

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]  # mutable-dict backed; not hashable

    def _merge(self, other, scale):
        if type(other) is not type(self):
            return NotImplemented
        return self._new(_add_into(dict(self._terms), other._terms.items(), scale))

    def __add__(self, other):
        return self._merge(other, None)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def scale(self, scalar):
        s = self._coerce(scalar)
        if not s:
            return self._new({})
        return self._new({k: v for k, c in self._terms.items() if (v := c * s)})

    def map_coeffs(self, f: Callable):
        """Apply f to every coefficient, keeping the keys and pruning zeros."""
        coerce = self._coerce
        return self._new({k: v for k, c in self._terms.items() if (v := coerce(f(c)))})

    def __mul__(self, other):
        """Product of two sums of the same type through ``_mul_key``; otherwise scaling."""
        if type(other) is not type(self):
            return self.scale(other)
        mul_key = self._mul_key
        if mul_key is None:
            return NotImplemented
        acc: dict = {}
        for k1, c1 in self._terms.items():
            _add_into(acc, ((mul_key(k1, k2), c2) for k2, c2 in other._terms.items()), c1)
        return self._new(acc)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def sorted_items(self) -> list[tuple]:
        """The terms ordered by ``_order`` of their keys; stored order if the keys do not compare."""
        terms = self._terms
        try:
            return [(key, terms[key]) for key in sorted(terms, key=self._order)]
        except TypeError:
            return list(terms.items())

    def __str__(self) -> str:
        """Terms in ``sorted_items`` order joined by `` + `` (``"0"`` if none).

        A term is ``c`` for the unit key, ``mono`` or ``-mono`` for c = ±1,
        ``(c)*mono`` if the text of c is a sum (it has a space, as the
        `` + ``-joined text of a :class:`~mzvkit.regularization.ZetaExpr`
        with two terms does) and ``c*mono`` otherwise; ``+ -`` is written ``- ``.
        """
        parts, text_of = [], self._text
        for key, c in self.sorted_items():
            mono, text = text_of(key), str(c)
            if mono:
                if text == "1":
                    text = mono
                elif text == "-1":
                    text = f"-{mono}"
                elif " " in text:
                    text = f"({text})*{mono}"
                else:
                    text = f"{text}*{mono}"
            parts.append(text)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


def power_text(symbol: str) -> Callable[[int], str]:
    """``_text`` of a polynomial in ``symbol``: ``""``, ``symbol``, ``symbol^n``."""

    def text(n: int) -> str:
        return "" if n == 0 else (symbol if n == 1 else f"{symbol}^{n}")

    return text


def _sort_key(basis):
    key = getattr(basis, "sort_key", None)
    if key is not None:
        return key() if callable(key) else key
    if isinstance(basis, tuple):
        return (len(basis), basis)
    return basis


class LinComb(Sparse, Generic[B]):
    """Finite formal sum of basis elements with nonzero exact coefficients.

    Zero coefficients are pruned on construction, so equality is term-set
    equality. Instances never mutate; all arithmetic returns fresh objects.
    """

    __slots__ = ()

    _order = staticmethod(_sort_key)

    @classmethod
    def single(cls, basis: B, coeff: Scalar = 1) -> "LinComb[B]":
        return cls({basis: coeff})

    def support(self) -> Iterator[B]:
        return iter(self._terms)

    def combine(self, other: "LinComb[B]", scalar: Scalar) -> "LinComb[B]":
        """Return ``self + scalar * other`` with zero terms pruned."""
        s = _exact(scalar)
        acc = dict(self._terms)
        return LinComb._new(_add_into(acc, other._terms.items(), s) if s else acc)

    def map_basis(self, f: Callable[[B], B]) -> "LinComb[B]":
        """Push the sum through a basis map, collecting collisions."""
        terms = self._terms
        keys = list(map(f, terms))
        image = dict(zip(keys, terms.values()))
        if len(image) < len(terms):  # f merges terms: add them up
            image = _add_into({}, zip(keys, terms.values()))
        return LinComb._new(image)

    def map_linear(self, f: Callable[[B], "LinComb"]) -> "LinComb":
        """Extend a basis-to-sum map linearly over self."""
        acc: dict = {}
        for basis, coeff in self._terms.items():
            _add_into(acc, f(basis)._terms.items(), coeff)
        return LinComb._new(acc)

    def coefficient_sum(self) -> Scalar:
        return sum(self._terms.values())


def bilinear(
    product_on_basis: Callable[[B, B], LinComb[B]],
    a: LinComb[B],
    b: LinComb[B],
) -> LinComb[B]:
    """Extend a basis-pair product bilinearly to linear combinations."""
    acc: dict[B, Scalar] = {}
    for u, cu in a.items():
        for v, cv in b.items():
            _add_into(acc, product_on_basis(u, v).items(), cu * cv)
    return LinComb._new(acc)


def mixable_shuffle(
    a: tuple,
    b: tuple,
    weight: Scalar = 0,
    merge: Callable | None = None,
) -> LinComb[tuple]:
    """Mixable shuffle of two atom sequences at the given weight.

    Recursion on the leading atoms: keep the head of ``a``, keep the head of
    ``b``, and (when the weight is nonzero) merge both heads into a single
    atom scaled by the weight.  The empty sequence acts as the recursion
    unit; it can appear in results only when an input is empty.  Weight 0
    never calls ``merge``, so the plain shuffle works on atoms with no
    product at all.  A partial ``merge`` signals unsupported pairs by
    raising :class:`MergeUndefinedError`.

    No coefficient is ever zero, so nothing is pruned.  A term t of the
    result collects one contribution per placement of ``a`` and ``b`` that
    gives it, each lam**k with k = len(a) + len(b) - len(t) merged slots: the
    same k for every contribution, since k depends on t alone.  Its
    coefficient is therefore (number of placements) * lam**k, a positive
    multiple of a power of the exact nonzero lam (weight 0 has no merged
    slots and k = 0), and no sum cancels for any lam.

    The products are built bottom-up over suffix positions, two rows at a
    time: ``below[j]`` is the product of ``a[i+1:]`` and ``b[j:]``, ``row[j]``
    that of ``a[i:]`` and ``b[j:]``.  Each state adds the head of ``a`` over
    (i+1, j), then the head of ``b`` over (i, j+1), then the merged heads over
    (i+1, j+1), so ``merge`` runs once per pair of positions, and nothing
    outlives the call.
    """
    lam = _exact(weight)
    a, b = tuple(a), tuple(b)
    if not a or not b:
        return LinComb._new({a + b: 1})
    if lam and merge is None:
        raise MergeUndefinedError("weighted shuffle requires a merge operation on atoms")
    heads_b = [(y,) for y in b]
    below = [{b[j:]: 1} for j in range(len(b) + 1)]
    for i in range(len(a) - 1, -1, -1):
        x = a[i]
        head = (x,)
        row = [None] * len(b) + [{a[i:]: 1}]
        for j in range(len(b) - 1, -1, -1):
            out = {head + tail: c for tail, c in below[j].items()}  # distinct keys
            head_y = heads_b[j]
            for tail, c in row[j + 1].items():
                t = head_y + tail
                out[t] = out.get(t, 0) + c
            if lam:
                merged = (merge(x, b[j]),)
                for tail, c in below[j + 1].items():
                    t = merged + tail
                    out[t] = out.get(t, 0) + c * lam
            row[j] = out
        below = row
    return LinComb._new(below[0])


def _nonnegative_degree(deg: int) -> int:
    if deg < 0:
        raise DomainError("T-polynomials have non-negative degrees")
    return deg


class TPoly(Sparse, Generic[R]):
    """Sparse polynomial in the formal symbol T over a coefficient ring R.

    R only needs ``+``, ``*``, negation and truthiness of zero (``Fraction``,
    ``float``, mpmath floats and :class:`~mzvkit.regularization.ZetaExpr` all
    qualify); coefficients are kept as given.  Degrees are non-negative.
    """

    __slots__ = ()

    _coerce = staticmethod(_same)
    _key = staticmethod(_nonnegative_degree)
    _mul_key = staticmethod(add)
    _order = staticmethod(neg)
    _text = staticmethod(power_text("T"))

    @classmethod
    def constant(cls, c: R) -> "TPoly[R]":
        return cls({0: c})

    @classmethod
    def t_power(cls, n: int, c: R) -> "TPoly[R]":
        return cls({n: c})

    def degree(self) -> int:
        """Degree of a nonzero polynomial; -1 for the zero polynomial."""
        return max(self._terms, default=-1)

    def __call__(self, t_value):
        """Evaluate at a concrete T value (Horner is overkill at these sizes)."""
        total = None
        for deg, c in self._terms.items():
            term = c * t_value**deg
            total = term if total is None else total + term
        return 0 if total is None else total


def matrix_rank(rows: Iterable[Iterable]) -> int:
    """Exact rank over the rationals of a matrix given as row iterables.

    Entries are ints, ``Fraction`` values or anything ``Fraction`` converts
    exactly; rows of unequal length raise :class:`DomainError`.  The rows are
    read once, from any iterable, and only their nonzero sparse integer forms
    are kept.  The rank is computed modulo a prime and certified exactly:
    ``rank_p <= rank_Q`` holds for every prime p, and ``rank_Q <= rank_p``
    follows either from ``rank_p = min(m, n)`` or from ``n - rank_p``
    independent kernel vectors whose product with the matrix is checked to be
    zero in exact integers.  No rank is returned without that certificate
    (see ``_certified_rank``).
    """
    nonzero, ncols = [], 0
    for i, row in enumerate(rows):
        row = list(row)
        if not i:
            ncols = len(row)
        elif len(row) != ncols:
            raise DomainError(f"ragged matrix: row 0 has {ncols} entries, row {i} has {len(row)}")
        if entries := _integer_row(row):
            nonzero.append(entries)
    return _certified_rank(nonzero, ncols)


def _integer_row(row: list) -> dict[int, int]:
    """The row as sparse ``{column: int}``, scaled by the lcm of its denominators."""
    entries = {j: _exact(row[j]) for j in compress(range(len(row)), row)}
    if all(type(x) is int for x in entries.values()):
        return entries
    den = lcm(*(x.denominator for x in entries.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in entries.items() if x}


def _certified_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank over Q of the matrix with nonzero sparse integer rows and ``ncols`` columns.

    For each prime p of a fixed sequence, one elimination mod p
    (``_eliminate``) gives rank_p, the pivot columns and one kernel vector
    per free column (1 on that column, 0 on the other free ones); no matrix
    is kept between primes.  Since rank_p <= rank_Q, a prime whose rank is
    lower than one seen before is unlucky and dropped, and so is one with
    the same rank but pivots further right (some column prefix lost rank
    mod p).  The kernels of the primes sharing the best pivot columns are
    combined by CRT and lifted to Q by rational reconstruction.  If
    ``M·K = 0`` holds in exact integers, K is n - rank_p independent kernel
    vectors over Q (identity on the free columns), so rank_Q <= rank_p and
    the rank is certified; otherwise the next prime joins.  The loop ends:
    only finitely many primes are unlucky, and by Cramer's rule
    reconstruction returns the true kernel once the CRT modulus exceeds
    2·H² for the Hadamard bound H of the matrix.
    """
    best: list[int] | None = None
    for p in _primes():
        pivots, free, kernel = _eliminate(rows, ncols, p)
        if len(pivots) == min(len(rows), ncols):
            return len(pivots)  # rank_p <= rank_Q <= min(m, n)
        if best is None or len(pivots) > len(best) or (len(pivots) == len(best) and pivots < best):
            best, residues, modulus = pivots, kernel, p
        elif pivots == best:
            residues = _crt(residues, modulus, kernel, p)
            modulus *= p
        else:
            continue
        vectors = _lift(residues, modulus, pivots, free)
        if vectors is not None and _annihilates(rows, vectors):
            return len(pivots)


def _primes() -> Iterator[int]:
    """The primes below 2**31, largest first, so that residue products fit in int64.

    Miller-Rabin to the bases 2, 3, 5 and 7 decides primality exactly below 3.2e9.
    """
    n = 2**31 - 1
    while True:
        if all(_strong_probable_prime(n, base) for base in (2, 3, 5, 7)):
            yield n
        n -= 2


def _strong_probable_prime(n: int, base: int) -> bool:
    """The Miller-Rabin test of the odd number n to the given base."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _eliminate(rows: list[dict[int, int]], ncols: int, p: int):
    """Pivot columns, free columns and kernel modulo the prime p of the integer rows.

    The rows are brought to echelon form with pivot entries 1; each pivot
    updates only the rows below it that are nonzero in its column, and only
    from that column on.  If rank_p < min(m, n), back substitution gives one
    kernel vector per free column, 1 on it and 0 on the other free columns,
    as its residues on the pivot columns in order; otherwise the kernel is
    ``[]``.  Only lists are returned, so the matrix is freed on return.
    """
    import numpy as np  # only rank needs numpy; ``import mzvkit`` stays without it

    a = np.zeros((len(rows), ncols), dtype=np.int64)
    np.put(a, [i * ncols + j for i, row in enumerate(rows) for j in row],
           [v % p for row in rows for v in row.values()])
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        pivot = a[r, c:]
        pivot *= pow(int(pivot[0]), -1, p)
        pivot %= p
        if nz.size > 1:
            below = r + nz[1:]  # the row swapped down was zero in column c
            block = a[below, c:]
            block -= block[:, :1] * pivot  # stays above -2**62: no int64 overflow
            block %= p
            a[below, c:] = block
        pivots.append(c)
    free = sorted(set(range(ncols)).difference(pivots))
    if len(pivots) == min(len(rows), ncols):
        return pivots, free, []
    x = np.zeros((ncols, len(free)), dtype=np.int64)
    x[free, range(len(free))] = 1
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        # at most ncols residues below 2**31 are summed: no int64 overflow; numpy % is >= 0
        x[c] = -(a[i, c + 1:, None] * x[c + 1:] % p).sum(axis=0) % p
    return pivots, free, x[pivots].T.tolist()


def _crt(residues: list[list[int]], modulus: int, kernel: list[list[int]], p: int) -> list[list[int]]:
    """Residues mod ``modulus * p`` from residues mod ``modulus`` and mod the prime p."""
    inv = pow(modulus, -1, p)
    return [
        [a + modulus * ((b - a) * inv % p) for a, b in zip(res, ker)]
        for res, ker in zip(residues, kernel)
    ]


def _lift(
    residues: list[list[int]], modulus: int, pivots: list[int], free: list[int]
) -> list[list[int]] | None:
    """Dense integer kernel vectors from their residues, or None if one fails to lift.

    Entries are reconstructed as fractions with numerator and denominator at
    most sqrt(modulus / 2), each after scaling by the denominators found so
    far in its vector; the vector is scaled by their product.
    """
    bound = isqrt(modulus // 2)
    vectors = []
    for col, res in zip(free, residues):
        den, nums = 1, []
        for u in res:
            q = _rational(u * den % modulus, modulus, bound)
            if q is None:
                return None
            num, q_den = q
            if q_den != 1:
                nums = [x * q_den for x in nums]
                den *= q_den
            nums.append(num)
        vec = [0] * (len(pivots) + len(free))
        vec[col] = den
        for c, num in zip(pivots, nums):
            vec[c] = num
        vectors.append(vec)
    return vectors


def _rational(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a/b ≡ u (mod m), |a| <= bound and 0 < b <= bound, by the half extended gcd."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _annihilates(rows: list[dict[int, int]], vectors: list[list[int]]) -> bool:
    """Whether every vector is in the kernel of the rows, in exact integers."""
    for row in rows:
        cols, vals = list(row), list(row.values())
        for vec in vectors:
            if sum(map(mul, vals, map(vec.__getitem__, cols))):
                return False
    return True
