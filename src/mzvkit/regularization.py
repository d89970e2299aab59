"""Regularized MZVs as exact T-polynomials, relation generators, and the
rho/beta change of regularization.

The two regularization maps write any positive composition as a polynomial
in T with coefficients in the ring of formal convergent-MZV symbols: T is
the adjoined divergent depth-one value, and the reduction peels leading
1-entries through the product with [1] (shuffle product for one map,
stuffle for the other).  No relations among symbols are applied
symbolically; identity checks happen numerically downstream.  Coefficients
are ``int`` unless the peeling divides them by a leading-ones count.

Relation generators emit the double shuffle and extended double shuffle
sets in a deterministic order, from one cached table per weight, and an
exact rank routine turns them into upper bounds for the weight-graded
dimension.  The CSV and JSON exports close the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .compositions import (
    Composition,
    convergent_compositions,
    ones,
    shuffle,
    stuffle,
)
from .core import DomainError, LinComb, Sparse, TPoly, _add_into, matrix_rank
from .numerics import DEFAULT_CTX, PrecisionContext, _zeta_bits, _zeta_pos_cached, zeta_pos


@dataclass(frozen=True, slots=True)
class MZVSymbol:
    """Formal symbol for a convergent MZV."""

    index: Composition

    def __post_init__(self):
        if not self.index.is_convergent:
            raise DomainError(f"MZV symbols need convergent indices: {self.index}")

    def __hash__(self) -> int:
        return self.index._hash  # stored by the index at construction

    def sort_key(self):
        return self.index.sort_key()

    def __str__(self) -> str:
        return "ζ(" + ",".join(str(e) for e in self.index.entries) + ")"


Monomial = tuple[MZVSymbol, ...]


def _monomial(symbols) -> Monomial:
    return tuple(sorted(symbols, key=MZVSymbol.sort_key))


def _monomial_product(m1: Monomial, m2: Monomial) -> Monomial:
    return _monomial(m1 + m2)


def _monomial_order(m: Monomial):
    return (len(m), [s.sort_key() for s in m])


def _monomial_text(m: Monomial) -> str:
    return "*".join(map(str, m))


class ZetaExpr(Sparse):
    """Commutative polynomial in MZV symbols with exact rational coefficients.

    Monomials are multisets of symbols kept as sorted tuples; zero
    coefficients are pruned so equality is structural.
    """

    __slots__ = ()

    _key = staticmethod(_monomial)
    _mul_key = staticmethod(_monomial_product)
    _order = staticmethod(_monomial_order)
    _text = staticmethod(_monomial_text)

    @classmethod
    def scalar(cls, c) -> "ZetaExpr":
        return cls({(): c})

    @classmethod
    def one(cls) -> "ZetaExpr":
        return cls.scalar(1)

    @classmethod
    def symbol(cls, sym: MZVSymbol | Composition) -> "ZetaExpr":
        if isinstance(sym, Composition):
            sym = MZVSymbol(sym)
        return cls({(sym,): 1})

    monomials = Sparse.items


def shuffle_regularize(s: Composition) -> TPoly:
    """Shuffle-regularized value of a positive composition, in ZetaExpr[T].

    Convergent indices map to their own symbol, [1] maps to T, and leading
    1-entries peel off through the shuffle product with [1]: that product
    contains the input with coefficient equal to its leading-ones count and
    otherwise only terms with strictly fewer leading ones.
    """
    return _regularize_cached(s.entries, _SHUFFLE)


def stuffle_regularize(s: Composition) -> TPoly:
    """Stuffle-regularized value; same contract with the quasi-shuffle product."""
    return _regularize_cached(s.entries, _STUFFLE)


_SHUFFLE = "shuffle"
_STUFFLE = "stuffle"
_PRODUCTS = {_SHUFFLE: shuffle, _STUFFLE: stuffle}


# checks its key itself, as _stuffle_entries does: a repeat is one lookup
@lru_cache(maxsize=4096)
def _regularize_cached(entries: tuple[int, ...], kind: str) -> TPoly:
    s = Composition(entries)
    if not s.is_positive:
        raise DomainError(f"regularization is defined on positive compositions: {s}")
    if s.is_convergent:
        return TPoly.constant(ZetaExpr.symbol(s))
    if entries == (1,):
        return TPoly.t_power(1, ZetaExpr.one())
    count = s.leading_ones()
    base = Composition((1,) * (count - 1) + entries[count:])
    expansion = _PRODUCTS[kind](ones(1), base)
    lead = expansion.coeff(s)
    if lead != count:
        raise AssertionError(f"peeling invariant broken at {s}: {lead} != {count}")
    acc = {deg + 1: c for deg, c in _regularize_cached(base.entries, kind).items()}
    for term, coeff in expansion.items():
        if term != s:
            _add_into(acc, _regularize_cached(term.entries, kind).items(), -coeff)
    return TPoly._new(acc).scale(Fraction(1, count))


def leading_ones_decomposition(
    ell: int, s: Composition
) -> list[tuple[int, int, Composition]]:
    """Write [{1}^ell, s] as an integer combination of [{1}^i] * [tail].

    Returns (coefficient, ones-count, convergent tail) triples: the stuffle
    of the ones block against the input contains the target with coefficient
    one, everything else has fewer leading ones and recurses.
    """
    if ell < 0:
        raise DomainError("need ell >= 0")
    if not s.is_convergent:
        raise DomainError(f"decomposition needs a convergent tail: {s}")
    acc = _add_into({}, (((i, tail), coeff) for coeff, i, tail in _ones_decomp(ell, s.entries)))
    return [(c, i, Composition(tail)) for (i, tail), c in sorted(acc.items())]


@lru_cache(maxsize=4096)
def _ones_decomp(ell: int, tail: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    if ell == 0:
        return ((1, 0, tail),)
    target = (1,) * ell + tail
    out: list[tuple[int, int, tuple[int, ...]]] = [(1, ell, tail)]
    for term, coeff in stuffle(ones(ell), Composition(tail)).items():
        if term.entries == target:
            continue
        i = term.leading_ones()
        rest = term.entries[i:]
        if not (rest and rest[0] >= 2):
            raise AssertionError(f"unexpected non-convergent remainder {term}")
        for sub_c, sub_i, sub_tail in _ones_decomp(i, rest):
            out.append((-coeff * sub_c, sub_i, sub_tail))
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Relation:
    """A vanishing combination of positive compositions, tagged with its source."""

    terms: LinComb
    weight: int
    source: tuple[Composition, Composition]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("relations are nonzero")
        for basis in self.terms.support():
            _check_term(basis, self.weight)

    @classmethod
    def _checked(cls, terms: LinComb, weight: int, source) -> "Relation":
        """The relation of nonzero terms that the caller has run through :func:`_check_term`."""
        rel = object.__new__(cls)
        for name, value in (("terms", terms), ("weight", weight), ("source", source)):
            object.__setattr__(rel, name, value)
        return rel

    def __str__(self) -> str:
        return str(self.terms)


def _check_term(basis, weight: int) -> None:
    """Raise :class:`DomainError` unless basis is a positive composition of the weight."""
    if not isinstance(basis, Composition):
        raise DomainError(f"relation terms are compositions: {basis!r}")
    if basis.weight != weight or not basis.is_positive:
        raise DomainError(f"relation not weight-{weight} homogeneous: {basis}")


def double_shuffle_relations(weight: int) -> list[Relation]:
    """Shuffle-minus-stuffle differences over convergent pairs of the weight.

    A fresh list of the leading part of the cached weight table (see
    :func:`extended_double_shuffle_relations`).
    """
    table, count = _relation_table(weight)
    return list(table[:count])


def extended_double_shuffle_relations(weight: int) -> list[Relation]:
    """Double shuffle relations plus the depth-one divergent pairings.

    The extra generators pair [1] against every convergent composition one
    weight down; the lone non-convergent term [1, w2] appears with
    coefficient one in both products, so the difference stays convergent.
    The table of a weight is built once and cached; each call returns a
    fresh list of the same (immutable) relations.
    """
    return list(_relation_table(weight)[0])


@lru_cache(maxsize=16)
def _relation_table(weight: int) -> tuple[tuple[Relation, ...], int]:
    """(double shuffle relations then the [1]-pairings, count of the former)."""
    if weight < 2:
        raise DomainError("relations start at weight 2")
    out: list[Relation] = []
    checked: set[Composition] = set()  # the products share their terms: check each once

    def add_relation(w1: Composition, w2: Composition) -> None:
        diff = shuffle(w1, w2) - stuffle(w1, w2)
        if diff:
            for term in diff.support():
                if term not in checked:
                    _check_term(term, weight)
                    checked.add(term)
            out.append(Relation._checked(diff, weight, (w1, w2)))

    for w1, w2 in _convergent_pairs(weight):
        add_relation(w1, w2)
    count = len(out)
    z1 = ones(1)
    for w2 in convergent_compositions(weight - 1):
        add_relation(z1, w2)
    return tuple(out), count


def _convergent_pairs(weight: int) -> Iterator[tuple[Composition, Composition]]:
    for half in range(2, weight - 1):
        if half > weight - half:
            break
        left = convergent_compositions(half)
        right = convergent_compositions(weight - half)
        for i, w1 in enumerate(left):
            start = i if half == weight - half else 0
            for w2 in right[start:]:
                yield w1, w2


def relation_rank(weight: int) -> tuple[int, int]:
    """(exact rank of the extended relation set, upper bound on the graded dimension).

    The bound is the number of convergent compositions of the weight minus
    the rank of the relations inside their span.  The rank is exact: it is
    computed modulo primes and certified by :func:`~mzvkit.core.matrix_rank`
    with an integer kernel K whose product with the relation matrix is
    checked to be zero, so the bound is the dimension of that kernel.

    The matrix is ordered by depth, which leaves the rank alone but makes
    the elimination cheap.  Every shuffle term of u and v has depth
    d(u) + d(v) and no stuffle term is deeper, so a relation from a source
    pair of total depth d has no term deeper than d.  With the columns
    deepest first (canonical order inside a depth) and the rows by
    decreasing source depth, the rows of depth d are zero left of the
    depth-d columns: the matrix is block upper triangular by depth.
    """
    basis = sorted(convergent_compositions(weight), key=lambda s: -s.depth)
    index = {s.entries: i for i, s in enumerate(basis)}  # the table's terms are other objects

    def row(rel: Relation) -> list:
        dense = [0] * len(basis)
        for term, coeff in rel.terms.items():
            dense[index[term.entries]] = coeff
        return dense

    relations = extended_double_shuffle_relations(weight)
    relations.sort(key=lambda rel: -rel.source[0].depth - rel.source[1].depth)
    rank = matrix_rank(map(row, relations)) if relations else 0  # weight 2 has no relations
    return rank, len(basis) - rank


# ---------------------------------------------------------------------------
# the rho / beta maps


@dataclass(frozen=True)
class RhoMap:
    """Coefficient tables of the regularization-exchange map and its inverse.

    gamma holds the Taylor coefficients of exp(sum_{n>=2} (-1)^n zeta(n) u^n/n),
    delta the coefficients of the reciprocal series.
    """

    gamma: tuple
    delta: tuple


def build_rho(order: int, ctx: PrecisionContext = DEFAULT_CTX) -> RhoMap:
    """The tables to T^order from zeta(2), ..., zeta(order) at ctx, one per precision.

    The values are those of ``zeta_pos``, so every tolerance that gives
    ``zeta_pos`` its bits gives one table.  The checks come before the
    lookup: a negative order raises ``DomainError``, and a budget below the
    terms of zeta(max(order, 2)), as many as every value read, ``PrecisionError``.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    return _rho_cached(order, ctx.digits, _zeta_bits(max(order, 2), ctx))


@lru_cache(maxsize=256)
def _rho_cached(order: int, digits: int, bits: int) -> RhoMap:
    zero = _zeta_pos_cached(2, digits, bits) * 0
    series = [zero] * (order + 1)
    for n in range(2, order + 1):
        series[n] = (-1) ** n * _zeta_pos_cached(n, digits, bits) / n
    gamma = [zero + 1]
    for m in range(1, order + 1):
        acc = zero
        for j in range(1, m + 1):
            acc += j * series[j] * gamma[m - j]
        gamma.append(acc / m)
    delta = [zero + 1]
    for m in range(1, order + 1):
        acc = zero
        for j in range(1, m + 1):
            acc -= gamma[j] * delta[m - j]
        delta.append(acc)
    return RhoMap(tuple(gamma), tuple(delta))


def rho_apply(p: TPoly, rho: RhoMap) -> TPoly:
    """Exchange stuffle-regularized polynomials for shuffle-regularized ones."""
    return _apply_table(p, rho.gamma)


def beta_apply(p: TPoly, rho: RhoMap) -> TPoly:
    """Inverse exchange; uses the reciprocal coefficient table."""
    return _apply_table(p, rho.delta)


def _apply_table(p: TPoly, table) -> TPoly:
    if p.degree() > len(table) - 1:
        raise DomainError(
            f"polynomial degree {p.degree()} exceeds the table order {len(table) - 1}"
        )
    return TPoly(
        (n - k, coeff * table[k] * math.perm(n, k)) for n, coeff in p.items() for k in range(n + 1)
    )


def corollary_check(order: int, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Largest coefficient gap in the exponential identity for repeated ones.

    Compares exp(sum (-1)^(n-1) Zst(n) u^n / n) against 1 + sum Zst({1}^n) u^n
    as polynomials in T per power of u, with Zst(1) = T, Zst(n) = zeta(n) for
    n >= 2, and the right side evaluated through the stuffle regularization.
    """
    from .numerics import eval_reg_poly

    if order < 1:
        raise DomainError("order must be >= 1")
    series: list[TPoly] = [TPoly(), TPoly.t_power(1, 1.0)]
    for n in range(2, order + 1):
        series.append(TPoly.constant((-1.0) ** (n - 1) * float(zeta_pos(n, ctx)) / n))
    lhs: list[TPoly] = [TPoly.constant(1.0)]
    for m in range(1, order + 1):
        acc = TPoly()
        for j in range(1, m + 1):
            acc = acc + series[j].scale(j) * lhs[m - j]
        lhs.append(acc.scale(1.0 / m))
    worst = 0.0
    for m in range(1, order + 1):
        rhs = eval_reg_poly(stuffle_regularize(ones(m)), ctx)
        diff = lhs[m] - rhs
        for _, c in diff.items():
            worst = max(worst, abs(float(c)))
    return worst


# ---------------------------------------------------------------------------
# export formats


def fraction_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def fraction_json(c: Fraction) -> str:
    """``fraction_str(c)`` as a JSON string."""
    return encode_basestring_ascii(fraction_str(c))


def _piece(texts: dict, s: Composition, render) -> tuple:
    """(sort key, ``render(s)``) of ``s``, kept in ``texts`` by its entries.

    ``texts`` lives for one export, so each composition is rendered once per call.
    """
    piece = texts.get(s.entries)
    if piece is None:
        piece = texts[s.entries] = (s.sort_key(), render(s))
    return piece


def _sorted_terms(rel: Relation, texts: dict, render) -> list:
    """The terms of ``rel`` in canonical order, as (``render(s)``, coefficient)."""
    # the keys of one relation differ, so coefficients are never compared
    pieces = sorted([(_piece(texts, s, render), c) for s, c in rel.terms.items()])
    return [(text, c) for (_, text), c in pieces]


def relations_to_csv(relations: Iterable[Relation]) -> str:
    lines = ["weight,source_pair,term_composition,coefficient"]
    texts: dict = {}
    for rel in relations:
        u, v = (_piece(texts, s, str)[1] for s in rel.source)
        prefix = f"{rel.weight},{u};{v},"
        for text, coeff in _sorted_terms(rel, texts, str):
            lines.append(f"{prefix}{text},{fraction_str(coeff)}")
    return "\n".join(lines) + "\n"


def json_join(items: Iterable[str], newline: str, brackets: str = "[]") -> str:
    """``json.dumps(..., indent=2)`` of a list, or with ``brackets="{}"`` an object, from encoded items.

    Each item is the text of one element (for an object, of one ``"key":
    value`` pair) already encoded at the indent one step past the indent
    that ``newline`` ends in.  With no items this is ``[]`` or ``{}``.
    This is the JSON encoder of the relation and T-polynomial exports
    (``eval`` writes its fixed layout in one pass, ``cli._value_to_json``):
    with ``indent`` set, ``json.dumps`` falls back to its pure-Python encoder.
    """
    inner = newline + "  "
    body = ("," + inner).join(items)
    # one f-string copies the body once, where a chain of + copies it per operand
    return f"{brackets[0]}{inner}{body}{newline}{brackets[1]}" if body else brackets


def relations_to_json(relations: Iterable[Relation]) -> str:
    """``json.dumps(records, indent=2)``, written from cached fragments.

    Each record is ``{"weight", "source_pair", "terms"}`` with compositions
    as entry lists and coefficients as ``fraction_str`` strings.  The text of
    each composition and of each coefficient is made once per call; the
    record skeleton around them is fixed.
    """
    texts: dict = {}
    coeffs: dict = {}
    sources: dict = {}

    def term_head(s: Composition) -> str:
        return '{\n        "composition": ' + json_join(map(str, s.entries), "\n        ") + ',\n        "coeff": '

    def coeff(c) -> str:
        text = coeffs.get(c)
        if text is None:
            text = coeffs[c] = fraction_json(c) + "\n      }"
        return text

    def source(s: Composition) -> str:
        text = sources.get(s)
        if text is None:
            text = sources[s] = json_join(map(str, s.entries), "\n      ")
        return text

    def record(rel: Relation) -> str:
        u, v = rel.source
        terms = json_join([head + coeff(c) for head, c in _sorted_terms(rel, texts, term_head)], "\n    ")
        return (
            f'{{\n    "weight": {rel.weight},\n    "source_pair": [\n      {source(u)},\n      {source(v)}\n    ],'
            f'\n    "terms": {terms}\n  }}'
        )

    return json_join(map(record, relations), "\n")


def reg_poly_to_json(p: TPoly) -> str:
    """``json.dumps(..., indent=2)`` of ``{"T^d": {"monomials": [{"symbols", "coeff"}]}}``.

    Symbols are entry lists; the constant monomial has none.
    """

    def monomial(mono: Monomial, coeff) -> str:
        symbols = json_join([json_join(map(str, sym.index.entries), "\n          ") for sym in mono], "\n        ")
        fields = ('"symbols": ' + symbols, '"coeff": ' + fraction_json(coeff))
        return json_join(fields, "\n      ", "{}")

    def degree(deg: int, expr: ZetaExpr) -> str:
        monomials = json_join([monomial(*item) for item in expr.sorted_items()], "\n    ")
        return f'"T^{deg}": ' + json_join(['"monomials": ' + monomials], "\n  ", "{}")

    return json_join([degree(*item) for item in sorted(p.items())], "\n", "{}")


def reg_poly_to_csv(p: TPoly) -> str:
    lines = ["t_degree,monomial,coefficient"]
    for deg, expr in sorted(p.items()):
        for mono, coeff in expr.sorted_items():
            lines.append(f"{deg},\"{_monomial_text(mono) or '1'}\",{fraction_str(coeff)}")
    return "\n".join(lines) + "\n"
