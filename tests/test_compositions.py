import copy
import pickle
import random
from fractions import Fraction

import pytest

from mzvkit import compositions as comp
from mzvkit.compositions import (
    BiComposition,
    Composition,
    _column_shuffle,
    bistuffle,
    convergent_compositions,
    entries_to_exponents,
    exponents_to_entries,
    nonnegative_compositions,
    ones,
    positive_compositions,
    raise_first,
    shuffle,
    stuffle,
)
from mzvkit.core import DomainError, LinComb, bilinear, mixable_shuffle
from mzvkit.expressions import _weighted_compositions
from mzvkit.free_rba import graded_basis, to_composition as tensor_to_composition
from mzvkit.words import words_of_degree


def C(*entries):
    return Composition(tuple(entries))


def leading_entry_shuffle(s, t):
    """Reference oracle: the extended shuffle by recursion on the leading entries.

    A leading zero of either factor pops out front; otherwise each factor in
    turn lowers its first entry, and the first entry of every resulting term
    is raised again.  It shares no code with the transported free
    Rota-Baxter product that ``shuffle`` computes.
    """
    memo = {}

    def rec(x, y):
        if not x:
            return {y: 1}
        if not y:
            return {x: 1}
        if (x, y) in memo:
            return memo[(x, y)]
        out = {}
        if x[0] == 0:
            parts = [((0,), rec(x[1:], y))]
        elif y[0] == 0:
            parts = [((0,), rec(x, y[1:]))]
        else:
            parts = [(None, rec((x[0] - 1,) + x[1:], y)), (None, rec(x, (y[0] - 1,) + y[1:]))]
        for head, terms in parts:
            for tail, c in terms.items():
                k = head + tail if head else (tail[0] + 1,) + tail[1:]
                out[k] = out.get(k, 0) + c
        memo[(x, y)] = out
        return out

    return LinComb((Composition(k), c) for k, c in rec(s.entries, t.entries).items())


class TestCompositionType:
    def test_invariants(self):
        with pytest.raises(DomainError):
            Composition(())
        with pytest.raises(DomainError):
            Composition((-1, 2))
        assert C(2, 1).is_convergent
        assert not C(1, 2).is_convergent
        assert C(1, 2).is_positive
        assert not C(0, 2).is_positive

    def test_weight_depth_leading_ones(self):
        s = C(1, 1, 3, 1)
        assert s.weight == 6 and s.depth == 4 and s.leading_ones() == 2

    def test_str(self):
        assert str(C(2, 1)) == "[2,1]"

    def test_equal_compositions_are_one_key(self):
        # the hash is computed once and kept; equality still compares entries
        s, t = C(2, 1), Composition((2, 1))
        copies = [pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)]
        for u in [t, *copies]:
            assert u is not s and u == s and hash(u) == hash(s)
            assert {s: "found"}[u] == "found" and {u: "found"}[s] == "found"
            assert repr(u) == "Composition(entries=(2, 1))"
        assert C(2, 1) != C(1, 2) and C(2, 1) != (2, 1)


class TestExtendedShuffle:
    def test_base_case(self):
        assert shuffle(C(0), C(0)) == LinComb.single(C(0, 0))

    def test_leading_zero_prepends(self):
        assert shuffle(C(0), C(3, 1)) == LinComb.single(C(0, 3, 1))

    def test_ones(self):
        assert shuffle(C(1), C(1)) == LinComb({C(1, 1): 2})

    def test_mixed(self):
        assert shuffle(C(1), C(2)) == LinComb({C(1, 2): 1, C(2, 1): 2})

    def test_products_return_the_cached_value(self):
        s, t = C(2, 1, 3), C(1, 2, 1)
        assert shuffle(s, t) is shuffle(s, t)
        assert stuffle(s, t) is stuffle(s, t)

    def test_products_hand_out_one_object_per_term(self):
        # every product builds its terms through the one interning
        # constructor.  The caches start empty: a term that _composition has
        # evicted while _from_exponents still holds it comes back as an equal
        # but distinct object
        s, t = C(2, 1, 3), C(1, 2, 1)
        for cache in (comp._shuffle_entries, comp._stuffle_entries, comp._composition, comp._from_exponents):
            cache.cache_clear()
        by_value = {u: u for u in shuffle(s, t).support()}
        for product in (stuffle(s, t), _weighted_compositions(s, t, 1)):
            shared = [u for u in product.support() if u in by_value]
            assert shared and all(by_value[u] is u for u in shared)

    def test_double_zero_heads_unambiguous(self):
        got = shuffle(C(0, 1), C(0, 2))
        assert got == shuffle(C(0, 2), C(0, 1))
        assert all(term.entries[:2] == (0, 0) for term, _ in got.items())

    def test_positive_four_case_recursion(self):
        # on positive compositions the product satisfies the case split on
        # leading entries: lowered-and-raised when both exceed 1, a popped
        # leading 1 otherwise
        def lower(s):
            return Composition((s.entries[0] - 1,) + s.entries[1:])

        def one_front(combo):
            return combo.map_basis(lambda c: Composition((1,) + c.entries))

        def rec_rhs(s, t):
            s_one, t_one = s.entries[0] == 1, t.entries[0] == 1
            if not s_one and not t_one:
                return shuffle(lower(s), t).map_basis(raise_first) + shuffle(
                    s, lower(t)
                ).map_basis(raise_first)
            if s_one and not t_one:
                left = (
                    one_front(shuffle(Composition(s.entries[1:]), t))
                    if s.depth > 1
                    else LinComb.single(Composition((1,) + t.entries))
                )
                return left + shuffle(s, lower(t)).map_basis(raise_first)
            if not s_one and t_one:
                return rec_rhs(t, s)
            left = (
                one_front(shuffle(Composition(s.entries[1:]), t))
                if s.depth > 1
                else LinComb.single(Composition((1,) + t.entries))
            )
            right = (
                one_front(shuffle(s, Composition(t.entries[1:])))
                if t.depth > 1
                else LinComb.single(Composition((1,) + s.entries))
            )
            return left + right

        for total in range(2, 8):
            for split in range(1, total):
                for s in positive_compositions(split):
                    for t in positive_compositions(total - split):
                        assert shuffle(s, t) == rec_rhs(s, t), (s, t)

    def test_matches_leading_entry_recursion_with_zero_entries(self):
        pool = nonnegative_compositions(5, 3)
        assert len(pool) ** 2 == 6889
        for s in pool:
            for t in pool:
                assert shuffle(s, t) == leading_entry_shuffle(s, t), (s, t)

    def test_generator_identity(self):
        # every composition arises from [0] through the product and the shift:
        # (s1,...,sk) = I^s1([0] sh I^s2([0] sh ... I^sk([0])...))
        def build(entries):
            inner = LinComb.single(C(0))
            for e in reversed(entries[1:]):
                shifted = inner
                for _ in range(e):
                    shifted = shifted.map_basis(raise_first)
                inner = bilinear(shuffle, LinComb.single(C(0)), shifted)
            for _ in range(entries[0]):
                inner = inner.map_basis(raise_first)
            return inner

        import itertools

        for length in range(1, 4):
            for entries in itertools.product(range(0, 4), repeat=length):
                assert build(entries) == LinComb.single(Composition(entries)), entries


class TestExponentMap:
    def test_inverts_tensor_to_composition(self):
        for m in range(1, 9):
            for t in graded_basis(m):
                entries = tensor_to_composition(t).entries
                assert entries_to_exponents(entries) == t.exponents, t
                assert exponents_to_entries(t.exponents) == entries, t

    def test_round_trip_on_compositions(self):
        for s in nonnegative_compositions(5, 4):
            assert exponents_to_entries(entries_to_exponents(s.entries)) == s.entries, s

    def test_examples(self):
        assert entries_to_exponents((0,)) == (1,)
        assert entries_to_exponents((1,)) == (0, 1)
        assert entries_to_exponents((0, 2, 0, 1)) == (1, 0, 2, 1)


class TestRaiseFirst:
    def test_examples(self):
        assert raise_first(C(1, 2)) == C(2, 2)
        assert raise_first(C(0)) == C(1)

    def test_rota_baxter_example(self):
        a, b = C(0), C(1)
        lhs = shuffle(raise_first(a), raise_first(b))
        rhs = shuffle(a, raise_first(b)).map_basis(raise_first) + shuffle(
            raise_first(a), b
        ).map_basis(raise_first)
        assert lhs == rhs


class TestStuffle:
    def test_examples(self):
        assert stuffle(C(1), C(2)) == LinComb({C(1, 2): 1, C(2, 1): 1, C(3): 1})
        assert stuffle(C(2), C(2)) == LinComb({C(2, 2): 2, C(4): 1})
        assert stuffle(C(1), C(1)) == LinComb({C(1, 1): 2, C(2): 1})

    def test_positivity_guard(self):
        with pytest.raises(DomainError):
            stuffle(C(0), C(1))

    def test_weight_additive_depth_bounded(self):
        rng = random.Random(37)
        for _ in range(200):
            s = rng.choice(positive_compositions(rng.randint(1, 6)))
            t = rng.choice(positive_compositions(rng.randint(1, 6)))
            for term, _ in stuffle(s, t).items():
                assert term.weight == s.weight + t.weight
                assert max(s.depth, t.depth) <= term.depth <= s.depth + t.depth
                assert term.is_positive


class TestBistuffle:
    def test_example(self):
        u = BiComposition.make([1], [1])
        v = BiComposition.make([2], [0])
        got = bistuffle(u, v)
        assert got == LinComb(
            {
                BiComposition.make([1, 2], [1, 0]): 1,
                BiComposition.make([2, 1], [0, 1]): 1,
                BiComposition.make([3], [1]): 1,
            }
        )

    def test_projects_to_stuffle(self):
        rng = random.Random(41)
        for _ in range(100):
            k, l = rng.randint(1, 3), rng.randint(1, 3)
            u = BiComposition.make(
                [rng.randint(1, 3) for _ in range(k)], [rng.randint(0, 2) for _ in range(k)]
            )
            v = BiComposition.make(
                [rng.randint(1, 3) for _ in range(l)], [rng.randint(0, 2) for _ in range(l)]
            )
            projected = bistuffle(u, v).map_basis(lambda b: b.s_composition())
            assert projected == stuffle(u.s_composition(), v.s_composition())

    def test_ones_block_rows_mirror_plain_stuffle(self):
        # pairing the ones block against a convergent row keeps the same
        # coefficients in both rows of every merged symbol
        u = BiComposition.make([1], [1])
        v = BiComposition.make([2, 1], [0, 0])
        got = bistuffle(u, v)
        flat = stuffle(C(1), C(2, 1))
        assert got.map_basis(lambda b: b.s_composition()) == flat

    def test_two_row_ones_block_reproduces_flat_coefficients(self):
        # the double-ones block with a leading-unit direction row expands with
        # exactly the coefficients of the one-row expansion
        u = BiComposition.make([1, 1], [1, 0])
        v = BiComposition.make([2], [0])
        got = bistuffle(u, v)
        flat = stuffle(C(1, 1), C(2))
        assert got.map_basis(lambda b: b.s_composition()) == flat
        for term, coeff in got.items():
            assert flat.coeff(term.s_composition()) >= coeff >= 1

    def test_negative_s_entries_allowed(self):
        u = BiComposition.make([-1], [1])
        v = BiComposition.make([2], [1])
        got = bistuffle(u, v)
        assert got.coeff(BiComposition.make([1], [2])) == 1

    def test_row_validation(self):
        with pytest.raises(DomainError):
            BiComposition.make([1, 2], [1])
        with pytest.raises(DomainError):
            BiComposition.make([1], [-1])
        with pytest.raises(DomainError):
            BiComposition.make([], [])

    def test_r_row_coefficient_rule(self):
        # floats become exact fractions; int and Fraction entries pass as they are
        assert BiComposition.make([1], [0.5]).r_row == (Fraction(1, 2),)
        assert type(BiComposition.make([1], [0.5]).r_row[0]) is Fraction
        u = BiComposition.make([2, 1], [Fraction(1, 2), Fraction(0)])
        v = BiComposition.make([1], [Fraction(1, 3)])
        got = bistuffle(u, v)
        assert got and all(type(r) is Fraction for term, _ in got.items() for r in term.r_row)
        with pytest.raises(DomainError, match="direction entries must be >= 0"):
            BiComposition.make([1, 2], [Fraction(1, 2), -0.25])

    def test_matches_raw_column_oracle(self):
        # the engine shuffles (s, r*D) integer columns; the oracle shuffles the
        # raw (s, r) columns.  Results are equal, and every result entry is a
        # Fraction when either r-row holds one, else an int
        rng = random.Random(20)

        def entry(fractions: float):
            if rng.random() < fractions:
                return Fraction(rng.randint(0, 6), rng.randint(1, 6))
            return rng.randint(0, 3)

        def draw() -> BiComposition:
            depth, fractions = rng.randint(1, 3), rng.choice((0.0, 0.5, 1.0))
            return BiComposition.make(
                [rng.randint(-1, 3) for _ in range(depth)], [entry(fractions) for _ in range(depth)]
            )

        def oracle(u, v, lam):
            raw = mixable_shuffle(
                tuple(zip(u.s_row, u.r_row)), tuple(zip(v.s_row, v.r_row)), lam,
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
            )
            return raw.map_basis(
                lambda cols: BiComposition(tuple(s for s, _ in cols), tuple(r for _, r in cols))
            )

        kinds = set()
        for _ in range(150):
            u, v = draw(), draw()
            want = Fraction if any(type(r) is Fraction for r in u.r_row + v.r_row) else int
            kinds.add(want)
            for lam in (0, 1, -1, Fraction(1, 2)):
                got = _column_shuffle(u, v, lam)
                assert got == oracle(u, v, lam), (u, v, lam)
                assert all(type(r) is want for term in got.support() for r in term.r_row)
        assert kinds == {Fraction, int}

    def test_equal_symbols_are_one_key(self):
        # the hash is kept in a slot and read from numerators and denominators,
        # so an int entry and each Fraction equal to it give one key
        s = BiComposition.make([1], [1])
        for u in (BiComposition.make([1], [Fraction(1)]), BiComposition.make([1], [Fraction(2, 2)])):
            assert u == s and hash(u) == hash(s) and {s: "found"}[u] == "found"
        t = BiComposition.make([2, 1], [Fraction(1, 2), 0])
        for u in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert u is not t and u == t and hash(u) == hash(t)
            assert {t: "found"}[u] == "found" and {u: "found"}[t] == "found"
            assert repr(u) == "BiComposition(s_row=(2, 1), r_row=(Fraction(1, 2), 0))"
        assert s != BiComposition.make([1], [2]) and s != BiComposition.make([2], [1])

    @pytest.mark.parametrize("r", [-1, Fraction(-1, 2)])
    def test_negative_direction_raises(self, r):
        with pytest.raises(DomainError, match="direction entries must be >= 0"):
            BiComposition.make([1, 2], [Fraction(1, 3), r])


def _same_key(term, twin, text):
    """term equals its checked twin and hashes equal, also as a copy, and repr shows no hidden slot."""
    for u in (term, pickle.loads(pickle.dumps(term)), copy.copy(term), copy.deepcopy(term)):
        assert u == twin and hash(u) == hash(twin), (term, twin)
        assert {twin: "found"}[u] == "found" and {u: "found"}[twin] == "found"
        assert repr(u) == text


def _draw_entries(rng, low):
    return tuple(rng.randint(low, 3) for _ in range(rng.randint(1, 3)))


def _draw_symbol(rng, kind):
    """A seeded symbol whose r-row holds ints, Fractions, or a mix of both."""

    def entry():
        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
            return Fraction(rng.randint(0, 6), rng.randint(1, 4))
        return rng.randint(0, 3)

    depth = rng.randint(1, 3)
    return BiComposition.make([rng.randint(-1, 3) for _ in range(depth)], [entry() for _ in range(depth)])


class TestTrustedTerms:
    """The engines build their terms unchecked; every term must pass the public checks."""

    @pytest.mark.parametrize("engine", ["shuffle", "stuffle", "msh"])
    def test_composition_terms_round_trip_through_the_public_constructor(self, engine):
        rng = random.Random(22)
        low = 1 if engine == "stuffle" else 0
        for _ in range(60):
            s, t = Composition(_draw_entries(rng, low)), Composition(_draw_entries(rng, low))
            if engine == "shuffle":
                got = shuffle(s, t)
            elif engine == "stuffle":
                got = stuffle(s, t)
            else:
                got = _weighted_compositions(s, t, rng.choice((1, -1, Fraction(1, 2))))
            for term in got.support():
                _same_key(term, Composition(term.entries), f"Composition(entries={term.entries!r})")

    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_symbol_terms_round_trip_through_the_public_constructor(self, kind):
        rng = random.Random(22)
        for _ in range(60):
            u, v = _draw_symbol(rng, kind), _draw_symbol(rng, kind)
            for got in (bistuffle(u, v), _column_shuffle(u, v, rng.choice((0, -1, Fraction(1, 2))))):
                for term in got.support():
                    text = f"BiComposition(s_row={term.s_row!r}, r_row={term.r_row!r})"
                    _same_key(term, BiComposition(term.s_row, term.r_row), text)
                    _same_key(term, BiComposition(term.s_row, tuple(map(Fraction, term.r_row))), text)

    def test_int_and_fraction_rows_stay_one_key(self):
        # [1 | 1], [1 | Fraction(1)] and [1 | Fraction(2, 2)] are one symbol,
        # in and out of a product, whichever row type built the term
        v = BiComposition.make([2], [0])
        rows = ([1], [Fraction(1)], [Fraction(2, 2)])
        products = [bistuffle(BiComposition.make([1], r), v) for r in rows]
        assert products[0] == products[1] == products[2]
        for product in products[1:]:
            for term in product.support():
                twin = {u: u for u in products[0].support()}[term]
                assert hash(term) == hash(twin) and type(twin.r_row[0]) is int
                assert type(term.r_row[0]) is Fraction


class TestEnumerators:
    def test_positive_counts(self):
        for w in range(1, 9):
            assert len(positive_compositions(w)) == 2 ** (w - 1)

    def test_canonical_order(self):
        # the enumerators build their lists in canonical order without sorting;
        # seeded draws and the relation tables depend on that order
        for w in range(1, 11):
            lists = [
                positive_compositions(w),
                convergent_compositions(w),
                nonnegative_compositions(w, min(w, 4)),
                words_of_degree(w),
                words_of_degree(w, convergent_only=True),
                graded_basis(w),
            ]
            for items in lists:
                assert items == sorted(items, key=lambda x: x.sort_key()), (w, items[:3])
                assert len(set(items)) == len(items)
            assert all(sum(s.entries) == w and min(s.entries) >= 1 for s in lists[0])
            assert len(lists[0]) == 2 ** (w - 1)

    def test_convergent_counts(self):
        for w in range(2, 9):
            assert len(convergent_compositions(w)) == 2 ** (w - 2)
        assert convergent_compositions(1) == []

    def test_convergent_is_the_filtered_positive_list(self):
        for w in range(13):
            assert convergent_compositions(w) == [s for s in positive_compositions(w) if s.is_convergent]

    def test_ones(self):
        assert ones(3) == C(1, 1, 1)
        with pytest.raises(DomainError):
            ones(0)
