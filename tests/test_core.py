import gc
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import combinations, product

import pytest

from mzvkit import core
from mzvkit.core import (
    DomainError,
    LinComb,
    MergeUndefinedError,
    TPoly,
    bilinear,
    matrix_rank,
    mixable_shuffle,
)


def brute_mixable(a, b, lam, merge=None):
    """Independent oracle: enumerate all order-preserving placements.

    A mixable shuffle of weight lam picks a length m, order-preserving
    placements of both sequences covering every slot, and merges the doubly
    occupied slots with one factor of lam each.
    """
    a, b = tuple(a), tuple(b)
    k, l = len(a), len(b)
    lam = Fraction(lam)
    acc = {}
    for m in range(max(k, l), k + l + 1):
        for pos_a in combinations(range(m), k):
            placed_a = dict(zip(pos_a, a))
            for pos_b in combinations(range(m), l):
                if len(set(pos_a) | set(pos_b)) != m:
                    continue
                shared = set(pos_a) & set(pos_b)
                if shared and not lam:
                    continue
                placed_b = dict(zip(pos_b, b))
                term = []
                for slot in range(m):
                    if slot in shared:
                        term.append(merge(placed_a[slot], placed_b[slot]))
                    elif slot in placed_a:
                        term.append(placed_a[slot])
                    else:
                        term.append(placed_b[slot])
                key = tuple(term)
                acc[key] = acc.get(key, 0) + lam ** len(shared)
    return LinComb(acc)


def add(x, y):
    return x + y


class TestLinComb:
    def test_combine_collects_like_terms(self):
        a = LinComb({"w": 1})
        assert a.combine(a, 1) == LinComb({"w": 2})

    def test_combine_prunes_cancellation(self):
        a = LinComb({"w": 1})
        assert a.combine(a, -1) == LinComb()
        assert not a.combine(a, -1)

    def test_combine_rational_arithmetic(self):
        a = LinComb({"u": Fraction(1, 2)})
        b = LinComb({"v": Fraction(1, 3)})
        got = a.combine(b, 2)
        assert got == LinComb({"u": Fraction(1, 2), "v": Fraction(2, 3)})

    def test_module_axioms_randomized(self):
        rng = random.Random(7)

        def rand_comb():
            return LinComb(
                {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for k in rng.sample("abcdef", rng.randint(0, 4))}
            )

        for _ in range(200):
            x, y, z = rand_comb(), rand_comb(), rand_comb()
            r = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x + LinComb() == x
            assert x.combine(x, -1) == LinComb()
            assert (x + y).scale(r) == x.scale(r) + y.scale(r)
            assert x.scale(r + s) == x.scale(r) + x.scale(s)
            assert x.scale(r).scale(s) == x.scale(r * s)

    def test_str_is_sorted_and_signed(self):
        c = LinComb({(0, 1): Fraction(2), (1,): Fraction(-1)})
        assert str(c) == "-(1,) + 2*(0, 1)"

    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({"a": Fraction(-3, 4), "b": Fraction(-1)}, "-3/4*a - b"),
        ({"b": 1, 2: 3, "a": -1}, "b + 3*2 - a"),  # str and int keys do not compare: stored order
    ])
    def test_str_rows(self, terms, text):
        assert str(LinComb(terms)) == text


def all_int(combo):
    return all(type(c) is int for _, c in combo.items())


class TestExactCoefficients:
    """Products keep ``int`` coefficients; only a non-integer scalar makes a ``Fraction``."""

    def test_products_are_int(self):
        from mzvkit import compositions as comp, free_rba, words

        C = comp.Composition
        assert all_int(mixable_shuffle((1, 2, 1), (2, 1), 0))
        assert all_int(mixable_shuffle((1, 2, 1), (2, 1), 1, add))
        prod = lambda u, v: mixable_shuffle(u, v, 1, add)
        assert all_int(bilinear(prod, LinComb({(1,): 2, (2, 1): -3}), LinComb({(1, 1): 1})))
        assert all_int(comp.shuffle(C((0, 2, 1)), C((1, 0, 3))))
        assert all_int(comp.stuffle(C((2, 1, 1)), C((1, 3))))
        u = comp.BiComposition.make((2, 1), (1, Fraction(1, 2)))
        assert all_int(comp.bistuffle(u, comp.BiComposition.make((1,), (0,))))
        assert all_int(words.shuffle(words.Word((0, 1, 1)), words.Word((1, 0, 1))))
        assert all_int(free_rba.product(free_rba.TensorWord((1, 0, 2)), free_rba.TensorWord((2, 1))))

    def test_relation_rank_rows_are_int(self, monkeypatch):
        from mzvkit import regularization as reg

        seen = []

        def spy(rows):
            rows = list(rows)  # relation_rank passes a one-shot iterator
            seen.extend(rows)
            return matrix_rank(rows)

        monkeypatch.setattr(reg, "matrix_rank", spy)
        assert reg.relation_rank(6) == (14, 2)
        assert seen and all(type(x) is int for row in seen for x in row)

    def test_only_non_integer_scalars_promote(self):
        x = LinComb({"a": 1})
        assert all_int(x.scale(3)) and all_int(x.combine(x, -2))
        for half in (x.scale(Fraction(1, 2)).coeff("a"), LinComb().combine(x, 0.5).coeff("a")):
            assert type(half) is Fraction and half == Fraction(1, 2)
        assert type(mixable_shuffle((1,), (2,), Fraction(1, 2), add).coeff((3,))) is Fraction
        assert str(LinComb({"b": True})) == "b"
        assert LinComb({"b": True}).coeff("b") == 1


class TestBilinear:
    def test_single_terms(self):
        prod = lambda u, v: LinComb({u + v: 1})
        got = bilinear(prod, LinComb({"u": 1}), LinComb({"v": 1}))
        assert got == LinComb({"uv": 1})

    def test_zero_annihilates(self):
        prod = lambda u, v: LinComb({u + v: 1})
        assert bilinear(prod, LinComb(), LinComb({"v": 1})) == LinComb()

    def test_scalar_bilinearity(self):
        prod = lambda u, v: LinComb({u + v: 1})
        got = bilinear(prod, LinComb({"u": 2}), LinComb({"v": 3}))
        assert got == LinComb({"uv": 6})


class TestMixableShuffle:
    def test_plain_shuffle_example(self):
        got = mixable_shuffle(("x1",), ("x0", "x1"))
        assert got == LinComb({("x1", "x0", "x1"): 1, ("x0", "x1", "x1"): 2})

    def test_weight_one_example(self):
        got = mixable_shuffle((1,), (1,), weight=1, merge=add)
        assert got == LinComb({(1, 1): 2, (2,): 1})

    def test_plain_shuffle_repeated_word(self):
        got = mixable_shuffle(("x0", "x1"), ("x0", "x1"))
        assert got == LinComb({("x0", "x1", "x0", "x1"): 2, ("x0", "x0", "x1", "x1"): 4})

    def test_empty_sequence_is_unit(self):
        got = mixable_shuffle((), (1, 2))
        assert got == LinComb({(1, 2): 1})

    def test_merge_required_for_nonzero_weight(self):
        with pytest.raises(MergeUndefinedError):
            mixable_shuffle((1,), (1,), weight=1)
        assert mixable_shuffle((), (1,), weight=1) == LinComb({(1,): 1})  # nothing to merge

    def test_partial_merge_error_propagates(self):
        def partial(x, y):
            raise MergeUndefinedError(f"cannot merge {x} and {y}")

        with pytest.raises(MergeUndefinedError):
            mixable_shuffle((1,), (1,), weight=1, merge=partial)

    def test_commutative_all_weights(self):
        rng = random.Random(11)
        for lam in (0, 1, Fraction(1, 2)):
            for _ in range(60):
                a = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
                b = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
                assert mixable_shuffle(a, b, lam, add) == mixable_shuffle(b, a, lam, add)

    @pytest.mark.parametrize("lam", [0, 1])
    def test_associative(self, lam):
        rng = random.Random(13)
        single = lambda t: LinComb({t: 1})
        prod = lambda u, v: mixable_shuffle(u, v, lam, add)
        for _ in range(60):
            a, b, c = (
                tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
                for _ in range(3)
            )
            lhs = bilinear(prod, prod(a, b), single(c))
            rhs = bilinear(prod, single(a), prod(b, c))
            assert lhs == rhs

    def test_coefficient_sum_is_binomial(self):
        import math

        rng = random.Random(17)
        for _ in range(40):
            k, l = rng.randint(1, 5), rng.randint(1, 5)
            a = tuple(rng.randint(0, 9) for _ in range(k))
            b = tuple(rng.randint(0, 9) for _ in range(l))
            total = mixable_shuffle(a, b).coefficient_sum()
            assert total == math.comb(k + l, k)

    def test_agrees_with_brute_force_oracle(self):
        # every pair of {1,2}-sequences with joint length <= 7, at three
        # weights, and with joint length <= 6 at two negative ones, where a
        # cancellation (which the recursion does not prune) would show
        cases = [
            (a, b, lam)
            for k in range(1, 7)
            for l in range(1, 8 - k)
            for a in product((1, 2), repeat=k)
            for b in product((1, 2), repeat=l)
            for lam in (0, 1, Fraction(1, 2), -1, Fraction(-1, 2))
            if lam >= 0 or k + l <= 6
        ]
        for a, b, lam in cases:
            assert mixable_shuffle(a, b, lam, add) == brute_mixable(a, b, lam, add), (a, b, lam)

    def test_terms_come_head_of_a_first_then_head_of_b_then_merged(self):
        # every sub-product lists its a-head terms, then its b-head terms, then its merged ones
        got = list(mixable_shuffle((1, 2), (3, 4), Fraction(1, 2), add).items())
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        assert got == [
            ((1, 2, 3, 4), 1), ((1, 3, 2, 4), 1), ((1, 3, 4, 2), 1), ((1, 3, 6), half), ((1, 5, 4), half),
            ((3, 1, 2, 4), 1), ((3, 1, 4, 2), 1), ((3, 1, 6), half), ((3, 4, 1, 2), 1), ((3, 5, 2), half),
            ((4, 2, 4), half), ((4, 4, 2), half), ((4, 6), quarter),
        ]
        assert [type(c) for _, c in got] == [int, int, int, Fraction, Fraction, int, int, Fraction, int,
                                            Fraction, Fraction, Fraction, Fraction]

    def test_equal_weights_of_other_types_keep_their_coefficients(self):
        a, b = (1, 2), (1,)
        typed = lambda p: sorted((t, type(c).__name__) for t, c in p.items())
        ints, fractions = (typed(mixable_shuffle(a, b, lam, add)) for lam in (1, Fraction(1)))
        assert {name for _, name in ints} == {"int"}
        assert ints != fractions

    def test_merge_runs_once_per_pair_of_positions(self):
        merge = CountingAdd()
        a, b = (1, 2, 1, 2), (2, 1, 1)
        mixable_shuffle(a, b, 1, merge)
        assert merge.calls == len(a) * len(b)
        mixable_shuffle(a, b, 1, merge)
        assert merge.calls == 2 * len(a) * len(b)  # nothing is kept between calls

    def test_atoms_are_freed_with_the_result(self):
        # the collector is off, so only reference counts can free the atoms:
        # a cycle anywhere in the call would keep them alive
        class Atom:
            def __init__(self, n):
                self.n = n

        gc.disable()
        try:
            for weight, merge in ((0, None), (1, lambda x, y: Atom(x.n + y.n))):
                atoms = [Atom(n) for n in range(5)]
                alive = [weakref.ref(atom) for atom in atoms]
                result = mixable_shuffle(tuple(atoms[:3]), tuple(atoms[3:]), weight, merge)
                assert len(result) == (10 if weight == 0 else 25)
                del atoms
                assert all(ref() is not None for ref in alive)
                del result
                assert all(ref() is None for ref in alive)
        finally:
            gc.enable()


class CountingAdd:
    """``add`` that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x, y):
        self.calls += 1
        return x + y


class TestTPoly:
    def test_negative_degrees_rejected(self):
        with pytest.raises(DomainError, match="non-negative degrees"):
            TPoly({-1: 1})
        with pytest.raises(DomainError, match="non-negative degrees"):
            TPoly.t_power(-1, 1)

    def test_construction_prunes_zeros(self):
        p = TPoly({0: Fraction(0), 2: Fraction(3)})
        assert p.coeff(0) == 0
        assert p.degree() == 2

    def test_arithmetic(self):
        p = TPoly({1: Fraction(1)})
        q = TPoly({0: Fraction(2), 1: Fraction(-1)})
        assert (p + q) == TPoly({0: Fraction(2)})
        assert (p * q) == TPoly({1: Fraction(2), 2: Fraction(-1)})
        assert (p - p) == TPoly()
        assert p.scale(Fraction(1, 2)) == TPoly({1: Fraction(1, 2)})

    def test_evaluate(self):
        p = TPoly({0: Fraction(1), 2: Fraction(3)})
        assert p(2) == 13

    def test_str(self):
        p = TPoly({2: Fraction(1, 2), 0: Fraction(-1)})
        assert str(p) == "1/2*T^2 - 1"

    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({1: 1.0}, "1.0*T"),
        ({0: 2.5, 2: -1.0, 1: -0.5}, "-1.0*T^2 - 0.5*T + 2.5"),
        ({3: Fraction(-2, 3), 1: Fraction(-1)}, "-2/3*T^3 - T"),
        # an exponent sign is not a sum: only a text with a space is parenthesised
        ({1: 1e20, 0: -2.5e-7}, "1e+20*T - 2.5e-07"),
        ({2: -1.5e-300, 1: 3.25}, "-1.5e-300*T^2 + 3.25*T"),
    ])
    def test_str_rows(self, terms, text):
        assert str(TPoly(terms)) == text


def _ref_add(acc, key, c):
    """The reference pruned add: a key whose running sum is zero is dropped, so a later term starts afresh."""
    if key in acc:
        c = acc[key] + c
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def _ref_sum(*pair_lists):
    acc = {}
    for pairs in pair_lists:
        for key, c in pairs:
            _ref_add(acc, key, c)
    return acc


def _typed(terms):
    """{key: (type, value)} of a sum or a reference dict, recursing into sum-valued coefficients."""
    return {k: (type(c), _typed(c) if isinstance(c, core.Sparse) else c) for k, c in terms.items()}


class TestPrunedAdd:
    """Every sparse sum against a naive dict sum, on values and on the type of every coefficient."""

    @pytest.mark.parametrize("seed", range(8))
    def test_against_naive_dict_sum(self, seed):
        from mzvkit.compositions import Composition
        from mzvkit.numerics import LaurentPoly
        from mzvkit.regularization import MZVSymbol, ZetaExpr

        rng = random.Random(seed)
        exact = [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 4)]
        mixed = exact + [1.0, -1.0, 0.5, -0.5, 0.1, -2.25, 1e20]
        z2, z3, z21 = (MZVSymbol(Composition(e)) for e in ((2,), (3,), (2, 1)))
        monomials = [(), (z2,), (z3,), (z21,), (z2, z2), (z2, z3)]

        def draw(keys, coeffs, n_max=6):
            return [(rng.choice(keys), coeffs()) for _ in range(rng.randint(0, n_max))]

        def negate(c):
            return -float(c) if isinstance(c, (int, Fraction)) and rng.random() < 0.5 else -c

        def exact_c():
            return rng.choice(exact)

        def mixed_c():
            return rng.choice(mixed)

        def zeta_c():
            return ZetaExpr(draw(monomials, exact_c, 3))

        def monomial_product(m1, m2):
            return tuple(sorted(m1 + m2, key=MZVSymbol.sort_key))

        kinds = [
            # (type, keys, coefficient draw, key of a product or None)
            (LinComb, list("abcde"), exact_c, None),
            (TPoly, [0, 1, 2, 3], mixed_c, add),
            (LaurentPoly, [-2, -1, 0, 1, 2], exact_c, add),
            (ZetaExpr, monomials, exact_c, monomial_product),
            (TPoly, [0, 1, 2], zeta_c, add),
        ]
        for _ in range(25):
            for cls, keys, coeff, mul_key in kinds:
                pa, pb = draw(keys, coeff), draw(keys, coeff)
                a = cls(pa)
                assert _typed(a) == _typed(_ref_sum(pa))
                # a share of the terms of a comes back negated, so some sums cancel
                pb += [(k, negate(c)) for k, c in a.items() if rng.random() < 0.5]
                rng.shuffle(pb)
                b = cls(pb)
                assert _typed(a + b) == _typed(_ref_sum(a.items(), b.items()))
                assert _typed(a - b) == _typed(_ref_sum(a.items(), [(k, -c) for k, c in b.items()]))
                if mul_key is not None:
                    ref = _ref_sum([(mul_key(k1, k2), c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items()])
                    assert _typed(a * b) == _typed(ref)
                if cls is not LinComb:
                    continue
                s = rng.choice(exact + [0, 0.5])
                exact_s = Fraction(s) if isinstance(s, float) else s
                ref = _ref_sum(a.items(), [(k, c * exact_s) for k, c in b.items()] if s else [])
                assert _typed(a.combine(b, s)) == _typed(ref)
                images = {k: LinComb(draw(keys, coeff)) for k in keys}
                ref = _ref_sum(*([(k2, c * c2) for k2, c2 in images[k].items()] for k, c in a.items()))
                assert _typed(a.map_linear(images.__getitem__)) == _typed(ref)
                table = {(u, v): LinComb(draw(keys, coeff)) for u in keys for v in keys}
                ref = _ref_sum(*(
                    [(w, cu * cv * cw) for w, cw in table[u, v].items()]
                    for u, cu in a.items() for v, cv in b.items()
                ))
                assert _typed(bilinear(lambda u, v: table[u, v], a, b)) == _typed(ref)


class TestMatrixRank:
    def test_integer_path(self):
        assert matrix_rank([[1, 2], [2, 4], [0, 1]]) == 2
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([[0, 0], [0, 0]]) == 0

    def test_fraction_path(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
        assert matrix_rank(rows) == 1  # second row is 3x the first
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1)]]
        assert matrix_rank(rows) == 2

    def test_rank_deficient_random_products(self):
        rng = random.Random(23)
        for _ in range(20):
            u = [rng.randint(-3, 3) for _ in range(5)]
            v = [rng.randint(-3, 3) for _ in range(4)]
            rows = [[x * y for y in v] for x in u]
            expected = 1 if any(u) and any(v) else 0
            assert matrix_rank(rows) == expected

    def test_random_against_fraction_oracle(self):
        rng = random.Random(2024)

        def entry():
            x = rng.randint(-5, 5)
            return Fraction(x, rng.randint(2, 5)) if rng.random() < 0.2 else x

        for trial in range(240):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            if trial % 2:
                # a product through k < min(m, n) columns: rank deficient by construction
                k = rng.randint(0, min(m, n) - 1)
                left = [[entry() for _ in range(k)] for _ in range(m)]
                right = [[entry() for _ in range(n)] for _ in range(k)]
                rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                        for i in range(m)]
            else:
                rows = [[entry() for _ in range(n)] for _ in range(m)]
            expected = fraction_rank(rows)
            assert matrix_rank(rows) == expected, rows
            if trial % 2:
                assert expected <= k

    def test_unlucky_prime_is_dropped(self, monkeypatch):
        primes = core._primes()
        p, q = next(primes), next(primes)
        ranks = _ranks_mod_p(monkeypatch)
        # singular only modulo the first prime
        assert matrix_rank([[p, 0], [0, 1]]) == 2
        assert ranks == [1, 2]
        ranks.clear()
        # rank deficient: the first prime's kernel fails the certificate
        assert matrix_rank([[p, 0, 0], [0, 1, 0], [0, 2, 0]]) == 2
        assert ranks == [1, 2]
        ranks.clear()
        # same rank modulo the first prime, but its pivot lies right of the true one;
        # the kernel entry -1/p then needs sqrt(modulus / 2) >= p, i.e. four primes
        assert matrix_rank([[p, 1, 0], [2 * p, 2, 0]]) == 1
        assert ranks == [1, 1, 1, 1]
        ranks.clear()
        # the second prime loses rank while the kernel still needs more primes:
        # it is skipped and the CRT goes on with the first prime's residues
        a, b = 2**40 + 1, 3**25
        assert matrix_rank([[q, 0, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0], [0, 0, a, b]]) == 3
        assert ranks == [3, 2, 3, 3]

    def test_kernel_needs_several_primes(self, monkeypatch):
        a, b = 2**40 + 1, 3**25
        ranks = _ranks_mod_p(monkeypatch)
        assert matrix_rank([[a, b]]) == 1  # rank_p equals the row count: no kernel needed
        assert ranks == [1]
        ranks.clear()
        # the kernel (-b/a, 1) has a 41-bit denominator: three primes give the bound
        assert matrix_rank([[a, b], [2 * a, 2 * b]]) == 1
        assert ranks == [1, 1, 1]

    def test_package_import_leaves_numpy_out(self):
        for module in ("mzvkit", "mzvkit.cli"):  # the cli imports every module
            code = f"import sys, {module}; sys.exit('numpy' in sys.modules)"
            assert subprocess.run([sys.executable, "-c", code]).returncode == 0, module

    def test_cli_import_leaves_mpmath_out(self):
        # only the numeric commands need mpmath; numerics imports it on first use
        for module in ("mzvkit", "mzvkit.cli"):
            code = f"import sys, {module}; sys.exit('mpmath' in sys.modules)"
            assert subprocess.run([sys.executable, "-c", code]).returncode == 0, module

    def test_ragged_rows_rejected(self):
        with pytest.raises(DomainError, match="row 0 has 1 entries, row 1 has 2"):
            matrix_rank([[1], [2, 5]])
        with pytest.raises(DomainError, match="row 0 has 2 entries, row 1 has 1"):
            matrix_rank([[1, 2], [3]])

    def test_generator_matches_list(self, monkeypatch):
        # the oracle test's matrices, each also read as a generator of row generators
        def both(rows):
            rank = core.matrix_rank(rows)
            assert core.matrix_rank(iter(row) for row in rows) == rank, rows
            return rank

        monkeypatch.setattr(sys.modules[__name__], "matrix_rank", both)
        self.test_random_against_fraction_oracle()

    def test_ragged_generator_rejected(self):
        rows = ([1] * (2 if i == 3 else 3) for i in range(5))
        with pytest.raises(DomainError, match="ragged matrix: row 0 has 3 entries, row 3 has 2"):
            matrix_rank(rows)

    def test_empty_iterator(self):
        assert matrix_rank(iter(())) == 0

    def test_zero_rows_are_dropped(self, monkeypatch):
        seen = []
        eliminate = core._eliminate

        def spy(rows, ncols, p):
            seen.append(len(rows))
            return eliminate(rows, ncols, p)

        monkeypatch.setattr(core, "_eliminate", spy)
        assert matrix_rank(iter([[0, 0], [1, 2], [0, Fraction(0)]])) == 1
        assert seen == [1]

    def test_eliminate_partitions_columns_and_kernel_vanishes(self, monkeypatch):
        # the oracle test's matrices and the relation matrices of weights 3 to 10
        from mzvkit import regularization as reg

        first, eliminate, seen = next(core._primes()), core._eliminate, []

        def spy(rows, ncols, p):
            out = eliminate(rows, ncols, p)
            if p == first:
                seen.append((rows, ncols, out))
            return out

        monkeypatch.setattr(core, "_eliminate", spy)
        self.test_random_against_fraction_oracle()
        for weight in range(3, 11):
            reg.relation_rank(weight)
        vectors = 0
        for rows, ncols, (pivots, free, kernel) in seen:
            assert sorted(pivots + free) == list(range(ncols))
            if len(pivots) == min(len(rows), ncols):
                assert kernel == []
                continue
            assert len(kernel) == len(free)
            for col, residues in zip(free, kernel):
                vec = dict.fromkeys(free, 0) | dict(zip(pivots, residues)) | {col: 1}
                for row in rows:
                    assert sum(v * vec[j] for j, v in row.items()) % first == 0
                vectors += 1
        assert vectors > 0

    def test_relation_rank_holds_one_dense_row(self):
        # the rows reach matrix_rank one at a time; only their sparse forms are kept,
        # and two primes run but one 3.0 MB modular matrix is held at a time
        import tracemalloc

        import numpy  # noqa: F401  # its import is not part of the peak
        from mzvkit import regularization as reg

        reg._relation_table(11)
        tracemalloc.start()
        try:
            assert reg.relation_rank(11) == (503, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


def fraction_rank(rows):
    """Reference rank: Gauss elimination over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = [x / mat[rank][col] for x in mat[rank]]
        mat[rank] = pivot
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], pivot)]
        rank += 1
    return rank


def _ranks_mod_p(monkeypatch):
    """Record the rank found modulo each prime that matrix_rank tries."""
    ranks = []
    eliminate = core._eliminate

    def spy(rows, ncols, p):
        pivots, free, kernel = eliminate(rows, ncols, p)
        ranks.append(len(pivots))
        return pivots, free, kernel

    monkeypatch.setattr(core, "_eliminate", spy)
    return ranks
