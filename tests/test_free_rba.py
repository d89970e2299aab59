import copy
import math
import pickle
import random

import pytest

from mzvkit import compositions, free_rba, verification, words
from mzvkit.compositions import Composition, nonnegative_compositions
from mzvkit.core import DomainError, LinComb, matrix_rank, mixable_shuffle
from mzvkit.free_rba import (
    GENERATOR,
    TensorWord,
    evaluate,
    graded_basis,
    nest,
    product,
    to_composition,
    to_word_sum,
)


def T(*exps):
    return TensorWord(tuple(exps))


class TestTensorWord:
    def test_invariants(self):
        with pytest.raises(DomainError):
            TensorWord(())
        with pytest.raises(DomainError):
            TensorWord((1, 0))  # last slot must be >= 1
        with pytest.raises(DomainError):
            TensorWord((-1, 1))
        assert T(0, 1).degree == 2
        assert T(2).degree == 2
        assert T(1, 0, 2).degree == 5

    def test_str(self):
        assert str(T(0, 1)) == "(0,1)"
        assert str(T(1)) == "(1)"

    def test_equal_tensors_are_one_key(self):
        # the hash is computed once and kept; equality still compares exponents
        t, twin = T(1, 0, 2), TensorWord((1, 0, 2))
        copies = [pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)]
        for u in [twin, *copies]:
            assert u is not t and u == t and hash(u) == hash(t)
            assert {t: "found"}[u] == "found" and {u: "found"}[t] == "found"
            assert repr(u) == "TensorWord(exponents=(1, 0, 2))"
        assert T(1, 0, 2) != T(2, 0, 1) and T(1, 0, 2) != (1, 0, 2)


class TestProduct:
    def test_single_slot(self):
        assert product(T(1), T(1)) == LinComb.single(T(2))

    def test_first_slot_addition(self):
        assert product(T(1, 1), T(1)) == LinComb.single(T(2, 1))

    def test_nested_square(self):
        assert product(T(0, 1), T(0, 1)) == LinComb({T(0, 1, 1): 2})

    def test_degree_additive(self):
        rng = random.Random(47)
        for _ in range(100):
            a = rng.choice(graded_basis(rng.randint(1, 6)))
            b = rng.choice(graded_basis(rng.randint(1, 6)))
            for t, _ in product(a, b).items():
                assert t.degree == a.degree + b.degree

    def test_terms_round_trip_through_the_public_constructor(self):
        # the product builds its terms unchecked; each must equal and hash
        # equal its checked twin, also as a copy, with the same repr
        rng = random.Random(22)
        for _ in range(60):
            a = rng.choice(graded_basis(rng.randint(1, 5)))
            b = rng.choice(graded_basis(rng.randint(1, 5)))
            for term in product(a, b).support():
                twin = TensorWord(term.exponents)
                for u in (term, pickle.loads(pickle.dumps(term)), copy.copy(term), copy.deepcopy(term)):
                    assert u == twin and hash(u) == hash(twin) and {twin: "found"}[u] == "found"
                    assert repr(u) == f"TensorWord(exponents={term.exponents!r})"


def _draw_tensor(rng, max_degree):
    """A seeded tensor as the algebra benchmark draws them: up to 4 slots, exponents 0..3."""
    while True:
        t = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        if t[-1] >= 1 and sum(t) + len(t) - 1 <= max_degree:
            return TensorWord(t)


def _typed(combo):
    """The terms of a product in stored order, with the type of each coefficient."""
    return [(term, c, type(c)) for term, c in combo.items()]


class TestProductCache:
    """``product`` keeps its results in a bounded cache keyed on the exponent tuples."""

    def test_cached_product_is_the_shuffle_of_the_tails(self):
        rng = random.Random(25)
        free_rba._product_exponents.cache_clear()
        for _ in range(200):
            a, b = _draw_tensor(rng, 8), _draw_tensor(rng, 8)
            first = a.exponents[0] + b.exponents[0]
            tails = mixable_shuffle(a.exponents[1:], b.exponents[1:])
            want = tails.map_basis(lambda t: TensorWord((first,) + t))
            got = product(a, b)
            assert _typed(got) == _typed(want), (a, b)
            hits = free_rba._product_exponents.cache_info().hits
            assert product(TensorWord(a.exponents), TensorWord(b.exponents)) is got
            assert free_rba._product_exponents.cache_info().hits == hits + 1

    def test_cleared_cache_builds_the_same_product(self):
        a, b = T(1, 0, 2), T(0, 2, 1)
        before = _typed(product(a, b))
        free_rba._product_exponents.cache_clear()
        assert _typed(product(a, b)) == before
        assert free_rba._product_exponents.cache_info().currsize == 1


class TestNest:
    def test_examples(self):
        assert nest(T(1)) == T(0, 1)
        assert nest(T(0, 1)) == T(0, 0, 1)
        assert nest(T(1)).degree == T(1).degree + 1

    def test_rota_baxter_example(self):
        lhs = product(nest(T(1)), nest(T(1)))
        rhs = product(T(1), nest(T(1))).map_basis(nest) + product(
            nest(T(1)), T(1)
        ).map_basis(nest)
        assert lhs == rhs == LinComb({T(0, 1, 1): 2})


class TestWordMap:
    def test_generator(self):
        assert to_word_sum(T(1)) == LinComb.single(words.Word.from_text("x1"))

    def test_nested(self):
        assert to_word_sum(T(0, 1)) == LinComb.single(words.Word.from_text("x0x1"))

    def test_power_slot(self):
        got = to_word_sum(T(1, 1))
        assert got == LinComb(
            {words.Word.from_text("x1x0x1"): 1, words.Word.from_text("x0x1x1"): 2}
        )

    def test_power_is_factorial_multiple(self):
        got = to_word_sum(T(3))
        assert got == LinComb({words.Word.from_text("x1x1x1"): math.factorial(3)})

    def test_degree_preserving(self):
        for m in range(1, 7):
            for a in graded_basis(m):
                assert all(len(w) == m for w, _ in to_word_sum(a).items())

    @pytest.mark.parametrize("m", range(1, 9))
    def test_word_matrix_invertible(self, m):
        basis = graded_basis(m)
        word_basis = words.words_of_degree(m)
        assert len(basis) == len(word_basis) == 2 ** (m - 1)
        index = {w: i for i, w in enumerate(word_basis)}
        rows = []
        for tensor in basis:
            row = [0] * len(word_basis)
            for w, c in to_word_sum(tensor).items():
                row[index[w]] = int(c)
            rows.append(row)
        assert matrix_rank(rows) == 2 ** (m - 1)


class TestCompositionMap:
    def test_examples(self):
        assert to_composition(T(1)) == Composition((0,))
        assert to_composition(T(2)) == Composition((0, 0))
        assert to_composition(T(1, 2)) == Composition((0, 1, 0))

    def test_zero_slot_collapse(self):
        assert to_composition(T(0, 1)) == Composition((1,))
        assert to_composition(T(0, 0, 1)) == Composition((2,))
        assert to_composition(T(1, 0, 1)) == Composition((0, 2))


class TestUniversalEvaluation:
    def test_numeric_target_at_depth_one(self):
        # generator value e^eps/(1-e^eps) at eps = -1; the operator is never
        # invoked for a depth-one tensor, so a plain multiplicative target works
        from mzvkit.compositions import BiComposition
        from mzvkit.numerics import z_directional

        eps = -1.0
        gen_value = math.exp(eps) / (1 - math.exp(eps))

        def never_called(_):
            raise AssertionError("operator not needed at depth one")

        got = evaluate(T(1), lambda x, y: x * y, never_called, gen_value)
        assert got == pytest.approx(1 / (math.e - 1), abs=1e-12)
        sampled = z_directional(BiComposition.make([0], [1]), eps)
        assert got == pytest.approx(sampled, abs=1e-9)


class TestGradedBasis:
    def test_small_cases(self):
        assert graded_basis(1) == [T(1)]
        assert graded_basis(2) == [T(2), T(0, 1)]
        assert len(graded_basis(4)) == 8

    def test_counts_and_degrees(self):
        for m in range(1, 10):
            basis = graded_basis(m)
            assert len(basis) == 2 ** (m - 1)
            assert len(set(basis)) == len(basis)
            assert all(t.degree == m for t in basis)

    def test_guard(self):
        with pytest.raises(DomainError):
            graded_basis(0)


def test_generator_constant():
    assert GENERATOR == T(1)


def _row(prefix, draw=None):
    """The law row whose name starts with ``prefix``, optionally with another draw."""
    rows = verification.STRUCTURE_LAWS + verification.ISOMORPHISM_LAWS
    name, row_draw, holds = next(r for r in rows if r[0].startswith(prefix))
    return name, draw or row_draw, holds


# [0,0,4] has weight + depth 7, past the 6 the row's own sampler allows
_POOL = nonnegative_compositions(4, 3)


@pytest.mark.parametrize("row, seed, cases", [
    pytest.param(_row("tensor product commutative"), 43, 300, id="tensor-product"),
    pytest.param(_row("tensor operator Rota-Baxter"), 53, 300, id="tensor-rota-baxter"),
    pytest.param(_row("word map is an operator homomorphism"), 59, 150, id="word-map"),
    pytest.param(_row("composition map is an operator homomorphism"), 61, 150, id="composition-map"),
    pytest.param(_row("word operator Rota-Baxter"), 9, 300, id="word-rota-baxter"),
    pytest.param(_row("composition operator Rota-Baxter",
                      lambda rng: (rng.choice(_POOL), rng.choice(_POOL))),
                 31, 300, id="composition-rota-baxter-pool"),
])
def test_law_row(row, seed, cases):
    name, draw, holds = row
    rng = random.Random(seed)
    result = verification._law("unit", name, holds, [draw(rng) for _ in range(cases)])
    assert result.passed, result.line()


class TestLawRunner:
    # the first input of each random row at the default seeds and case counts
    FIRST_INPUTS = {
        "extended shuffle commutative": ("[3,0,4]", "[4,0,0]"),
        "extended shuffle associative": ("[3]", "[1,1,2]", "[1]"),
        "stuffle commutative": ("[3]", "[4,4,2,4]"),
        "stuffle associative": ("[2,2]", "[1]", "[1,3]"),
        "tensor product commutative and associative": ("(1,1,0,3)", "(0,2,1)", "(0,0,1,2)"),
        "word operator Rota-Baxter identity": ("x1x0x1x1x1x1", "x1x0x1x0x0x1"),
        "composition operator Rota-Baxter identity": ("[0]", "[3]"),
        "tensor operator Rota-Baxter identity": ("(1,0,2,1)", "(1,1,1)"),
        "pole projector weight -1 identity":
            ("2 + eps", "3*eps^-4 - 2*eps^-3 + eps^-2 + 2*eps^-1 + 3/2*eps^4"),
        "word map is an operator homomorphism": ("(2)", "(1)"),
        "composition map is an operator homomorphism": ("(0,0,3)", "(1)"),
    }

    def test_first_draws_at_default_seeds(self, monkeypatch):
        first = {}

        def record(suite, name, holds, inputs):
            first[name] = tuple(map(str, inputs[0]))

        monkeypatch.setattr(verification, "_law", record)
        verification.structure_checks()
        verification.isomorphism_checks()
        drawn = {name.split(" (")[0]: args for name, args in first.items() if "cases)" in name}
        assert drawn == self.FIRST_INPUTS

    def test_broken_shuffle_fails_with_its_input(self, monkeypatch):
        shuffle = compositions.shuffle
        monkeypatch.setattr(compositions, "shuffle",
                            lambda s, t: LinComb(list(shuffle(s, t).items())[1:]))
        results = verification.structure_checks(cases=20)
        failed = {r.name.split(" (")[0]: r.detail for r in results if not r.passed}
        assert set(failed) == {
            "extended shuffle commutative", "extended shuffle associative",
            "composition operator Rota-Baxter identity", "shuffle transport identity exhaustive to weight 7",
        }
        assert failed["extended shuffle commutative"] == "first failing input: [3,0,4], [4,0,0]"
        assert failed["shuffle transport identity exhaustive to weight 7"] == "first failing input: [1], [1]"

    def test_empty_injectivity_range_raises(self):
        # the command line has no option for it; --max-degree and --cases are tested there
        with pytest.raises(DomainError, match="injective_degree"):
            verification.isomorphism_checks(injective_degree=0)
