import copy
import pickle
import random

import pytest

from mzvkit.compositions import Composition
from mzvkit.core import DomainError, LinComb
from mzvkit.words import (
    X0,
    X1,
    Word,
    X1_WORD,
    degree,
    from_composition,
    prepend_x0,
    shuffle,
    shuffle_lin,
    to_composition,
    words_of_degree,
)


def W(text):
    return Word.from_text(text)


class TestWordType:
    def test_text_round_trip(self):
        for text in ("x1", "x0x1", "x0x1x1", "x0x0x1"):
            assert str(W(text)) == text

    def test_bad_text(self):
        with pytest.raises(DomainError):
            Word.from_text("x2")
        with pytest.raises(DomainError):
            Word.from_text("x0x")

    @pytest.mark.parametrize("text, offset", [("x2", 0), ("x0x", 2), (" x2", 1), ("  x0x1x3 ", 6)])
    def test_bad_text_offset_counts_in_the_text_as_given(self, text, offset):
        with pytest.raises(DomainError) as err:
            Word.from_text(text)
        assert str(err.value) == f"invalid word syntax at offset {offset}: {text!r}"

    def test_equal_words_are_one_key(self):
        # the hash is computed once and kept; equality still compares letters
        w, twin = W("x0x1"), Word((X0, X1))
        copies = [pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)]
        for u in [twin, *copies]:
            assert u is not w and u == w and hash(u) == hash(w)
            assert {w: "found"}[u] == "found" and {u: "found"}[w] == "found"
            assert repr(u) == "Word(letters=(0, 1))"
        assert Word() == Word(()) and hash(Word()) == hash(Word(()))
        assert W("x0x1") != W("x1x0") and W("x0x1") != (X0, X1)

    def test_surrounding_whitespace_is_ignored(self):
        assert Word.from_text(" \tx0x1\n") == W("x0x1")
        assert Word.from_text("  ") == Word()

    def test_predicates(self):
        assert W("x1").ends_with_x1 and not W("x1").is_convergent
        assert W("x0x1").is_convergent
        assert not W("x1x0").ends_with_x1
        assert not Word().ends_with_x1


class TestShuffle:
    def test_example_depths(self):
        got = shuffle(W("x1"), W("x0x1"))
        assert got == LinComb({W("x1x0x1"): 1, W("x0x1x1"): 2})

    def test_empty_word_is_identity(self):
        w = W("x0x1x1")
        assert shuffle(Word(), w) == LinComb.single(w)
        assert shuffle(w, Word()) == LinComb.single(w)

    def test_square_example(self):
        got = shuffle(W("x0x1"), W("x0x1"))
        assert got == LinComb({W("x0x1x0x1"): 2, W("x0x0x1x1"): 4})

    def test_graded_product(self):
        rng = random.Random(3)
        for _ in range(100):
            a = rng.choice(words_of_degree(rng.randint(1, 5)))
            b = rng.choice(words_of_degree(rng.randint(1, 5)))
            for w, _ in shuffle(a, b).items():
                assert len(w) == len(a) + len(b)

    def test_closure_in_x1_algebra_and_convergent_part(self):
        rng = random.Random(5)
        for _ in range(100):
            a = rng.choice(words_of_degree(rng.randint(1, 5)))
            b = rng.choice(words_of_degree(rng.randint(1, 5)))
            assert all(w.ends_with_x1 for w, _ in shuffle(a, b).items())
        for _ in range(50):
            a = rng.choice(words_of_degree(rng.randint(2, 5), convergent_only=True))
            b = rng.choice(words_of_degree(rng.randint(2, 5), convergent_only=True))
            assert all(w.is_convergent for w, _ in shuffle(a, b).items())


class TestTrustedTerms:
    def test_shuffle_terms_round_trip_through_the_public_constructor(self):
        # the engine builds its terms unchecked; each must equal and hash
        # equal its checked twin, also as a copy, with the same repr
        rng = random.Random(22)
        for _ in range(60):
            a, b = (Word(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))) for _ in range(2))
            for term in shuffle(a, b).support():
                twin = Word(term.letters)
                for u in (term, pickle.loads(pickle.dumps(term)), copy.copy(term), copy.deepcopy(term)):
                    assert u == twin and hash(u) == hash(twin) and {twin: "found"}[u] == "found"
                    assert repr(u) == f"Word(letters={term.letters!r})"


class TestOperator:
    def test_prepend(self):
        assert prepend_x0(W("x1")) == W("x0x1")
        assert prepend_x0(W("x0x1x1")) == W("x0x0x1x1")

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            prepend_x0(W("x1x0"))
        with pytest.raises(DomainError):
            prepend_x0(Word())

    def test_rota_baxter_identity_single_example(self):
        lhs = shuffle(prepend_x0(X1_WORD), prepend_x0(X1_WORD))
        rhs = shuffle(X1_WORD, prepend_x0(X1_WORD)).map_basis(prepend_x0).scale(2)
        assert lhs == rhs  # I0(x1) sh I0(x1) = 2 I0(x1 sh I0(x1))


class TestDegree:
    def test_examples(self):
        assert degree(W("x1")) == 1
        assert degree(W("x0x1")) == 2
        assert degree(W("x1x0x1")) == 3

    def test_guard(self):
        with pytest.raises(DomainError):
            degree(W("x0"))


class TestCompositionBijection:
    def test_examples(self):
        assert to_composition(W("x0x1")) == Composition((2,))
        assert to_composition(W("x1x1")) == Composition((1, 1))
        assert from_composition(Composition((2, 2))) == W("x0x1x0x1")

    def test_intertwines_operators(self):
        w = W("x1x0x1")
        lhs = to_composition(prepend_x0(w))
        from mzvkit.compositions import raise_first

        rhs = raise_first(to_composition(w))
        assert lhs == rhs == Composition((2, 2))

    def test_round_trip_exhaustive(self):
        for m in range(1, 8):
            for w in words_of_degree(m):
                s = to_composition(w)
                assert s.is_positive and s.weight == m
                assert from_composition(s) == w

    def test_bijection_counts(self):
        for m in range(1, 9):
            images = {to_composition(w) for w in words_of_degree(m)}
            assert len(images) == 2 ** (m - 1)

    def test_guards(self):
        with pytest.raises(DomainError):
            to_composition(W("x1x0"))
        with pytest.raises(DomainError):
            from_composition(Composition((0, 2)))


def test_shuffle_lin_matches_pointwise():
    a = LinComb({W("x1"): 2})
    b = LinComb({W("x0x1"): 1, W("x1"): -1})
    got = shuffle_lin(a, b)
    expected = shuffle(W("x1"), W("x0x1")).scale(2) + shuffle(W("x1"), W("x1")).scale(-2)
    assert got == expected
