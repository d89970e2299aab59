import random
import re
from fractions import Fraction

import pytest

from mzvkit.compositions import BiComposition, Composition
from mzvkit.core import DomainError, LinComb
from mzvkit.expressions import (
    _CALLS,
    MAX_DEPTH,
    BICOMPOSITION,
    COMPOSITION,
    SCALAR,
    TENSOR,
    WORD,
    BinOp,
    Call,
    ExprSyntaxError,
    KindError,
    Literal,
    ScalarMul,
    evaluate,
    node_kind,
    parse,
    to_text,
)
from mzvkit.free_rba import TensorWord
from mzvkit.words import Word


def C(*entries):
    return Composition(tuple(entries))


class TestParse:
    def test_shuffle_call(self):
        node = parse("sh([1],[2])")
        assert isinstance(node, Call) and node.name == "sh"
        assert node.args[0] == Literal(COMPOSITION, C(1), node.args[0].pos)
        assert node_kind(node) == COMPOSITION

    def test_difference(self):
        node = parse("st([2],[2]) - sh([2],[2])")
        assert isinstance(node, BinOp) and node.op == "-"

    def test_word_literal(self):
        node = parse("x0x1x1")
        assert node == Literal(WORD, Word.from_text("x0x1x1"), 0)

    def test_bicomposition_literal(self):
        node = parse("[1,2 | 1,0]")
        assert node.kind == BICOMPOSITION
        assert node.payload == BiComposition.make([1, 2], [1, 0])

    def test_tensor_literal(self):
        node = parse("(0,1)")
        assert node == Literal(TENSOR, TensorWord((0, 1)), 0)

    def test_rational_scalar(self):
        node = parse("3/2*[1]")
        assert isinstance(node, ScalarMul) and node.scalar == Fraction(3, 2)

    def test_negative_scalar_folds(self):
        node = parse("-2*[1]")
        assert isinstance(node, ScalarMul) and node.scalar == -2

    def test_whitespace_insensitive(self):
        a = parse("sh( [1] ,[ 2 ] )")
        b = parse("sh([1],[2])")
        assert a == b

    def test_node_equality_ignores_positions(self):
        assert parse("sh( [1] ,[ 2 ] )") == parse("sh([1],[2])")
        assert parse(" [1] + [2]") != parse("[1] - [2]")

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x0x1]")
        assert err.value.position == 4

    def test_malformed_inputs(self):
        for text in ("", "[1, ", "sh([1]", "x3", "1 + ", "*[1]"):
            with pytest.raises(ExprSyntaxError):
                parse(text)

    @pytest.mark.parametrize("text, message", [
        ("", "expected a literal or function call at offset 0"),
        ("   ", "expected a literal or function call at offset 3"),
        ("sh([1],[2]", "expected ')' at offset 10"),
        ("[1, x0]", "expected an integer at offset 4"),
        ("2x1", "unexpected trailing input at offset 1"),
        ("1e5", "unexpected trailing input at offset 1"),
        ("x0x1sh", "unknown name 'x0x1sh' at offset 0"),
        ("[1 | 1/ 0]", "zero denominator at offset 8"),
        ("[\u0663]", "expected an integer at offset 1"),  # ARABIC-INDIC DIGIT THREE
        ("[\u00b2]", "expected an integer at offset 1"),  # SUPERSCRIPT TWO
        ("\u00e9", "expected a name at offset 0"),
        ("\u0663*[1]", "expected an integer at offset 0"),
    ])
    def test_syntax_error_messages(self, text, message):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == message

    def test_non_ascii_whitespace_separates_tokens(self):
        assert to_text(parse("[1]\xa0+\t[2]")) == "[1] + [2]"

    def test_kind_mismatches(self):
        for text in ("st(x1, x1)", "sh([1], x1)", "sh([1|1],[1|1])",
                     "I(x1)", "I0([1])", "eta([1])", "phi(x1)", "f([1])",
                     "msh(x1; [1], [1])", "[1] + x1"):
            with pytest.raises(KindError):
                parse(text)


_SAMPLE = {
    SCALAR: Fraction(0),
    WORD: Word((0, 1)),
    COMPOSITION: C(1, 2),
    BICOMPOSITION: BiComposition.make([2, 1], [0, 1]),
    TENSOR: TensorWord((1, 1)),
}

# the calls that map one model of the free algebra into another
_CHANGES_KIND = {"eta": COMPOSITION, "f": WORD, "phi": COMPOSITION}


class TestNestingDepth:
    def test_the_limit_parses_and_evaluates(self):
        nested = "I(" * MAX_DEPTH + "[1]" + ")" * MAX_DEPTH
        assert str(evaluate(parse(nested))) == f"[{MAX_DEPTH + 1}]"
        chain = "+".join(["[1]"] * (MAX_DEPTH + 1))  # MAX_DEPTH '+' nodes deep
        assert str(evaluate(parse(chain))) == f"{MAX_DEPTH + 1}*[1]"

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 1000])
    def test_past_the_limit_is_a_syntax_error_at_the_deep_node(self, levels):
        nested = "I(" * levels + "[1]" + ")" * levels
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels at offset {2 * MAX_DEPTH + 2}$"):
            parse(nested)

    @pytest.mark.parametrize("text", [
        "+".join(["[1]"] * (MAX_DEPTH + 2)),
        "+".join(["[1]"] * 5000),
        "I(-" * (MAX_DEPTH // 2 + 1) + "[1]" + ")" * (MAX_DEPTH // 2 + 1),  # a negated call is two levels
    ])
    def test_deep_sums_and_negations_are_syntax_errors(self, text):
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse(text)

    def test_a_deep_built_tree_does_not_overflow_evaluate(self):
        node = Literal(COMPOSITION, C(1))
        for _ in range(5000):
            node = BinOp("+", node, Literal(COMPOSITION, C(1)))
        with pytest.raises(ExprSyntaxError):
            evaluate(node)


class TestSignatureTable:
    def test_rows(self):
        assert len(_CALLS) == 13
        assert {key[0] for key in _CALLS} == {"sh", "st", "msh", "I", "I0", "Px", "eta", "f", "phi"}

    @pytest.mark.parametrize("key", list(_CALLS), ids=lambda key: "-".join(key))
    def test_each_signature_kind_checks_and_evaluates(self, key):
        name, *kinds = key
        node = Call(name, tuple(Literal(kind, _SAMPLE[kind]) for kind in kinds))
        expected = _CHANGES_KIND.get(name, kinds[-1])
        assert node_kind(node) == expected
        value = evaluate(node)
        assert value.kind == expected and value.combo

    def test_wrong_arity_names_accepted_kinds(self):
        with pytest.raises(KindError) as err:
            parse("sh([1])")
        message = str(err.value)
        assert "sh" in message and "(composition)" in message
        for accepted in ("(word, word)", "(composition, composition)", "(tensor, tensor)"):
            assert accepted in message

    def test_wrong_kind_names_accepted_kinds(self):
        with pytest.raises(KindError) as err:
            parse("I(x1)")
        assert "I is not defined on (word)" in str(err.value)
        assert "accepts (composition)" in str(err.value)
        with pytest.raises(KindError) as err:
            parse("msh(x1; [1], [1])")
        assert "(scalar, composition, composition)" in str(err.value)
        with pytest.raises(KindError) as err:  # letters of a word do not merge
            parse("msh(1/2; x0x1, x1)")
        assert str(err.value) == (
            "msh is not defined on (scalar, word, word); it accepts "
            "(scalar, composition, composition), (scalar, bicomposition, bicomposition)"
        )

    def test_unknown_call_built_by_hand(self):
        with pytest.raises(KindError, match="unknown function"):
            node_kind(Call("zz", (Literal(COMPOSITION, C(1)),)))


class TestEvaluate:
    def test_shuffle(self):
        value = evaluate(parse("sh([1],[2])"))
        assert value.kind == COMPOSITION
        assert value.combo == LinComb({C(1, 2): 1, C(2, 1): 2})

    def test_euler_difference(self):
        value = evaluate(parse("st([2],[2]) - sh([2],[2])"))
        assert value.combo == LinComb({C(4): 1, C(3, 1): -4})

    def test_shift(self):
        assert evaluate(parse("I([0])")).combo == LinComb.single(C(1))

    def test_phi(self):
        assert evaluate(parse("phi((1,2))")).combo == LinComb.single(C(0, 1, 0))

    def test_f(self):
        value = evaluate(parse("f((1,1))"))
        assert value.kind == WORD
        assert value.combo == LinComb(
            {Word.from_text("x1x0x1"): 1, Word.from_text("x0x1x1"): 2}
        )

    def test_engine_mixable_shuffle(self):
        value = evaluate(parse("msh(1; [1], [1])"))
        assert value.combo == LinComb({C(1, 1): 2, C(2): 1})
        value = evaluate(parse("msh(1/2; [1], [1])"))
        assert value.combo == LinComb({C(1, 1): 2, C(2): Fraction(1, 2)})

    def test_scalar_arithmetic(self):
        value = evaluate(parse("1/2 + 1/3"))
        assert value.kind == SCALAR and value.scalar == Fraction(5, 6)

    @pytest.mark.parametrize("text", ["3*sh([1],[2])", "-sh([1],[2])", "msh(2; [1], [2])",
                                      "msh(2; [1 | 1], [2 | 0])", "[1 | 1]", "st([1 | 1], [2 | 2])", "-3"])
    def test_integer_literals_keep_int_coefficients(self, text):
        value = evaluate(parse(text))
        if value.kind == SCALAR:
            assert type(value.scalar) is int
            return
        assert value.combo and all(type(c) is int for _, c in value.combo.items())
        assert all(type(r) is int for b, _ in value.combo.items() for r in getattr(b, "r_row", ()))

    def test_a_fraction_literal_brings_fraction(self):
        value = evaluate(parse("3/2*sh([1],[2])"))
        assert {type(c) for _, c in value.combo.items()} == {Fraction}
        assert value.combo == LinComb({C(1, 2): Fraction(3, 2), C(2, 1): 3})

    def test_runtime_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("st([0],[1])"))
        with pytest.raises(DomainError):
            evaluate(parse("I0(sh(x1x0, x1))"))

    def test_referential_transparency(self):
        node = parse("sh([1],[2]) + 2*st([1],[1])")
        first, second = evaluate(node), evaluate(node)
        assert first.combo == second.combo
        assert str(first) == str(second)


def _random_node(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return Literal(COMPOSITION, C(*[rng.randint(0, 3) for _ in range(rng.randint(1, 3))]))
        if choice == 1:
            letters = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2))) + (1,)
            return Literal(WORD, Word(letters))
        if choice == 2:
            exps = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2))) + (rng.randint(1, 2),)
            return Literal(TENSOR, TensorWord(exps))
        return Literal(SCALAR, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))

    # canonical shapes only: sums associate left, '*' scales a bare atom
    kind_pool = [COMPOSITION, WORD, TENSOR]
    pick = rng.randrange(5)
    if pick == 0:
        inner = _force_kind(rng, depth - 1, COMPOSITION, atom=True)
        return Call("I", (inner,))
    if pick == 1:
        inner = _force_kind(rng, depth - 1, TENSOR, atom=True)
        return Call(rng.choice(("Px", "f", "phi")), (inner,))
    if pick == 2:
        kind = rng.choice(kind_pool)
        left = _force_kind(rng, depth - 1, kind)
        right = _force_kind(rng, depth - 1, kind)
        return Call("sh", (left, right))
    if pick == 3:
        kind = rng.choice(kind_pool)
        left = _force_kind(rng, depth - 1, kind)
        right = _force_kind(rng, depth - 1, kind, atom=True, allow_scaled=True)
        return BinOp(rng.choice("+-"), left, right)
    inner = _force_kind(rng, depth - 1, rng.choice(kind_pool), atom=True)
    return ScalarMul(Fraction(rng.randint(1, 7), rng.randint(1, 3)), inner)


def _force_kind(rng, depth, kind, atom=False, allow_scaled=False):
    def acceptable(node):
        if isinstance(node, BinOp):
            return not atom
        if isinstance(node, ScalarMul):
            return (not atom) or allow_scaled
        return True

    for _ in range(50):
        node = _random_node(rng, depth)
        try:
            if node_kind(node) == kind and acceptable(node):
                return node
        except KindError:
            continue
    if kind == COMPOSITION:
        return Literal(COMPOSITION, C(1))
    if kind == WORD:
        return Literal(WORD, Word((1,)))
    return Literal(TENSOR, TensorWord((1,)))


class TestRoundTrip:
    def test_parse_print_identity_randomized(self):
        rng = random.Random(67)
        count = 0
        for _ in range(300):
            node = _random_node(rng, rng.randint(0, 4))
            try:
                node_kind(node)
            except KindError:
                continue
            count += 1
            text = to_text(node)
            reparsed = parse(text)
            assert node == reparsed, text
        assert count > 200

    def test_specific_round_trips(self):
        for text in ("sh([1], [2])", "msh(1/2; [1], [2])", "2*[1,1] + [2]",
                     "f((0,1))", "st([1,2 | 1,0], [1 | 1])"):
            node = parse(text)
            assert node == parse(to_text(node))

    def test_whitespace_between_tokens_randomized(self):
        rng = random.Random(23)
        spaces = " \t\n\xa0\u2003"
        count = 0
        for _ in range(300):
            node = _random_node(rng, rng.randint(0, 4))
            try:
                node_kind(node)
            except KindError:
                continue
            count += 1
            tokens = re.findall(r"[0-9]+|[A-Za-z][A-Za-z0-9]*|\S", to_text(node))
            gaps = ["".join(rng.choices(spaces, k=rng.randint(0, 2))) for _ in range(len(tokens) + 1)]
            text = "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]
            assert parse(text) == node, repr(text)
        assert count > 200
