"""Expression language over the algebra: literals, products, operators.

Grammar (whitespace insensitive)::

    expr    := ['-'] term (('+' | '-') term)*
    term    := rational '*' atom | rational | atom
    atom    := call | literal
    call    := name '(' expr ((',' | ';') expr)* ')'
    literal := '[' ints ']'                    composition
             | '[' ints '|' rationals ']'     bi-composition
             | '(' ints ')'                    exponent tensor
             | ('x0' | 'x1')+                  word
    rational:= ['-'] int ['/' int]

Calls: sh (shuffle-type product), st (quasi-shuffle), msh (raw engine
mixable shuffle, first argument is the weight), I (first-entry shift), I0
(x0 prepend), Px (tensor nesting), eta (word to composition), f (tensor to
word sum), phi (tensor to composition).  Kinds are checked at parse time;
``*`` multiplies a term by a rational only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import compositions as comp
from . import free_rba as frba
from . import words
from .core import DomainError, LinComb, bilinear, mixable_shuffle


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class KindError(DomainError):
    """Operands of the wrong kind for an operation."""


SCALAR = "scalar"
WORD = "word"
COMPOSITION = "composition"
BICOMPOSITION = "bicomposition"
TENSOR = "tensor"


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Literal(Node):
    kind: str
    payload: object
    pos: int = 0


@dataclass(frozen=True)
class Call(Node):
    name: str
    args: tuple[Node, ...]
    pos: int = 0


@dataclass(frozen=True)
class ScalarMul(Node):
    scalar: Fraction
    operand: Node
    pos: int = 0


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # '+' or '-'
    left: Node
    right: Node
    pos: int = 0


def same_structure(a: Node, b: Node) -> bool:
    """Structural equality ignoring source positions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Literal):
        return a.kind == b.kind and a.payload == b.payload
    if isinstance(a, Call):
        return a.name == b.name and len(a.args) == len(b.args) and all(
            same_structure(x, y) for x, y in zip(a.args, b.args)
        )
    if isinstance(a, ScalarMul):
        return a.scalar == b.scalar and same_structure(a.operand, b.operand)
    if isinstance(a, BinOp):
        return a.op == b.op and same_structure(a.left, b.left) and same_structure(a.right, b.right)
    return False


# call name -> (argument kinds template, result kind resolver)
_ALGEBRA_KINDS = (WORD, COMPOSITION, BICOMPOSITION, TENSOR)


def node_kind(node: Node) -> str:
    """Static kind of a parsed node; raises KindError on mismatches."""
    if isinstance(node, Literal):
        return node.kind
    if isinstance(node, ScalarMul):
        return node_kind(node.operand)
    if isinstance(node, BinOp):
        left, right = node_kind(node.left), node_kind(node.right)
        if left != right:
            raise KindError(f"cannot combine {left} and {right} with '{node.op}'")
        return left
    if isinstance(node, Call):
        return _call_kind(node)
    raise KindError(f"unknown node {node!r}")


def _call_kind(node: Call) -> str:
    name = node.name
    kinds = [node_kind(a) for a in node.args]

    def need(n: int):
        if len(kinds) != n:
            raise KindError(f"{name} takes {n} argument(s), got {len(kinds)}")

    if name in ("sh", "st"):
        need(2)
        if kinds[0] != kinds[1]:
            raise KindError(f"{name} needs matching kinds, got {kinds[0]} and {kinds[1]}")
        allowed = (WORD, COMPOSITION, TENSOR) if name == "sh" else (COMPOSITION, BICOMPOSITION)
        if kinds[0] not in allowed:
            raise KindError(f"{name} is not defined on {kinds[0]} operands")
        return kinds[0]
    if name == "msh":
        need(3)
        if kinds[0] != SCALAR:
            raise KindError("msh needs a scalar weight as its first argument")
        if kinds[1] != kinds[2]:
            raise KindError(f"msh needs matching kinds, got {kinds[1]} and {kinds[2]}")
        if kinds[1] not in (WORD, COMPOSITION, BICOMPOSITION):
            raise KindError(f"msh is not defined on {kinds[1]} operands")
        return kinds[1]
    if name == "I":
        need(1)
        if kinds[0] != COMPOSITION:
            raise KindError("I acts on compositions")
        return COMPOSITION
    if name == "I0":
        need(1)
        if kinds[0] != WORD:
            raise KindError("I0 acts on words")
        return WORD
    if name == "Px":
        need(1)
        if kinds[0] != TENSOR:
            raise KindError("Px acts on tensors")
        return TENSOR
    if name == "eta":
        need(1)
        if kinds[0] != WORD:
            raise KindError("eta acts on words")
        return COMPOSITION
    if name in ("f", "phi"):
        need(1)
        if kinds[0] != TENSOR:
            raise KindError(f"{name} acts on tensors")
        return WORD if name == "f" else COMPOSITION
    raise KindError(f"unknown function {name!r}")


_CALL_NAMES = {"sh", "st", "msh", "I", "I0", "Px", "eta", "f", "phi"}

_WORD_RE = re.compile(r"^(x[01])+$")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_NUM_RE = re.compile(r"[0-9]+")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def take_int(self) -> int:
        self.skip_ws()
        sign = -1 if self.try_take("-") else 1
        self.skip_ws()
        m = _NUM_RE.match(self.text, self.pos)
        if not m:
            raise ExprSyntaxError("expected an integer", self.pos)
        self.pos = m.end()
        return sign * int(m.group())

    def take_rational(self) -> Fraction:
        num = self.take_int()
        if self.peek() == "/":
            self.pos += 1
            den = self.take_int()
            return Fraction(num, den)
        return Fraction(num)

    def take_name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise ExprSyntaxError("expected a name", self.pos)
        self.pos = m.end()
        return m.group()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse(text: str) -> Node:
    """Parse expression text into a kind-checked AST."""
    toks = _Tokens(text)
    node = _parse_expr(toks)
    if not toks.at_end():
        raise ExprSyntaxError("unexpected trailing input", toks.pos)
    node_kind(node)  # force the static kind check over the whole tree
    return node


def _parse_expr(toks: _Tokens) -> Node:
    pos = toks.pos
    negate = toks.try_take("-")
    node = _parse_term(toks)
    if negate:
        node = _negate(node, pos)
    while True:
        ch = toks.peek()
        if ch == "+":
            toks.pos += 1
            node = BinOp("+", node, _parse_term(toks), pos)
        elif ch == "-":
            toks.pos += 1
            node = BinOp("-", node, _parse_term(toks), pos)
        else:
            return node


def _negate(node: Node, pos: int) -> Node:
    if isinstance(node, Literal) and node.kind == SCALAR:
        return Literal(SCALAR, -node.payload, pos)
    if isinstance(node, ScalarMul):
        return ScalarMul(-node.scalar, node.operand, pos)
    return ScalarMul(Fraction(-1), node, pos)


def _parse_term(toks: _Tokens) -> Node:
    ch = toks.peek()
    pos = toks.pos
    if ch.isdigit():
        scalar = toks.take_rational()
        if toks.try_take("*"):
            return ScalarMul(scalar, _parse_atom(toks), pos)
        return Literal(SCALAR, scalar, pos)
    return _parse_atom(toks)


def _parse_atom(toks: _Tokens) -> Node:
    ch = toks.peek()
    pos = toks.pos
    if ch == "[":
        return _parse_bracket(toks)
    if ch == "(":
        return _parse_tensor(toks)
    if ch.isalpha():
        name = toks.take_name()
        if _WORD_RE.match(name):
            return Literal(WORD, words.Word.from_text(name), pos)
        if name in _CALL_NAMES:
            toks.expect("(")
            args = [_parse_expr(toks)]
            while toks.try_take(",") or toks.try_take(";"):
                args.append(_parse_expr(toks))
            toks.expect(")")
            return Call(name, tuple(args), pos)
        raise ExprSyntaxError(f"unknown name {name!r}", pos)
    raise ExprSyntaxError("expected a literal or function call", pos)


def _parse_bracket(toks: _Tokens) -> Node:
    pos = toks.pos
    toks.expect("[")
    entries = [toks.take_int()]
    while toks.try_take(","):
        entries.append(toks.take_int())
    if toks.try_take("|"):
        r_row = [toks.take_rational()]
        while toks.try_take(","):
            r_row.append(toks.take_rational())
        toks.expect("]")
        return Literal(BICOMPOSITION, comp.BiComposition.make(entries, r_row), pos)
    toks.expect("]")
    return Literal(COMPOSITION, comp.Composition(tuple(entries)), pos)


def _parse_tensor(toks: _Tokens) -> Node:
    pos = toks.pos
    toks.expect("(")
    entries = [toks.take_int()]
    while toks.try_take(","):
        entries.append(toks.take_int())
    toks.expect(")")
    return Literal(TENSOR, frba.TensorWord(tuple(entries)), pos)


def to_text(node: Node) -> str:
    """Canonical text form; parse(to_text(n)) is structurally n."""
    if isinstance(node, Literal):
        if node.kind == SCALAR:
            return str(node.payload)
        return str(node.payload)
    if isinstance(node, ScalarMul):
        return f"{node.scalar}*{to_text(node.operand)}"
    if isinstance(node, BinOp):
        return f"{to_text(node.left)} {node.op} {to_text(node.right)}"
    if isinstance(node, Call):
        if node.name == "msh":
            head, *rest = node.args
            return f"msh({to_text(head)}; " + ", ".join(to_text(a) for a in rest) + ")"
        return f"{node.name}(" + ", ".join(to_text(a) for a in node.args) + ")"
    raise KindError(f"unknown node {node!r}")


@dataclass(frozen=True)
class Value:
    """Evaluation result: a linear combination tagged with its basis kind."""

    kind: str
    combo: LinComb | None = None
    scalar: Fraction | None = None

    def __str__(self) -> str:
        if self.kind == SCALAR:
            return str(self.scalar)
        return str(self.combo)


def evaluate(node: Node) -> Value:
    """Evaluate a parsed expression to a tagged linear combination."""
    kind = node_kind(node)
    if isinstance(node, Literal):
        if kind == SCALAR:
            return Value(SCALAR, scalar=node.payload)
        return Value(kind, combo=LinComb.single(node.payload))
    if isinstance(node, ScalarMul):
        inner = evaluate(node.operand)
        if inner.kind == SCALAR:
            return Value(SCALAR, scalar=inner.scalar * node.scalar)
        return Value(inner.kind, combo=inner.combo.scale(node.scalar))
    if isinstance(node, BinOp):
        left, right = evaluate(node.left), evaluate(node.right)
        sign = 1 if node.op == "+" else -1
        if kind == SCALAR:
            return Value(SCALAR, scalar=left.scalar + sign * right.scalar)
        return Value(kind, combo=left.combo.combine(right.combo, sign))
    assert isinstance(node, Call)
    return _eval_call(node, kind)


_PRODUCTS: dict[tuple[str, str], Callable] = {
    ("sh", WORD): words.shuffle,
    ("sh", COMPOSITION): comp.shuffle,
    ("sh", TENSOR): frba.product,
    ("st", COMPOSITION): comp.stuffle,
    ("st", BICOMPOSITION): comp.bistuffle,
}

_UNARY: dict[str, Callable] = {
    "I": comp.raise_first,
    "I0": words.prepend_x0,
    "Px": frba.nest,
    "eta": words.to_composition,
    "phi": frba.to_composition,
}


def _eval_call(node: Call, kind: str) -> Value:
    name = node.name
    if name in ("sh", "st"):
        left, right = evaluate(node.args[0]), evaluate(node.args[1])
        product = _PRODUCTS[(name, left.kind)]
        return Value(kind, combo=bilinear(product, left.combo, right.combo))
    if name == "msh":
        weight = evaluate(node.args[0]).scalar
        left, right = evaluate(node.args[1]), evaluate(node.args[2])
        return Value(kind, combo=_mixable_on_kind(left.kind, weight, left.combo, right.combo))
    if name == "f":
        inner = evaluate(node.args[0])
        return Value(WORD, combo=inner.combo.map_linear(frba.to_word_sum))
    op = _UNARY[name]
    inner = evaluate(node.args[0])
    return Value(kind, combo=inner.combo.map_basis(op))


def _mixable_on_kind(kind: str, weight: Fraction, a: LinComb, b: LinComb) -> LinComb:
    if kind == WORD:
        def product(u, v):
            return mixable_shuffle(u.letters, v.letters, weight).map_basis(words.Word)
    elif kind == COMPOSITION:
        def product(u, v):
            return mixable_shuffle(u.entries, v.entries, weight, comp._add_entries).map_basis(
                comp.Composition
            )
    else:
        def product(u, v):
            return comp._column_shuffle(u, v, weight)

    return bilinear(product, a, b)
