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

The calls are the rows of ``_CALLS``, one per accepted (name, argument
kinds) signature, each holding the function that computes it: sh, st and
msh (the mixable shuffle at the weight given first), the operators I, I0
and Px, and the maps eta, f and phi.  Kinds are checked at parse time;
``*`` multiplies a term by a rational only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
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
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call(Node):
    name: str
    args: tuple[Node, ...]
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ScalarMul(Node):
    scalar: Fraction
    operand: Node
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # '+' or '-'
    left: Node
    right: Node
    pos: int = field(default=0, compare=False)


def _weighted_words(u: words.Word, v: words.Word, weight) -> LinComb:
    return mixable_shuffle(u.letters, v.letters, weight).map_basis(words.Word)


def _weighted_compositions(u: comp.Composition, v: comp.Composition, weight) -> LinComb:
    return mixable_shuffle(u.entries, v.entries, weight, comp._add_entries).map_basis(comp.Composition)


# (call, argument kinds) -> function on basis elements, extended bilinearly
# (a leading scalar is msh's weight) or linearly.  The values are the
# functions themselves, which bench/spans.py rebinds to trace them.  A call
# returns the kind of its last argument unless _RESULT says otherwise.
_CALLS: dict[tuple[str, ...], Callable] = {
    ("sh", WORD, WORD): words.shuffle,
    ("sh", COMPOSITION, COMPOSITION): comp.shuffle,
    ("sh", TENSOR, TENSOR): frba.product,
    ("st", COMPOSITION, COMPOSITION): comp.stuffle,
    ("st", BICOMPOSITION, BICOMPOSITION): comp.bistuffle,
    ("msh", SCALAR, WORD, WORD): _weighted_words,
    ("msh", SCALAR, COMPOSITION, COMPOSITION): _weighted_compositions,
    ("msh", SCALAR, BICOMPOSITION, BICOMPOSITION): comp._column_shuffle,
    ("I", COMPOSITION): comp.raise_first,
    ("I0", WORD): words.prepend_x0,
    ("Px", TENSOR): frba.nest,
    ("eta", WORD): words.to_composition,
    ("f", TENSOR): frba.to_word_sum,
    ("phi", TENSOR): frba.to_composition,
}

_RESULT = {"eta": COMPOSITION, "f": WORD, "phi": COMPOSITION}

_CALL_NAMES = {key[0] for key in _CALLS}


def _signature(name: str, kinds: tuple[str, ...]) -> tuple[Callable, str]:
    """(function, result kind) of a call on arguments of these kinds."""
    fn = _CALLS.get((name, *kinds))
    if fn is None:
        accepted = ", ".join(f"({', '.join(key[1:])})" for key in _CALLS if key[0] == name)
        if not accepted:
            raise KindError(f"unknown function {name!r}")
        raise KindError(f"{name} is not defined on ({', '.join(kinds)}); it accepts {accepted}")
    return fn, _RESULT.get(name, kinds[-1])


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
        return _signature(node.name, tuple(node_kind(a) for a in node.args))[1]
    raise KindError(f"unknown node {node!r}")


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
            self.skip_ws()
            pos = self.pos
            den = self.take_int()
            if den == 0:
                raise ExprSyntaxError("zero denominator", pos)
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
    node_kind(node)  # kinds are checked once, over the whole tree
    return _evaluate(node)


def _evaluate(node: Node) -> Value:
    if isinstance(node, Literal):
        if node.kind == SCALAR:
            return Value(SCALAR, scalar=node.payload)
        return Value(node.kind, combo=LinComb.single(node.payload))
    if isinstance(node, ScalarMul):
        inner = _evaluate(node.operand)
        if inner.kind == SCALAR:
            return Value(SCALAR, scalar=inner.scalar * node.scalar)
        return Value(inner.kind, combo=inner.combo.scale(node.scalar))
    if isinstance(node, BinOp):
        left, right = _evaluate(node.left), _evaluate(node.right)
        sign = 1 if node.op == "+" else -1
        if left.kind == SCALAR:
            return Value(SCALAR, scalar=left.scalar + sign * right.scalar)
        return Value(left.kind, combo=left.combo.combine(right.combo, sign))
    args = [_evaluate(a) for a in node.args]
    fn, kind = _signature(node.name, tuple(a.kind for a in args))
    if len(args) == 1:
        return Value(kind, combo=args[0].combo.map_linear(lambda b: _as_sum(fn(b))))
    *weight, left, right = args
    if weight:
        fn = partial(fn, weight=weight[0].scalar)
    return Value(kind, combo=bilinear(fn, left.combo, right.combo))


def _as_sum(image) -> LinComb:
    return image if isinstance(image, LinComb) else LinComb.single(image)
