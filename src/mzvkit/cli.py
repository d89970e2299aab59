"""Command-line surface.

Subcommands: eval, dsh, eds, rank, zsh, zst, rho, beta, zeta, li, zdir,
verify.  Each ``_cmd_*`` handler returns its text (the data commands
through ``_render``, one renderer per --format) and ``main`` writes it once,
to stdout or --out FILE; diagnostics go to stderr.  Exit codes: 0 success,
1 domain error, 2 syntax error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import expressions as expr
from . import numerics as num
from . import regularization as reg
from . import verification
from .compositions import BiComposition
from .core import DomainError, TPoly
from .expressions import ExprSyntaxError
from .numerics import DivergenceError, PrecisionContext, PrecisionError


def _literal(text: str, kind: str, example: str):
    """The payload of a literal of this kind; a composition also reads as a
    two-row symbol with zero directions."""
    node = expr.parse(text)
    if isinstance(node, expr.Literal) and node.kind == kind:
        return node.payload
    if isinstance(node, expr.Literal) and node.kind == expr.COMPOSITION and kind == expr.BICOMPOSITION:
        return BiComposition.make(node.payload.entries, (0,) * node.payload.depth)
    name = kind.replace("bicomp", "bi-comp")
    raise DomainError(f"expected a {name} literal like {example}: {text!r}")


def _context(args) -> PrecisionContext:
    return PrecisionContext(digits=args.digits, budget=args.budget, tolerance=args.tol)


_NUMERIC_FLAGS = (("digits", int, "working precision (decimal digits)"),
                  ("budget", int, "maximum summation index"),
                  ("tol", float, "target tolerance"))


def _add_numeric_flags(parser, tol: float = 1e-3):
    for (name, kind, text), default in zip(_NUMERIC_FLAGS, (20, 200_000, tol)):
        parser.add_argument("--" + name, type=kind, default=default, help=text)


def _add_format_flag(parser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _emit(args, text: str) -> None:
    """Write text to --out or to stdout, with a newline added unless it ends in one."""
    body = text[:-1] if text.endswith("\n") else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body + "\n")
    else:
        # print writes the newline on its own: when the reader of a pipe
        # leaves, a large write returns short without an error, and only
        # the write after it raises BrokenPipeError (at the flush in main)
        print(body)


# the separators of json.dumps(..., indent=2) in an eval export: between
# terms, between the entries of a basis list, and between the entries of a
# two-row symbol's row (every basis is nonempty, so no list prints as [])
_TERM, _ENTRY, _ROW_ENTRY = ",\n    ", ",\n        ", ",\n          "


def _value_to_json(value: expr.Value) -> str:
    """``json.dumps(..., indent=2)`` of ``{"kind", "value"}`` for a scalar, else of ``{"kind", "terms"}``.

    Each term is ``{"basis", "coeff"}``: a word as its text, a composition or
    a tensor as its entry list, a two-row symbol as ``{"s", "r"}`` lists;
    coefficients and r entries are ``fraction_str`` strings.  The text is
    written in one pass, one f-string per term, and each distinct int
    coefficient or r entry is encoded once per call.
    """
    if value.kind == expr.SCALAR:
        return f'{{\n  "kind": "scalar",\n  "value": {reg.fraction_json(value.scalar)}\n}}'
    numbers: dict[int, str] = {}  # int coefficient or r entry -> its JSON string

    def number(c) -> str:
        if type(c) is not int:  # a Fraction hashes slower than it formats
            return reg.fraction_json(c)
        text = numbers.get(c)
        if text is None:
            text = numbers[c] = reg.fraction_json(c)
        return text

    kind = value.kind
    terms = []
    for basis, coeff in value.combo.sorted_items():
        if kind == expr.WORD:
            text = encode_basestring_ascii(str(basis))
        elif kind == expr.BICOMPOSITION:
            text = (f'{{\n        "s": [\n          {_ROW_ENTRY.join(map(str, basis.s_row))}\n        ],'
                    f'\n        "r": [\n          {_ROW_ENTRY.join(map(number, basis.r_row))}\n        ]\n      }}')
        else:
            entries = basis.entries if kind == expr.COMPOSITION else basis.exponents
            text = f"[\n        {_ENTRY.join(map(str, entries))}\n      ]"
        terms.append(f'{{\n      "basis": {text},\n      "coeff": {number(coeff)}\n    }}')
    body = f"[\n    {_TERM.join(terms)}\n  ]" if terms else "[]"
    return f'{{\n  "kind": {encode_basestring_ascii(kind)},\n  "terms": {body}\n}}'


def _value_csv(value: expr.Value) -> str:
    lines = ["term,coefficient"]
    if value.kind == expr.SCALAR:
        lines.append(f"1,{reg.fraction_str(value.scalar)}")
    else:
        for basis, coeff in value.combo.sorted_items():
            lines.append(f"\"{basis}\",{reg.fraction_str(coeff)}")
    return "\n".join(lines) + "\n"


def _render(args, value, as_text, as_json, as_csv) -> str:
    """The text of value in the chosen --format; each renderer is a function of value."""
    return {"text": as_text, "json": as_json, "csv": as_csv}[args.format](value)


@lru_cache(maxsize=4096)
def _value(text: str) -> expr.Value:
    """The value of an expression text, kept per text: a repeat is one lookup.

    Keyed on the text, not on the parsed node: nodes compare equal across
    scalar types (``2`` and ``2/1``), so a node key would hand one text the
    int or Fraction coefficients of the other.  A text that raises is not
    kept and raises again on every call.
    """
    return expr.evaluate(expr.parse(text))


def _cmd_eval(args) -> str:
    return _render(args, _value(args.expression), str, _value_to_json, _value_csv)


def _relations_text(rels) -> str:
    return "\n".join(f"({rel.source[0]}, {rel.source[1]}): {rel}" for rel in rels) or "(no relations)"


def _cmd_relations(args, extended: bool) -> str:
    table = reg.extended_double_shuffle_relations if extended else reg.double_shuffle_relations
    return _render(args, table(args.weight), _relations_text, reg.relations_to_json, reg.relations_to_csv)


def _cmd_rank(args) -> str:
    rank, bound = reg.relation_rank(args.weight)
    row = {"weight": args.weight, "rank": rank, "dimension_bound": bound}
    return _render(args, row, "weight {weight}: relation rank {rank}, dimension bound {dimension_bound}".format_map,
                   json.dumps, "weight,rank,dimension_bound\n{weight},{rank},{dimension_bound}\n".format_map)


def _cmd_regularize(args, shuffle_side: bool) -> str:
    s = _literal(args.composition, expr.COMPOSITION, "[1,2]")
    poly = reg.shuffle_regularize(s) if shuffle_side else reg.stuffle_regularize(s)
    return _render(args, poly, str, reg.reg_poly_to_json, reg.reg_poly_to_csv)


def _cmd_rho(args, inverse: bool) -> str:
    ctx = _context(args)
    rho = reg.build_rho(args.order, ctx)
    if args.apply is None:
        name, table = ("delta", rho.delta) if inverse else ("gamma", rho.gamma)
        return "\n".join(f"{name}[{k}] = {num.format_value(float(v), float(ctx.tolerance))}"
                         for k, v in enumerate(table))
    texts = args.apply.split(",")
    coeffs = [float(c) for c in texts]
    for degree, (text, c) in enumerate(zip(texts, coeffs)):
        if not math.isfinite(c):
            raise DomainError(f"--apply coefficient of T^{degree} must be finite, got {text.strip()}")
    poly = TPoly(dict(enumerate(coeffs)))
    image = reg.beta_apply(poly, rho) if inverse else reg.rho_apply(poly, rho)
    return " + ".join(f"{float(image.coeff(d, 0.0))!r}*T^{d}" for d in range(args.order + 1))


def _cmd_zeta(args) -> str:
    ctx = _context(args)
    if args.n >= 2:
        # Decimal, not float: 10.0 ** -digits underflows to 0 past 323 digits
        return num.format_value(num.zeta_pos(args.n, ctx), min(Decimal(ctx.tolerance), Decimal(10) ** -ctx.digits))
    if args.n <= 0:
        return f"{reg.fraction_str(num.zeta_nonpos(-args.n))} (exact)"
    raise DomainError("zeta(1) diverges; use zsh/zst for regularized values")


def _cmd_li(args) -> str:
    ctx = _context(args)
    s = _literal(args.composition, expr.COMPOSITION, "[1,2]")
    return num.format_value(num.li_eval(s, args.z, ctx), ctx.tolerance)


def _cmd_zdir(args) -> str:
    ctx = _context(args)
    b = _literal(args.bicomposition, expr.BICOMPOSITION, "[2,1 | 1,0]")
    return num.format_value(num.z_directional(b, args.eps, ctx), ctx.tolerance)


_SUITE_SIZES = ("max_weight", "max_degree", "cases", "seed")


def _cmd_verify(args) -> tuple[str, str | None]:
    """The PASS/FAIL lines, and the failure note when a check failed."""
    # a suite sees only the sizes and numeric flags given on the command line
    # and keeps its own defaults for the rest
    options = {name: getattr(args, name) for name in _SUITE_SIZES + tuple(verification.CONTEXT_FLAGS)}
    results = verification.run_suites(args.suites, **options)
    failed = sum(not r.passed for r in results)
    return "\n".join(r.line() for r in results), f"{failed} check(s) failed" if failed else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzvkit",
        description="Exact shuffle/quasi-shuffle algebra for multiple zeta values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an algebra expression")
    p.add_argument("expression")
    _add_format_flag(p)
    p.set_defaults(run=_cmd_eval)

    for name, extended in (("dsh", False), ("eds", True)):
        p = sub.add_parser(name, help=f"{'extended ' if extended else ''}double shuffle relation table")
        p.add_argument("--weight", type=int, required=True)
        _add_format_flag(p)
        p.set_defaults(run=lambda a, e=extended: _cmd_relations(a, e))

    p = sub.add_parser("rank", help="exact rank of the extended relation set")
    p.add_argument("--weight", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(run=_cmd_rank)

    for name, shuffle_side in (("zsh", True), ("zst", False)):
        p = sub.add_parser(name, help=f"{'shuffle' if shuffle_side else 'stuffle'}-regularized T-polynomial")
        p.add_argument("composition", help="composition literal, e.g. [1,2]")
        _add_format_flag(p)
        p.set_defaults(run=lambda a, s=shuffle_side: _cmd_regularize(a, s))

    for name, inverse in (("rho", False), ("beta", True)):
        p = sub.add_parser(name, help=f"{'inverse ' if inverse else ''}regularization-exchange coefficients")
        p.add_argument("--order", type=int, default=6)
        p.add_argument("--apply", default=None, metavar="C0,C1,...",
                       help="apply the map to the T-polynomial with these coefficients")
        _add_numeric_flags(p)
        p.set_defaults(run=lambda a, i=inverse: _cmd_rho(a, i))

    p = sub.add_parser("zeta", help="zeta value: n >= 2 numeric, n <= 0 exact rational")
    p.add_argument("n", type=int)
    _add_numeric_flags(p, tol=1e-15)
    p.set_defaults(run=_cmd_zeta)

    p = sub.add_parser("li", help="multiple polylogarithm at |z| < 1")
    p.add_argument("composition")
    p.add_argument("z", type=float)
    _add_numeric_flags(p, tol=1e-10)
    p.set_defaults(run=_cmd_li)

    p = sub.add_parser("zdir", help="directional regularized MZV at eps < 0")
    p.add_argument("bicomposition", help="e.g. \"[2,1 | 1,0]\"")
    p.add_argument("eps", type=float)
    _add_numeric_flags(p, tol=1e-8)
    p.set_defaults(run=_cmd_zdir)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="+",
                   help=f"suite names or 'all': {', '.join(sorted(verification.SUITES))}")
    for flag in _SUITE_SIZES:
        p.add_argument("--" + flag.replace("_", "-"), type=int, dest=flag,
                       help="passed to the suites that take it (default: each suite's own)")
    for name, kind, text in _NUMERIC_FLAGS:
        p.add_argument("--" + name, type=kind,
                       help=f"{text} of the numeric suites (default: each numeric suite's own)")
    p.set_defaults(run=_cmd_verify)

    # declared last, so it stays the last flag in the usage and help of every command
    for p in sub.choices.values():
        p.add_argument("--out", metavar="FILE", help="write data to FILE instead of stdout")
    return parser


# built once at import, so repeated main() calls in one process share it
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # a handler returns its text; verify also returns its failure note
        text = args.run(args)
        text, failure = (text, None) if isinstance(text, str) else text
        _emit(args, text)
        sys.stdout.flush()
        if failure:
            print(failure, file=sys.stderr)
            return 1
        return 0
    except BrokenPipeError:
        # the reader of stdout went away (`mzvkit ... | head`); as in the
        # "Note on SIGPIPE" of the signal docs, point stdout at devnull so
        # the flush at interpreter exit cannot fail again, and say nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
