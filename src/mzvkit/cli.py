"""Command-line surface.

Subcommands: eval, dsh, eds, rank, zsh, zst, rho, beta, zeta, li, zdir,
verify.  Data goes to stdout (or --out FILE), diagnostics to stderr.  Exit
codes: 0 success, 1 domain error, 2 syntax error, 3 precision failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal

from . import expressions as expr
from . import numerics as num
from . import regularization as reg
from . import verification
from .compositions import BiComposition, Composition
from .core import DomainError
from .expressions import ExprSyntaxError
from .numerics import DivergenceError, PrecisionContext, PrecisionError


def _parse_composition(text: str) -> Composition:
    node = expr.parse(text)
    if not isinstance(node, expr.Literal) or node.kind != expr.COMPOSITION:
        raise DomainError(f"expected a composition literal like [1,2]: {text!r}")
    return node.payload


def _parse_bicomposition(text: str) -> BiComposition:
    node = expr.parse(text)
    if isinstance(node, expr.Literal) and node.kind == expr.BICOMPOSITION:
        return node.payload
    if isinstance(node, expr.Literal) and node.kind == expr.COMPOSITION:
        payload: Composition = node.payload
        return BiComposition.make(payload.entries, (0,) * payload.depth)
    raise DomainError(f"expected a bi-composition literal like [2,1 | 1,0]: {text!r}")


def _context(args) -> PrecisionContext:
    return PrecisionContext(digits=args.digits, budget=args.budget, tolerance=args.tol)


def _add_numeric_flags(parser, tol: float = 1e-3):
    parser.add_argument("--digits", type=int, default=20, help="working precision (decimal digits)")
    parser.add_argument("--budget", type=int, default=200_000, help="maximum summation index")
    parser.add_argument("--tol", type=float, default=tol, help="target tolerance")


def _add_output_flags(parser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--out", metavar="FILE", default=None, help="write data to FILE instead of stdout")


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


def _value_json(value: expr.Value) -> dict:
    if value.kind == expr.SCALAR:
        return {"kind": "scalar", "value": reg.fraction_str(value.scalar)}
    terms = []
    for basis, coeff in value.combo.sorted_items():
        if value.kind == expr.WORD:
            rendered: object = str(basis)
        elif value.kind == expr.COMPOSITION:
            rendered = list(basis.entries)
        elif value.kind == expr.BICOMPOSITION:
            rendered = {"s": list(basis.s_row), "r": [reg.fraction_str(r) for r in basis.r_row]}
        else:
            rendered = list(basis.exponents)
        terms.append({"basis": rendered, "coeff": reg.fraction_str(coeff)})
    return {"kind": value.kind, "terms": terms}


def _value_csv(value: expr.Value) -> str:
    lines = ["term,coefficient"]
    if value.kind == expr.SCALAR:
        lines.append(f"1,{reg.fraction_str(value.scalar)}")
    else:
        for basis, coeff in value.combo.sorted_items():
            lines.append(f"\"{basis}\",{reg.fraction_str(coeff)}")
    return "\n".join(lines) + "\n"


def _cmd_eval(args) -> int:
    value = expr.evaluate(expr.parse(args.expression))
    if args.format == "text":
        _emit(args, str(value))
    elif args.format == "json":
        _emit(args, json.dumps(_value_json(value), indent=2))
    else:
        _emit(args, _value_csv(value))
    return 0


def _cmd_relations(args, extended: bool) -> int:
    rels = (
        reg.extended_double_shuffle_relations(args.weight)
        if extended
        else reg.double_shuffle_relations(args.weight)
    )
    if args.format == "csv":
        _emit(args, reg.relations_to_csv(rels))
    elif args.format == "json":
        _emit(args, reg.relations_to_json(rels))
    else:
        lines = [f"({rel.source[0]}, {rel.source[1]}): {rel}" for rel in rels]
        _emit(args, "\n".join(lines) if lines else "(no relations)")
    return 0


def _cmd_rank(args) -> int:
    rank, bound = reg.relation_rank(args.weight)
    if args.format == "json":
        _emit(args, json.dumps({"weight": args.weight, "rank": rank, "dimension_bound": bound}))
    elif args.format == "csv":
        _emit(args, f"weight,rank,dimension_bound\n{args.weight},{rank},{bound}\n")
    else:
        _emit(args, f"weight {args.weight}: relation rank {rank}, dimension bound {bound}")
    return 0


def _cmd_regularize(args, shuffle_side: bool) -> int:
    s = _parse_composition(args.composition)
    poly = reg.shuffle_regularize(s) if shuffle_side else reg.stuffle_regularize(s)
    if args.format == "json":
        _emit(args, reg.reg_poly_to_json(poly))
    elif args.format == "csv":
        _emit(args, reg.reg_poly_to_csv(poly))
    else:
        _emit(args, str(poly))
    return 0


def _cmd_rho(args, inverse: bool) -> int:
    ctx = _context(args)
    rho = reg.build_rho(args.order, ctx)
    table = rho.delta if inverse else rho.gamma
    name = "delta" if inverse else "gamma"
    if args.apply is not None:
        texts = args.apply.split(",")
        coeffs = [float(c) for c in texts]
        for degree, (text, c) in enumerate(zip(texts, coeffs)):
            if not math.isfinite(c):
                raise DomainError(f"--apply coefficient of T^{degree} must be finite, got {text.strip()}")
        from .core import TPoly

        poly = TPoly({i: c for i, c in enumerate(coeffs)})
        image = reg.beta_apply(poly, rho) if inverse else reg.rho_apply(poly, rho)
        rendered = " + ".join(
            f"{float(image.coeff(d, 0.0))!r}*T^{d}" for d in range(args.order + 1)
        )
        _emit(args, rendered)
        return 0
    lines = [f"{name}[{k}] = {num.format_value(float(v), float(ctx.tolerance))}" for k, v in enumerate(table)]
    _emit(args, "\n".join(lines))
    return 0


def _cmd_zeta(args) -> int:
    ctx = _context(args)
    if args.n >= 2:
        value = num.zeta_pos(args.n, ctx)
        # Decimal, not float: 10.0 ** -digits underflows to 0 past 323 digits
        _emit(args, num.format_value(value, min(Decimal(ctx.tolerance), Decimal(10) ** -ctx.digits)))
    elif args.n <= 0:
        exact = num.zeta_nonpos(-args.n)
        _emit(args, f"{reg.fraction_str(exact)} (exact)")
    else:
        raise DomainError("zeta(1) diverges; use zsh/zst for regularized values")
    return 0


def _cmd_li(args) -> int:
    ctx = _context(args)
    s = _parse_composition(args.composition)
    value = num.li_eval(s, args.z, ctx)
    _emit(args, num.format_value(value, ctx.tolerance))
    return 0


def _cmd_zdir(args) -> int:
    ctx = _context(args)
    b = _parse_bicomposition(args.bicomposition)
    value = num.z_directional(b, args.eps, ctx)
    _emit(args, num.format_value(value, ctx.tolerance))
    return 0


_SUITE_SIZES = ("max_weight", "max_degree", "cases", "seed")


def _cmd_verify(args) -> int:
    # a suite sees only the sizes given on the command line and keeps its own defaults for the rest
    options = {name: getattr(args, name) for name in _SUITE_SIZES if getattr(args, name) is not None}
    options["ctx"] = _context(args)
    results = verification.run_suites(args.suites, **options)
    lines = [r.line() for r in results]
    _emit(args, "\n".join(lines))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzvkit",
        description="Exact shuffle/quasi-shuffle algebra for multiple zeta values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an algebra expression")
    p.add_argument("expression")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_eval)

    for name, extended in (("dsh", False), ("eds", True)):
        p = sub.add_parser(name, help=f"{'extended ' if extended else ''}double shuffle relation table")
        p.add_argument("--weight", type=int, required=True)
        _add_output_flags(p)
        p.set_defaults(run=lambda a, e=extended: _cmd_relations(a, e))

    p = sub.add_parser("rank", help="exact rank of the extended relation set")
    p.add_argument("--weight", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_rank)

    for name, shuffle_side in (("zsh", True), ("zst", False)):
        p = sub.add_parser(name, help=f"{'shuffle' if shuffle_side else 'stuffle'}-regularized T-polynomial")
        p.add_argument("composition", help="composition literal, e.g. [1,2]")
        _add_output_flags(p)
        p.set_defaults(run=lambda a, s=shuffle_side: _cmd_regularize(a, s))

    for name, inverse in (("rho", False), ("beta", True)):
        p = sub.add_parser(name, help=f"{'inverse ' if inverse else ''}regularization-exchange coefficients")
        p.add_argument("--order", type=int, default=6)
        p.add_argument("--apply", default=None, metavar="C0,C1,...",
                       help="apply the map to the T-polynomial with these coefficients")
        _add_numeric_flags(p)
        p.add_argument("--out", default=None)
        p.set_defaults(run=lambda a, i=inverse: _cmd_rho(a, i))

    p = sub.add_parser("zeta", help="zeta value: n >= 2 numeric, n <= 0 exact rational")
    p.add_argument("n", type=int)
    _add_numeric_flags(p, tol=1e-15)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_zeta)

    p = sub.add_parser("li", help="multiple polylogarithm at |z| < 1")
    p.add_argument("composition")
    p.add_argument("z", type=float)
    _add_numeric_flags(p, tol=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_li)

    p = sub.add_parser("zdir", help="directional regularized MZV at eps < 0")
    p.add_argument("bicomposition", help="e.g. \"[2,1 | 1,0]\"")
    p.add_argument("eps", type=float)
    _add_numeric_flags(p, tol=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_zdir)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="+",
                   help=f"suite names or 'all': {', '.join(sorted(verification.SUITES))}")
    for flag in _SUITE_SIZES:
        p.add_argument("--" + flag.replace("_", "-"), type=int, dest=flag,
                       help="passed to the suites that take it (default: each suite's own)")
    _add_numeric_flags(p, tol=1e-4)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_verify)

    return parser


# built once at import, so repeated main() calls in one process share it
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
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
