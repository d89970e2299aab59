import argparse
import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mzvkit
from mzvkit import cli
from mzvkit import compositions
from mzvkit import expressions as expr
from mzvkit import verification
from mzvkit.cli import main
from mzvkit.core import DomainError, LinComb
from mzvkit.numerics import PrecisionContext
from mzvkit.regularization import fraction_str
from mzvkit.words import Word


def _value_json(value: expr.Value) -> dict:
    # the record `eval --format json` wrote through json.dumps(indent=2)
    # before the CLI wrote its text from fragments
    if value.kind == expr.SCALAR:
        return {"kind": "scalar", "value": fraction_str(value.scalar)}
    terms = []
    for basis, coeff in value.combo.sorted_items():
        if value.kind == expr.WORD:
            rendered: object = str(basis)
        elif value.kind == expr.COMPOSITION:
            rendered = list(basis.entries)
        elif value.kind == expr.BICOMPOSITION:
            rendered = {"s": list(basis.s_row), "r": [fraction_str(r) for r in basis.r_row]}
        else:
            rendered = list(basis.exponents)
        terms.append({"basis": rendered, "coeff": fraction_str(coeff)})
    return {"kind": value.kind, "terms": terms}


def _eval_pool(seed: int, count: int) -> list[str]:
    """``count`` distinct seeded eval texts over every kind: sums with int and
    Fraction coefficients, r rows of ints and of fractions, scaled
    differences, zero results and scalars."""
    rng = random.Random(seed)

    def scalar():
        return rng.choice((str(rng.randint(1, 5)), f"{rng.randint(1, 5)}/{rng.randint(1, 6)}"))

    def comp(low=1):
        return f"[{','.join(str(rng.randint(low, 3)) for _ in range(rng.randint(1, 3)))}]"

    def word():
        return "".join(f"x{rng.randint(0, 1)}" for _ in range(rng.randint(0, 4))) + "x1"

    def tensor():
        return f"({','.join([str(rng.randint(0, 3)) for _ in range(rng.randint(0, 3))] + [str(rng.randint(1, 2))])})"

    def symbol():
        # an r row of ints, or of ints and fractions
        depth = rng.randint(1, 3)
        entries = ("0", "1", "2") if rng.random() < 0.5 else ("0", "1", "1/2", "2/3", "5/4")
        r_row = ",".join(rng.choice(entries) for _ in range(depth))
        return f"[{','.join(str(rng.randint(1, 3)) for _ in range(depth))} | {r_row}]"

    def scaled_difference(make):
        a, b = make(), make()
        return f"{scalar()}*{a} - {scalar()}*{b}"

    def commuted():
        a, b = comp(), comp()
        return f"st({a}, {b}) - st({b}, {a})"

    def zero(make):
        a, c = make(), scalar()
        return f"{a} - {a}" if make is scalar or rng.random() < 0.5 else f"{c}*{a} - {c}*{a}"

    templates = (
        lambda: f"-{scalar()}*sh({word()}, {word()})",
        lambda: scaled_difference(lambda: f"sh({word()}, {word()})"),
        lambda: f"I0({word()}) + {word()}",
        lambda: f"sh({comp(0)}, {comp(0)})",
        lambda: f"st({comp()}, {comp()}) - {scalar()}*{comp()}",
        lambda: f"msh({scalar()}; {comp()}, {comp()})",
        lambda: scaled_difference(lambda: f"I({comp()})"),
        lambda: f"eta({word()})",
        lambda: f"st({symbol()}, {symbol()})",
        lambda: f"msh({scalar()}; {symbol()}, {symbol()})",
        lambda: scaled_difference(symbol),
        lambda: f"sh({tensor()}, {tensor()})",
        lambda: f"{scalar()}*f({tensor()})",
        lambda: scaled_difference(lambda: f"Px({tensor()})"),
        lambda: f"phi({tensor()})",
        lambda: f"-{scalar()} + {scalar()}",
        commuted,
        *(lambda make=make: zero(make) for make in (word, comp, tensor, symbol, scalar)),
    )
    texts: dict[str, None] = {}
    while len(texts) < count:
        texts.setdefault(templates[len(texts) % len(templates)](), None)
    return list(texts)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "eval", "sh([1],[2])")
        assert code == 0
        assert out.strip() == "[1,2] + 2*[2,1]"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "eval", "sh([1],[2])", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "composition"
        assert {"basis": [1, 2], "coeff": "1/1"} in blob["terms"]
        assert {"basis": [2, 1], "coeff": "2/1"} in blob["terms"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "st([1],[1])", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "term,coefficient"
        assert '"[2]",1/1' in lines and '"[1,1]",2/1' in lines

    @pytest.mark.parametrize("text", [
        "x0x1", "sh(x0x1, x1)", "x0 - x0",
        "[1,2]", "st([2,1],[1])", "msh(1/2; [1,2], [3])", "[1]-[1]",
        "[2,1 | 1/2,0]", "st([1 | 1/3], [2 | 0])", "[3 | 0]-[3 | 0]",
        "(1,2)", "sh((1,0,2),(2,1))", "(1,2)-(1,2)",
        "3/4", "0",
    ])
    def test_json_matches_standard_encoder(self, capsys, text):
        value = expr.evaluate(expr.parse(text))
        code, out, _ = run(capsys, "eval", text, "--format", "json")
        assert code == 0
        assert out == json.dumps(_value_json(value), indent=2) + "\n"

    def test_seeded_json_matches_standard_encoder(self, capsys):
        # zero results print an empty term list; no text evaluates to the
        # empty word, which test_json_escapes_the_empty_word builds by hand
        kinds, zeros, coeff_types, r_types = set(), set(), set(), set()
        for text in _eval_pool(25, 240):
            value = expr.evaluate(expr.parse(text))
            want = json.dumps(_value_json(value), indent=2)
            assert cli._value_to_json(value) == want, text
            assert run(capsys, "eval", "--format", "json", "--", text) == (0, want + "\n", ""), text
            kinds.add(value.kind)
            if value.kind == expr.SCALAR:
                coeff_types.add(type(value.scalar))
                if value.scalar == 0:
                    zeros.add(value.kind)
                continue
            if not value.combo:
                zeros.add(value.kind)
            for basis, coeff in value.combo.items():
                coeff_types.add(type(coeff))
                if value.kind == expr.BICOMPOSITION:
                    r_types.update(map(type, basis.r_row))
        every = {expr.WORD, expr.COMPOSITION, expr.BICOMPOSITION, expr.TENSOR, expr.SCALAR}
        assert kinds == zeros == every
        assert coeff_types == r_types == {int, Fraction}

    def test_json_escapes_the_empty_word(self):
        # the empty word, the shuffle unit, prints as ε: json.dumps writes it as \u03b5
        value = expr.Value(expr.WORD, LinComb({Word(): 2, Word((1,)): Fraction(1, 2)}))
        assert cli._value_to_json(value) == json.dumps(_value_json(value), indent=2)
        assert '"\\u03b5"' in cli._value_to_json(value)

    def test_scalar(self, capsys):
        assert run(capsys, "eval", "1/2") == (0, "1/2\n", "")
        assert run(capsys, "eval", "1/2", "--format", "csv") == (0, "term,coefficient\n1,1/2\n", "")

    def test_negated_product(self, capsys):
        assert run(capsys, "eval", "--", "-sh([1],[2])") == (0, "-[1,2] - 2*[2,1]\n", "")

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "eval", "sh([1,1],[2,1])")
        _, second, _ = run(capsys, "eval", "sh([1,1],[2,1])")
        assert first == second

    @pytest.mark.parametrize("first", [["eval", "sh([1],[2])"], ["zeta", "3"]])
    def test_no_flag_carries_over_between_calls(self, capsys, first):
        # the parser is built once per process; each call must still start from its defaults
        _, before, _ = run(capsys, *first)
        run(capsys, "eval", "sh([1],[2])", "--format", "json")
        run(capsys, "rank", "--weight", "4", "--format", "json")
        run(capsys, "zeta", "3", "--digits", "30")
        _, after, _ = run(capsys, *first)
        assert after == before


class TestValueCache:
    """``cli._value`` keeps the value of each eval text; errors are raised, never kept."""

    def test_repeat_is_one_object(self):
        for text in ("sh([1,2],[3])", "st([2,1 | 1/2,0], [1 | 1])", "f((1,2))", "x0x1 - x0x1", "3/4"):
            assert cli._value(text) is cli._value(text)

    @pytest.mark.parametrize("text, exc, code, message", [
        ("sh([1],[2]", expr.ExprSyntaxError, 2, "syntax error: expected ')' at offset 10"),
        ("I(x1)", expr.KindError, 1, "error: I is not defined on (word); it accepts (composition)"),
        ("[1,-1]", DomainError, 1, "error: composition entries must be >= 0: [1,-1]"),
        ("[1 | -1]", DomainError, 1, "error: direction entries must be >= 0: [1 | -1]"),
    ])
    def test_error_raises_on_every_call_and_is_not_kept(self, capsys, text, exc, code, message):
        before = cli._value.cache_info().currsize
        for _ in range(3):
            with pytest.raises(exc) as info:
                cli._value(text)
            assert message.endswith(str(info.value))
            assert run(capsys, "eval", text) == (code, "", message + "\n")
        assert cli._value.cache_info().currsize == before

    @pytest.mark.parametrize("texts", [("2/1*[2]", "2*[2]"), ("2*[2]", "2/1*[2]")])
    def test_scalar_type_follows_the_text(self, texts):
        # 2 and 2/1 parse to equal nodes; the text key keeps their values apart
        cli._value.cache_clear()
        for text in texts:
            cli._value(text)
        assert [type(c) for _, c in cli._value("2/1*[2]").combo.items()] == [Fraction]
        assert [type(c) for _, c in cli._value("2*[2]").combo.items()] == [int]
        assert type(cli._value("2/1").scalar) is Fraction and type(cli._value("2").scalar) is int


class TestExitCodes:
    def test_syntax_error_is_2(self, capsys):
        code, _, err = run(capsys, "eval", "x0x1]")
        assert code == 2 and "offset 4" in err

    def test_domain_error_is_1(self, capsys):
        code, _, err = run(capsys, "eval", "st([0],[1])")
        assert code == 1 and "positive" in err

    def test_kind_error_is_1(self, capsys):
        code, _, _ = run(capsys, "eval", "st(x1,x1)")
        assert code == 1

    def test_divergence_is_1(self, capsys):
        code, _, _ = run(capsys, "zdir", "[1 | 0]", "--", "-1.0")
        assert code == 1

    def test_precision_failure_is_3(self, capsys):
        code, _, err = run(capsys, "li", "[1]", "0.99999", "--budget", "1000", "--tol", "1e-12")
        assert code == 3 and "precision" in err.lower()

    def test_tolerance_below_float_rounding_is_3(self, capsys):
        code, out, err = run(capsys, "li", "[1]", "0.9", "--tol", "1e-30")
        assert code == 3 and out == ""
        assert err.startswith("precision failure:")

    @pytest.mark.parametrize("argv", [["zeta", "3"], ["li", "[1]", "0.5"]])
    def test_infinite_tolerance_is_1(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--tol", "inf")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("levels", [expr.MAX_DEPTH + 1, 1000])
    def test_deep_nesting_is_2(self, capsys, levels):
        code, out, err = run(capsys, "eval", "I(" * levels + "[1]" + ")" * levels)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == f"syntax error: nested deeper than {expr.MAX_DEPTH} levels at offset {2 * expr.MAX_DEPTH + 2}\n"

    @pytest.mark.parametrize("text, offset", [
        ("1/0", 2), ("[1 | 1/0]", 7), ("msh(1/0; [1], [1])", 6),
    ])
    def test_zero_denominator_is_2(self, capsys, text, offset):
        code, out, err = run(capsys, "eval", text)
        assert code == 2 and out == ""
        assert err.startswith("syntax error:") and f"offset {offset}" in err

    @pytest.mark.parametrize("text, message", [
        ("[1 | -1]", "error: direction entries must be >= 0: [1 | -1]\n"),
        ("[1,2 | 1]", "error: rows must have equal length: [1,2 | 1]\n"),
    ])
    def test_two_row_error_writes_the_symbol(self, capsys, text, message):
        code, out, err = run(capsys, "eval", text)
        assert code == 1 and out == ""
        assert err == message

    @pytest.mark.parametrize("text, message", [
        ("[1,-1]", "error: composition entries must be >= 0: [1,-1]\n"),
        ("(1,-1)", "error: exponents must be >= 0: (1,-1)\n"),
        ("(0)", "error: last exponent must be >= 1: (0)\n"),
    ])
    def test_literal_error_writes_the_literal(self, capsys, text, message):
        code, out, err = run(capsys, "eval", text)
        assert code == 1 and out == ""
        assert err == message

    @pytest.mark.parametrize("argv, kind", [
        (["zsh", "x0x1"], "expected a composition literal"),
        (["zdir", "x0x1", "--", "-0.5"], "expected a bi-composition literal"),
    ])
    def test_wrong_literal_kind_is_1(self, capsys, argv, kind):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {kind}")

    @pytest.mark.parametrize("command, apply, message", [
        ("rho", "inf,1", "--apply coefficient of T^0 must be finite, got inf"),
        ("beta", "1e400", "--apply coefficient of T^0 must be finite, got 1e400"),
        ("rho", "1,nan", "--apply coefficient of T^1 must be finite, got nan"),
    ])
    def test_non_finite_apply_is_1(self, capsys, command, apply, message):
        code, out, err = run(capsys, command, "--order", "2", "--apply", apply)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("symbol, eps", [
        ("[1 | 1]", "-inf"), ("[1 | 1]", "-1e400"), ("[2,1 | 1,0]", "-inf"),
    ])
    def test_non_finite_direction_is_1(self, capsys, symbol, eps):
        code, out, err = run(capsys, "zdir", symbol, "--", eps)
        assert code == 1 and out == ""
        assert err == "error: directional regularization needs a finite eps, got -inf\n"

    def test_closed_stdout_is_quiet(self):
        # `mzvkit eds --weight 9 --format json | head -1`: the reader leaves
        # after one line, long before the 300 kB of output are written
        env = {**os.environ, "PYTHONPATH": str(Path(mzvkit.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mzvkit.cli", "eds", "--weight", "9", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1 and err == b""

    def test_out_into_missing_directory_is_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "eval", "sh([1],[2])", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error:") and not target.exists()


class TestRelationCommands:
    def test_eds_weight_3_csv(self, capsys):
        code, out, _ = run(capsys, "eds", "--weight", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "weight,source_pair,term_composition,coefficient"
        assert "3,[1];[2],[2,1],1/1" in lines
        assert "3,[1];[2],[3],-1/1" in lines

    def test_dsh_weight_4_contains_euler(self, capsys):
        code, out, _ = run(capsys, "dsh", "--weight", "4", "--format", "csv")
        assert code == 0
        assert "4,[2];[2],[3,1],4/1" in out
        assert "4,[2];[2],[4],-1/1" in out

    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--weight", "4", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob == {"weight": 4, "rank": 3, "dimension_bound": 1}

    def test_rank_csv(self, capsys):
        code, out, _ = run(capsys, "rank", "--weight", "4", "--format", "csv")
        assert code == 0
        assert out.strip().split("\n") == ["weight,rank,dimension_bound", "4,3,1"]


class TestRegularizeCommands:
    def test_zsh_text(self, capsys):
        code, out, _ = run(capsys, "zsh", "[1,2]")
        assert code == 0
        assert out.strip() == "ζ(2)*T - 2*ζ(2,1)"

    def test_zsh_json_schema(self, capsys):
        code, out, _ = run(capsys, "zsh", "[1,2]", "--format", "json")
        blob = json.loads(out)
        assert blob["T^0"] == {"monomials": [{"symbols": [[2, 1]], "coeff": "-2/1"}]}

    def test_zst_text(self, capsys):
        code, out, _ = run(capsys, "zst", "[1,1]")
        assert code == 0
        assert out.strip() == "1/2*T^2 - 1/2*ζ(2)"


class TestNumericCommands:
    def test_zeta_positive(self, capsys):
        code, out, _ = run(capsys, "zeta", "3")
        assert code == 0
        assert out.startswith("1.2020569032 ±")

    def test_zeta_bound_past_float_range(self, capsys):
        code, out, _ = run(capsys, "zeta", "3", "--digits", "400")
        assert code == 0
        assert out.strip() == "1.2020569032 ± 1e-400"

    def test_zeta_nonpositive_exact(self, capsys):
        code, out, _ = run(capsys, "zeta", "--", "-1")
        assert code == 0
        assert out.strip() == "-1/12 (exact)"

    def test_zeta_one_rejected(self, capsys):
        code, _, _ = run(capsys, "zeta", "1")
        assert code == 1

    def test_li(self, capsys):
        code, out, _ = run(capsys, "li", "[1]", "0.5")
        assert code == 0
        assert out.startswith("0.69314718056 ±")

    def test_zdir(self, capsys):
        code, out, _ = run(capsys, "zdir", "[0 | 1]", "--", "-1.0")
        assert code == 0
        assert out.startswith("0.58197670687 ±")

    def test_zdir_below_undamped_prefix(self, capsys):
        code, out, _ = run(capsys, "zdir", "--tol", "1e-8", "[2,1,1 | 0,0,1]", "--", "-0.5")
        assert code == 0
        assert out.startswith("0.4360224948 ±")

    def test_zdir_reads_a_composition_as_a_zero_direction(self, capsys):
        code, out, _ = run(capsys, "zdir", "[2,1]", "--", "-0.5")
        assert code == 0 and out == "1.2020569032 ± 1e-08\n"
        assert run(capsys, "zdir", "[2,1 | 0,0]", "--", "-0.5") == (0, out, "")

    def test_rho_table(self, capsys):
        code, out, _ = run(capsys, "rho", "--order", "3")
        assert code == 0
        assert "gamma[2] = 0.82246703342" in out

    def test_beta_apply(self, capsys):
        code, out, _ = run(capsys, "beta", "--order", "2", "--apply", "0,0,0.5")
        assert code == 0
        assert "-0.822467" in out  # constant coefficient of beta(T^2/2)


class TestVerifyCommand:
    def test_small_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "euler", "series", "ranks")
        assert code == 0
        lines = [line for line in out.strip().split("\n") if line]
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) == 2 + 3 + 4

    def test_verify_all_contract(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-weight", "4", "--cases", "60")
        assert code == 0
        lines = [line for line in out.strip().split("\n") if line]
        assert lines and all(line.startswith("PASS") for line in lines)
        suites = {line.split()[1].rstrip(":") for line in lines}
        assert {"euler", "freeness", "structure", "isomorphism", "polylog",
                "series", "regularization", "corollary", "ranks"} <= suites

    def test_suites_keep_their_own_defaults(self, capsys, monkeypatch):
        # verify structure isomorphism prints structure_checks() + isomorphism_checks():
        # each suite runs once, called with no arguments, and its lines are printed
        calls = []

        def spy(suite):
            @functools.wraps(suite)  # run_suites reads the parameters through __wrapped__
            def called(**options):
                results = suite(**options)
                calls.append((options, results))
                return results
            return called

        for name in ("structure", "isomorphism"):
            monkeypatch.setitem(verification.SUITES, name, spy(verification.SUITES[name]))
        code, out, _ = run(capsys, "verify", "structure", "isomorphism")
        assert code == 0 and [options for options, _ in calls] == [{}, {}]
        assert out.splitlines() == [r.line() for _, results in calls for r in results]
        assert "(500 cases)" in calls[0][1][0].line() and "(200 cases)" in calls[1][1][-1].line()

    def test_given_sizes_reach_the_suites_that_take_them(self, capsys):
        code, out, _ = run(capsys, "verify", "isomorphism", "freeness", "--cases", "20", "--seed", "7",
                           "--max-degree", "3")
        want = (verification.isomorphism_checks(max_degree=3, cases=20, seed=7)
                + verification.graded_freeness_checks(max_degree=3))
        assert code == 0 and out.splitlines() == [r.line() for r in want]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 1 and "unknown suite" in err

    @pytest.mark.parametrize("argv, option", [
        (["structure", "--cases", "-3"], "cases"),
        (["structure", "--cases", "0"], "cases"),
        (["freeness", "--max-degree", "0"], "max_degree"),
        (["isomorphism", "--max-degree", "0"], "max_degree"),
        (["regularization", "--max-weight", "0"], "max_weight"),
    ])
    def test_empty_range_is_1(self, capsys, argv, option):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and out == ""
        assert f"{option} must be at least 1" in err and "PASS" not in err

    @pytest.mark.parametrize("argv, flag, suites", [
        (["ranks", "--max-weight", "9"], "--max-weight", "ranks"),
        (["series", "euler", "corollary", "--max-weight", "6"], "--max-weight", "series, euler, corollary"),
        (["ranks", "--seed", "3"], "--seed", "ranks"),
        (["ranks", "--tol", "1e-30"], "--tol", "ranks"),
        (["euler", "series", "--digits", "30"], "--digits", "euler, series"),
        (["structure", "--budget", "5000", "--cases", "5"], "--budget", "structure"),
    ])
    def test_size_no_chosen_suite_takes_is_1(self, capsys, argv, flag, suites):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {flag} is taken by none of the chosen suites: {suites}\n"

    @pytest.mark.parametrize("argv, want", [
        ([], PrecisionContext(digits=20, budget=200_000, tolerance=1e-4)),
        (["--tol", "1e-10"], PrecisionContext(digits=20, budget=200_000, tolerance=1e-10)),
        (["--digits", "30", "--budget", "50000"], PrecisionContext(digits=30, budget=50_000, tolerance=1e-4)),
    ])
    def test_numeric_flags_over_the_verify_defaults(self, capsys, monkeypatch, argv, want):
        # corollary gets the given flags over its own default: 20 digits, budget 200000, tol 1e-4
        seen = []
        corollary = verification.SUITES["corollary"]

        @functools.wraps(corollary)
        def spy(**options):
            seen.append(options["ctx"])
            return corollary(**options)

        monkeypatch.setitem(verification.SUITES, "corollary", spy)
        code, out, _ = run(capsys, "verify", "ranks", "corollary", *argv)
        assert code == 0 and seen == [want] and out.count("PASS") == 5

    def test_each_numeric_suite_keeps_its_own_context(self, monkeypatch):
        seen = {}

        def spy(name):
            suite = verification.SUITES[name]

            @functools.wraps(suite)
            def called(**options):
                seen[name] = options["ctx"]
                return suite(**options)
            return called

        for name in ("polylog", "regularization"):
            monkeypatch.setitem(verification.SUITES, name, spy(name))
        verification.run_suites(["polylog"])
        assert seen["polylog"] == PrecisionContext(digits=20, budget=100_000, tolerance=1e-10)
        verification.run_suites(["polylog", "regularization"], tol=1e-6)
        assert seen == {"polylog": PrecisionContext(digits=20, budget=100_000, tolerance=1e-6),
                        "regularization": PrecisionContext(digits=20, budget=200_000, tolerance=1e-6)}

    def test_size_one_chosen_suite_takes_reaches_it(self, capsys):
        code, out, _ = run(capsys, "verify", "regularization", "corollary", "--max-weight", "2")
        assert code == 0 and "(weight <= 2)" in out and out.count("PASS") == 4

    def test_weight_zero_polylog_still_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "polylog", "--max-weight", "0")
        assert code == 0 and out.count("PASS") == 2

    def test_negative_polylog_weight_is_1(self, capsys):
        code, out, err = run(capsys, "verify", "polylog", "--max-weight", "-1")
        assert code == 1 and out == ""
        assert "max_weight must be at least 0" in err and "PASS" not in err

    def test_failing_law_is_1_and_names_its_input(self, capsys, monkeypatch):
        shuffle = compositions.shuffle
        monkeypatch.setattr(compositions, "shuffle", lambda s, t: LinComb(list(shuffle(s, t).items())[1:]))
        code, out, err = run(capsys, "verify", "structure", "--cases", "5")
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert code == 1 and failed and err == f"{len(failed)} check(s) failed\n"
        assert ("FAIL structure: shuffle transport identity exhaustive to weight 7 (321 pairs)"
                " (first failing input: [1], [1])") in failed


def test_parser_is_built_once_at_import(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("parser rebuilt")

    # a cold request empties every cache of the module first, as the bench does
    for value in vars(cli).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    code, out, _ = run(capsys, "rank", "--weight", "3")
    assert code == 0 and out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "relations.csv"
    code = main(["eds", "--weight", "3", "--format", "csv", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert "3,[1];[2],[2,1],1/1" in text


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", [
    ["eval", "sh([1],[2])"], ["eds", "--weight", "4"], ["dsh", "--weight", "4"],
    ["zsh", "[1,2]"], ["zst", "[1,1,2]"], ["rank", "--weight", "5"],
])
def test_stdout_bytes_equal_out_file(tmp_path, capsysbinary, argv, fmt):
    argv = argv + ["--format", fmt]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    target = tmp_path / "data"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert stdout == target.read_bytes()
    assert stdout.endswith(b"\n") and not stdout.endswith(b"\n\n")


def test_python_m_mzvkit_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(mzvkit.__file__).resolve().parents[1])}
    module = [sys.executable, "-m", "mzvkit"]
    rank = subprocess.run(
        module + ["rank", "--weight", "5", "--format", "csv"], capture_output=True, text=True, env=env, timeout=60
    )
    assert rank.returncode == 0 and rank.stdout.splitlines()[1] == "5,6,2"
    zeta = subprocess.run(module + ["zeta", "1"], capture_output=True, text=True, env=env, timeout=60)
    assert zeta.returncode == 1 and zeta.stdout == "" and zeta.stderr.startswith("error:")
