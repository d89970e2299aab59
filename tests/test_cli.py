import json

import pytest

from mzvkit.cli import main


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

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 1 and "unknown suite" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "relations.csv"
    code = main(["eds", "--weight", "3", "--format", "csv", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert "3,[1];[2],[2,1],1/1" in text
