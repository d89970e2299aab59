import copy
import hashlib
import importlib.util
import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from mzvkit import cli
from mzvkit import compositions as comp
from mzvkit import regularization as reg
from mzvkit.compositions import (
    Composition,
    convergent_compositions,
    ones,
    positive_compositions,
    shuffle,
    stuffle,
)
from mzvkit.core import DomainError, LinComb, TPoly, bilinear, matrix_rank
from mzvkit.numerics import PrecisionContext, PrecisionError, eval_reg_poly, zeta_pos
from mzvkit.regularization import (
    MZVSymbol,
    Relation,
    RhoMap,
    ZetaExpr,
    beta_apply,
    build_rho,
    corollary_check,
    double_shuffle_relations,
    extended_double_shuffle_relations,
    fraction_str,
    leading_ones_decomposition,
    _convergent_pairs,
    _relation_table,
    reg_poly_to_csv,
    reg_poly_to_json,
    relation_rank,
    relations_to_csv,
    relations_to_json,
    rho_apply,
    shuffle_regularize,
    stuffle_regularize,
)
from mzvkit.verification import regularization_checks
from mzvkit.words import Word

CTX = PrecisionContext(digits=20, budget=200_000, tolerance=1e-4)


def C(*entries):
    return Composition(tuple(entries))


def t_poly(**by_degree):
    return TPoly({int(k[1:]): v for k, v in by_degree.items()})


class TestZetaExpr:
    def test_symbol_requires_convergent(self):
        with pytest.raises(DomainError):
            MZVSymbol(C(1, 2))

    def test_equal_symbols_are_one_key(self):
        # the hash is the one the index stored; equality still compares indices
        s, t = MZVSymbol(C(2, 1)), MZVSymbol(Composition((2, 1)))
        copies = [pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)]
        for u in [t, *copies]:
            assert u == s and hash(u) == hash(s) == hash(s.index)
            assert {s: "found"}[u] == "found" and {u: "found"}[s] == "found"
            assert repr(u) == "MZVSymbol(index=Composition(entries=(2, 1)))"
        assert MZVSymbol(C(2, 1)) != MZVSymbol(C(3)) and MZVSymbol(C(3)) != C(3)

    def test_ring_ops(self):
        a = ZetaExpr.symbol(C(2))
        b = ZetaExpr.symbol(C(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a - a) == ZetaExpr()
        assert not (a - a)
        assert a * Fraction(2) == a + a
        assert str(a * b) == "ζ(2)*ζ(3)"

    def test_canonical_monomial_order(self):
        a = ZetaExpr.symbol(C(3)) * ZetaExpr.symbol(C(2))
        b = ZetaExpr.symbol(C(2)) * ZetaExpr.symbol(C(3))
        assert a == b

    def test_str_rows(self):
        z2, z21 = ZetaExpr.symbol(C(2)), ZetaExpr.symbol(C(2, 1))
        assert str(ZetaExpr()) == "0"
        assert str(z2 * z2 - z21.scale(Fraction(3, 2)) + ZetaExpr.scalar(Fraction(-1, 3))) == (
            "-1/3 - 3/2*ζ(2,1) + ζ(2)*ζ(2)"
        )
        assert str(-z2 - ZetaExpr.one()) == "-1 - ζ(2)"


class TestShuffleRegularization:
    def test_divergent_generator(self):
        assert shuffle_regularize(C(1)) == t_poly(d1=ZetaExpr.one())

    def test_double_one(self):
        assert shuffle_regularize(C(1, 1)) == t_poly(d2=ZetaExpr.scalar(Fraction(1, 2)))

    def test_one_two(self):
        got = shuffle_regularize(C(1, 2))
        want = t_poly(
            d1=ZetaExpr.symbol(C(2)),
            d0=ZetaExpr.symbol(C(2, 1)) * Fraction(-2),
        )
        assert got == want

    def test_convergent_is_degree_zero_symbol(self):
        for s in (C(2), C(3, 1), C(2, 1, 1)):
            assert shuffle_regularize(s) == TPoly.constant(ZetaExpr.symbol(s))
            assert stuffle_regularize(s) == TPoly.constant(ZetaExpr.symbol(s))

    def test_pure_ones_powers(self):
        for ell in range(1, 6):
            want = t_poly(**{f"d{ell}": ZetaExpr.scalar(Fraction(1, math.factorial(ell)))})
            assert shuffle_regularize(ones(ell)) == want

    def test_positivity_guard(self):
        with pytest.raises(DomainError):
            shuffle_regularize(C(0, 1))


class TestStuffleRegularization:
    def test_examples(self):
        assert stuffle_regularize(C(1)) == t_poly(d1=ZetaExpr.one())
        got = stuffle_regularize(C(1, 1))
        want = t_poly(
            d2=ZetaExpr.scalar(Fraction(1, 2)),
            d0=ZetaExpr.symbol(C(2)) * Fraction(-1, 2),
        )
        assert got == want
        got = stuffle_regularize(C(1, 2))
        want = t_poly(
            d1=ZetaExpr.symbol(C(2)),
            d0=-(ZetaExpr.symbol(C(2, 1)) + ZetaExpr.symbol(C(3))),
        )
        assert got == want

    def test_deep_input_terminates(self):
        poly = stuffle_regularize(C(1, 1, 1, 1, 2))
        assert poly.degree() == 4


# sha256 prefixes of `mzvkit zsh|zst <s> --format text|json|csv` on stdout,
# concatenated over every positive composition s of weight 1..8 in canonical
# order; recorded before the peeling summed its terms in one flat pass
REGULARIZE_DIGESTS = {
    ("zsh", "text"): "93a7d50678a3b6b6", ("zsh", "json"): "6e5f3b785f8e525b", ("zsh", "csv"): "786d0cbbc0557888",
    ("zst", "text"): "241de14f26d8bad9", ("zst", "json"): "9a55ca881b64aab8", ("zst", "csv"): "26d946287d819132",
}
POSITIVE_TO_8 = [s for w in range(1, 9) for s in positive_compositions(w)]


class TestRegularizedOutput:
    @pytest.mark.parametrize("command", ["zsh", "zst"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_bytes_unchanged(self, capsys, command, fmt):
        digest = hashlib.sha256()
        for s in POSITIVE_TO_8:
            assert cli.main([command, str(s), "--format", fmt]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest()[:16] == REGULARIZE_DIGESTS[command, fmt]

    @pytest.mark.parametrize("regularize", [shuffle_regularize, stuffle_regularize])
    def test_coefficients_are_int_below_two_leading_ones(self, regularize):
        # only the division by a leading-ones count of 2 or more makes a Fraction
        inputs = [s for s in POSITIVE_TO_8 if s.leading_ones() <= 1]
        # [1], then 2^(w-2) convergent and 2^(w-3) of the form [1, convergent] at weight w
        assert len(inputs) == 1 + 1 + sum(3 * 2 ** (w - 3) for w in range(3, 9))
        for s in inputs:
            for _, expr in regularize(s).items():
                assert all(type(c) is int for _, c in expr.monomials()), (s, expr)


class TestMultiplicativity:
    @pytest.mark.parametrize("regularize,product", [
        (shuffle_regularize, shuffle),
        (stuffle_regularize, stuffle),
    ])
    def test_numeric_homomorphism_to_weight_5(self, regularize, product):
        # weight-5 symbols with three undamped log levels need a deep cutoff;
        # per-symbol certification is 5e-4 and product coefficients carry a
        # mass up to ~10, so the identity is pinned at 5e-3
        ctx = PrecisionContext(digits=20, budget=1_200_000, tolerance=5e-4)
        worst = 0.0
        for w1 in range(1, 5):
            for w2 in range(1, 6 - w1):
                for s in positive_compositions(w1):
                    for t in positive_compositions(w2):
                        image = bilinear(product, LinComb.single(s), LinComb.single(t))
                        lhs = TPoly()
                        for term, coeff in image.items():
                            lhs = lhs + eval_reg_poly(regularize(term), ctx).scale(float(coeff))
                        rhs = eval_reg_poly(regularize(s), ctx) * eval_reg_poly(regularize(t), ctx)
                        diff = lhs - rhs
                        gap = max((abs(float(c)) for _, c in diff.items()), default=0.0)
                        worst = max(worst, gap)
        assert worst < 5e-3


class TestLeadingOnesDecomposition:
    def test_trivial(self):
        assert leading_ones_decomposition(0, C(2)) == [(1, 0, C(2))]

    def test_single_one(self):
        got = leading_ones_decomposition(1, C(2))
        assert set(got) == {(1, 1, C(2)), (-1, 0, C(2, 1)), (-1, 0, C(3))}

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    @pytest.mark.parametrize("tail", [(2,), (3,), (2, 1), (2, 2), (3, 1), (2, 1, 1), (4, 1)])
    def test_round_trip_oracle(self, ell, tail):
        s = C(*tail)
        target = LinComb.single(C(*((1,) * ell + tail)))
        recovered = LinComb()
        for coeff, i, rest in leading_ones_decomposition(ell, s):
            if i == 0:
                block = LinComb.single(rest)
            else:
                block = stuffle(ones(i), rest)
            recovered = recovered.combine(block, coeff)
        assert recovered == target

    def test_tails_convergent_and_coefficients_integer(self):
        for coeff, i, rest in leading_ones_decomposition(3, C(3, 1)):
            assert isinstance(coeff, int)
            assert rest.is_convergent
            assert i >= 0

    def test_guard(self):
        with pytest.raises(DomainError):
            leading_ones_decomposition(1, C(1, 2))


class TestRelations:
    def test_weight_2_empty(self):
        assert double_shuffle_relations(2) == []
        assert extended_double_shuffle_relations(2) == []

    def test_euler_weight_3(self):
        rels = extended_double_shuffle_relations(3)
        assert len(rels) == 1
        assert rels[0].terms == LinComb({C(2, 1): 1, C(3): -1})
        assert rels[0].source == (C(1), C(2))

    def test_euler_weight_4(self):
        rels = double_shuffle_relations(4)
        assert any(rel.terms == LinComb({C(3, 1): 4, C(4): -1}) for rel in rels)

    def test_weight_5_contains_two_three_pair(self):
        rels = double_shuffle_relations(5)
        assert any(rel.source == (C(2), C(3)) for rel in rels)
        expected = shuffle(C(2), C(3)) - stuffle(C(2), C(3))
        got = next(rel for rel in rels if rel.source == (C(2), C(3)))
        assert got.terms == expected

    def test_weight_4_extended_set(self):
        rels = extended_double_shuffle_relations(4)
        sources = {rel.source for rel in rels}
        assert (C(1), C(3)) in sources and (C(1), C(2, 1)) in sources

    def test_all_relations_homogeneous_and_convergent(self):
        for weight in range(2, 7):
            for rel in extended_double_shuffle_relations(weight):
                for term, _ in rel.terms.items():
                    assert term.weight == weight
                    assert term.is_convergent  # the divergent [1,...] terms cancel

    def test_deterministic_order(self):
        a = extended_double_shuffle_relations(5)
        b = extended_double_shuffle_relations(5)
        assert [rel.source for rel in a] == [rel.source for rel in b]

    def test_relation_validation(self):
        with pytest.raises(DomainError):
            Relation(LinComb(), 3, (C(1), C(2)))
        with pytest.raises(DomainError):
            Relation(LinComb({C(2): 1, C(2, 1): 1}), 3, (C(1), C(2)))
        with pytest.raises(DomainError, match=r"relation terms are compositions: Word\(letters=\(0, 1\)\)"):
            Relation(LinComb({C(2, 1): 1, Word((0, 1)): 1}), 3, (C(1), C(2)))

    @pytest.mark.parametrize("extra, bad", [(C(2), r"\[2\]"), (C(0, 6), r"\[0,6\]")])
    def test_table_checks_each_term(self, monkeypatch, extra, bad):
        # the table checks each distinct term once, not through Relation(...)
        def stuffle_with_extra(s, t):
            return stuffle(s, t) + LinComb({extra: 1})

        monkeypatch.setattr(reg, "stuffle", stuffle_with_extra)
        _relation_table.cache_clear()
        try:
            with pytest.raises(DomainError, match=f"relation not weight-6 homogeneous: {bad}"):
                _relation_table(6)
        finally:
            _relation_table.cache_clear()


class TestRelationTable:
    def test_returned_list_is_fresh(self):
        first = extended_double_shuffle_relations(5)
        first.append(first[0])
        dsh = double_shuffle_relations(5)
        dsh.clear()
        assert len(extended_double_shuffle_relations(5)) == len(first) - 1
        assert double_shuffle_relations(5)

    @pytest.mark.parametrize("weight", range(2, 9))
    def test_double_shuffle_is_prefix(self, weight):
        dsh = double_shuffle_relations(weight)
        eds = extended_double_shuffle_relations(weight)
        assert eds[:len(dsh)] == dsh
        assert all(rel.source[0] == C(1) for rel in eds[len(dsh):])
        assert not any(rel.source[0] == C(1) for rel in dsh)

    def test_rebuilt_after_cache_clear(self):
        before = extended_double_shuffle_relations(7)
        split = len(double_shuffle_relations(7))
        _relation_table.cache_clear()
        after = extended_double_shuffle_relations(7)
        assert after == before and after[0] is not before[0]
        assert len(double_shuffle_relations(7)) == split

    def test_weight_below_2_not_cached(self):
        for fn in (double_shuffle_relations, extended_double_shuffle_relations):
            with pytest.raises(DomainError):
                fn(1)


class TestRelationRank:
    def test_weight_2(self):
        assert relation_rank(2) == (0, 1)

    def test_weight_4(self):
        rank, bound = relation_rank(4)
        assert bound == 1

    def test_weight_5(self):
        rank, bound = relation_rank(5)
        assert bound == 2

    def test_weights_6_7(self):
        # known graded dimension bounds from the double shuffle sieve
        assert relation_rank(6)[1] == 2
        assert relation_rank(7)[1] == 3

    @pytest.mark.parametrize("weight, expected", [
        (2, (0, 1)), (3, (1, 1)), (4, (3, 1)), (5, (6, 2)), (6, (14, 2)),
        (7, (29, 3)), (8, (60, 4)), (9, (123, 5)), (10, (249, 7)),
    ])
    def test_pinned_rank_and_bound(self, weight, expected):
        assert relation_rank(weight) == expected

    def test_weight_11(self):
        # d_11 = 9, the dimension Zagier conjectured
        assert relation_rank(11) == (503, 9)


class TestDepthOrder:
    # relation_rank orders its matrix by depth; these are the facts that make
    # the order block triangular, and the check that it leaves the rank alone

    @pytest.mark.parametrize("weight", range(4, 11))
    def test_shuffle_keeps_depth_and_stuffle_never_raises_it(self, weight):
        for u, v in _convergent_pairs(weight):
            assert {s.depth for s, _ in shuffle(u, v).items()} == {u.depth + v.depth}
            assert max(s.depth for s, _ in stuffle(u, v).items()) == u.depth + v.depth

    @pytest.mark.parametrize("weight", range(2, 11))
    def test_no_relation_term_deeper_than_its_source(self, weight):
        for rel in extended_double_shuffle_relations(weight):
            u, v = rel.source
            assert max(s.depth for s, _ in rel.terms.items()) <= u.depth + v.depth

    @pytest.mark.parametrize("weight", range(2, 11))
    def test_rank_equals_rank_in_canonical_order(self, weight):
        basis = convergent_compositions(weight)
        rows = [
            [rel.terms.coeff(s) for s in basis]
            for rel in extended_double_shuffle_relations(weight)
        ]
        expected = matrix_rank(rows) if rows else 0
        assert relation_rank(weight) == (expected, len(basis) - expected)

    @pytest.mark.parametrize("weight", range(2, 12))
    def test_relation_terms_stay_in_the_convergent_span(self, weight):
        # relation_rank indexes every term by the convergent basis and checks nothing
        basis = {s.entries for s in convergent_compositions(weight)}
        for rel in extended_double_shuffle_relations(weight):
            assert {s.entries for s in rel.terms.support()} <= basis, rel


# sha256 prefixes of `mzvkit eds --weight w --format csv|json|text` on stdout;
# csv and json recorded before the products of a relation table shared their
# work, text before one renderer wrote every sparse sum
EDS_DIGESTS = {
    (2, "csv"): "7574108bd8ceb43b", (2, "json"): "37517e5f3dc66819", (2, "text"): "c8a8b8273d2f5d87",
    (3, "csv"): "7c431ee061b0dc23", (3, "json"): "84acd6f21805d163", (3, "text"): "7516651c55d7eb4b",
    (4, "csv"): "54206bc0cc1c3c14", (4, "json"): "72afa0936aa954f6", (4, "text"): "d1cc40989071f101",
    (5, "csv"): "d4e6267064e784a3", (5, "json"): "ab0e2a3cb38251c5", (5, "text"): "bf0ba3f441ce7709",
    (6, "csv"): "d635c98a833fd2a8", (6, "json"): "85fda1dedff929b8", (6, "text"): "6e5bdfb84be3ed27",
    (7, "csv"): "2e29e97e78b428d9", (7, "json"): "7b20732d30bbfe0d", (7, "text"): "0e014a0165bca177",
    (8, "csv"): "7c6181b05548da9b", (8, "json"): "c31f442815a0e18a", (8, "text"): "eced0e26068e179a",
    (9, "csv"): "8128dfaa5e0c41c6", (9, "json"): "562f822f2f75f5cb", (9, "text"): "9bed31a3915b0239",
    (10, "csv"): "7ee147166005fa88", (10, "json"): "0cb37afd1c1e9daf", (10, "text"): "8094bb77215881ca",
}


class TestSharedTable:
    # _relation_table builds one table per weight, from the same shuffle and
    # stuffle products as any other caller, and caches it

    @pytest.mark.parametrize("weight", range(2, 11))
    def test_table_matches_products_built_outside_a_block(self, weight):
        table = extended_double_shuffle_relations(weight)
        comp._shuffle_entries.cache_clear()
        comp._stuffle_entries.cache_clear()
        pairs = list(_convergent_pairs(weight)) + [(C(1), s) for s in convergent_compositions(weight - 1)]
        rebuilt = [((u, v), diff) for u, v in pairs if (diff := shuffle(u, v) - stuffle(u, v))]
        assert [rel.source for rel in table] == [source for source, _ in rebuilt]
        assert [list(rel.terms.items()) for rel in table] == [list(diff.items()) for _, diff in rebuilt]

    @pytest.mark.parametrize("weight", [7, 8])
    def test_relations_survive_evicted_terms(self, weight):
        # the terms are interned in bounded caches: emptying them between the
        # two products costs time only
        interning = (comp._composition, comp._from_exponents)
        for rel in extended_double_shuffle_relations(weight):
            u, v = rel.source
            for cache in (comp._shuffle_entries, comp._stuffle_entries, *interning):
                cache.cache_clear()
            shuffled = shuffle(u, v)
            for cache in interning:
                cache.cache_clear()
            assert list((shuffled - stuffle(u, v)).items()) == list(rel.terms.items())

    @pytest.mark.parametrize("weight", range(2, 11))
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_eds_bytes_unchanged(self, capsys, weight, fmt):
        _relation_table.cache_clear()
        assert cli.main(["eds", "--weight", str(weight), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == EDS_DIGESTS[weight, fmt]


class TestRhoMap:
    def test_gamma_values(self):
        rho = build_rho(4, CTX)
        z2 = float(zeta_pos(2, CTX))
        z3 = float(zeta_pos(3, CTX))
        assert float(rho.gamma[0]) == 1.0
        assert float(rho.gamma[1]) == 0.0
        assert float(rho.gamma[2]) == pytest.approx(z2 / 2, abs=1e-15)
        assert float(rho.gamma[2]) == pytest.approx(0.8224670334, abs=1e-9)
        assert float(rho.gamma[3]) == pytest.approx(-z3 / 3, abs=1e-15)
        assert float(rho.gamma[3]) == pytest.approx(-0.4006856344, abs=1e-9)

    def test_invariants(self):
        rho = build_rho(6, CTX)
        assert float(rho.delta[0]) == 1.0 and float(rho.delta[1]) == 0.0
        for k in range(1, 7):
            conv = sum(float(rho.gamma[i] * rho.delta[k - i]) for i in range(k + 1))
            assert conv == pytest.approx(0.0, abs=1e-17)

    def test_rho_fixes_low_degrees(self):
        rho = build_rho(4, CTX)
        assert rho_apply(TPoly({0: 1.0}), rho) == TPoly({0: 1.0})
        one_t = rho_apply(TPoly({1: 1.0}), rho)
        assert float(one_t.coeff(1, 0.0)) == 1.0 and not one_t.coeff(0, 0.0)

    def test_rho_on_half_t_squared(self):
        rho = build_rho(4, CTX)
        got = rho_apply(TPoly({2: 0.5}), rho)
        assert float(got.coeff(2, 0.0)) == 0.5
        assert float(got.coeff(0, 0.0)) == pytest.approx(float(zeta_pos(2, CTX)) / 2, abs=1e-15)

    def test_beta_matches_stuffle_reduction(self):
        rho = build_rho(4, CTX)
        got = beta_apply(TPoly({2: 0.5}), rho)
        numeric = eval_reg_poly(stuffle_regularize(C(1, 1)), CTX)
        diff = got - numeric
        assert max((abs(float(c)) for _, c in diff.items()), default=0.0) < 1e-12

    def test_beta_inverts_rho(self):
        rho = build_rho(5, CTX)
        poly = TPoly({0: 0.3, 1: -1.0, 3: 2.0, 5: 0.25})
        round_trip = beta_apply(rho_apply(poly, rho), rho)
        diff = round_trip - poly
        assert max((abs(float(c)) for _, c in diff.items()), default=0.0) < 1e-14

    def test_degree_overflow(self):
        rho = build_rho(2, CTX)
        with pytest.raises(DomainError):
            rho_apply(TPoly({3: 1.0}), rho)


def reference_rho(order: int, ctx: PrecisionContext) -> tuple:
    """gamma and delta by the recurrence of ``build_rho``, with no table cache."""
    zero = zeta_pos(2, ctx) * 0
    series = [zero] * (order + 1)
    for n in range(2, order + 1):
        series[n] = (-1) ** n * zeta_pos(n, ctx) / n
    gamma, delta = [zero + 1], [zero + 1]
    for m in range(1, order + 1):
        acc = zero
        for j in range(1, m + 1):
            acc += j * series[j] * gamma[m - j]
        gamma.append(acc / m)
    for m in range(1, order + 1):
        acc = zero
        for j in range(1, m + 1):
            acc -= gamma[j] * delta[m - j]
        delta.append(acc)
    return tuple(gamma), tuple(delta)


def bits_of(values) -> list:
    return [v._mpf_ for v in values]


class TestRhoCache:
    @pytest.mark.parametrize("digits", [20, 50])
    @pytest.mark.parametrize("order", range(9))
    def test_tables_equal_the_uncached_recurrence_bit_for_bit(self, order, digits):
        ctx = PrecisionContext(digits=digits, budget=200_000, tolerance=1e-4)
        reg._rho_cached.cache_clear()
        gamma, delta = reference_rho(order, ctx)
        for rho in (build_rho(order, ctx), build_rho(order, ctx)):  # built, then looked up
            assert bits_of(rho.gamma) == bits_of(gamma) and bits_of(rho.delta) == bits_of(delta)

    def test_one_entry_per_order_across_tolerances(self):
        # at 20 digits both tolerances run at the 75 bits of the digits
        reg._rho_cached.cache_clear()
        for order in range(9):
            loose, tight = (build_rho(order, PrecisionContext(digits=20, budget=200_000, tolerance=tol))
                            for tol in (1e-3, 1e-4))
            assert loose is tight
        info = reg._rho_cached.cache_info()
        assert info.currsize == 9 and info.misses == 9 and info.maxsize is not None

    def test_budget_checked_past_a_cached_table(self):
        build_rho(6, PrecisionContext(digits=1000, budget=200_000, tolerance=1e-3))
        with pytest.raises(PrecisionError, match=r"zeta\(6,\) needs \d+ terms, over budget 1000"):
            build_rho(6, PrecisionContext(digits=1000, budget=1_000, tolerance=1e-3))

    def test_low_orders_check_the_budget_of_zeta_2(self):
        # orders 0 and 1 read zeta(2) for the zero of the tables
        for order in (0, 1):
            with pytest.raises(PrecisionError, match=r"zeta\(2,\)"):
                build_rho(order, PrecisionContext(digits=1000, budget=1_000, tolerance=1e-3))

    def test_negative_order(self):
        reg._rho_cached.cache_clear()
        with pytest.raises(DomainError, match="order must be >= 0"):
            build_rho(-1, CTX)
        assert reg._rho_cached.cache_info().misses == 0

    def test_emptied_with_the_package_caches(self):
        # the benchmark empties every cache it finds at module level before a pass
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        build_rho(5, CTX)
        assert vars(reg)["_rho_cached"].cache_info().currsize > 0
        spans.clear_package_caches()
        assert reg._rho_cached.cache_info().currsize == 0


class TestCorollary:
    def test_low_orders_tight(self):
        assert corollary_check(1, CTX) < 1e-15
        assert corollary_check(2, CTX) < 1e-12

    def test_order_4(self):
        assert corollary_check(4, CTX) < 1e-3


class TestExchangeDiagram:
    def test_weight_6_at_1e_10(self):
        ctx = PrecisionContext(digits=20, budget=200_000, tolerance=1e-10)
        results = regularization_checks(ctx=ctx, max_weight=6, exact_tol=1e-10, mzv_tol=1e-10)
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def _reference_relations_csv(relations):
    # the loop the export used before the composition strings were memoised
    lines = ["weight,source_pair,term_composition,coefficient"]
    for rel in relations:
        pair = f"{rel.source[0]};{rel.source[1]}"
        for term, coeff in rel.terms.sorted_items():
            lines.append(f"{rel.weight},{pair},{term},{fraction_str(coeff)}")
    return "\n".join(lines) + "\n"


def _reference_relations_json(relations):
    data = [
        {
            "weight": rel.weight,
            "source_pair": [list(rel.source[0].entries), list(rel.source[1].entries)],
            "terms": [
                {"composition": list(term.entries), "coeff": fraction_str(coeff)}
                for term, coeff in rel.terms.sorted_items()
            ],
        }
        for rel in relations
    ]
    return json.dumps(data, indent=2)


def _reference_reg_poly_json(p):
    data = {
        f"T^{deg}": {
            "monomials": [
                {"symbols": [list(sym.index.entries) for sym in mono], "coeff": fraction_str(coeff)}
                for mono, coeff in expr.sorted_items()
            ]
        }
        for deg, expr in sorted(p.items())
    }
    return json.dumps(data, indent=2)


def _assert_same_text(got, want):
    # report the first difference; pytest's own diff of two 300 kB texts takes minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 40, 0)
        pytest.fail(f"texts differ at offset {at}: {got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


class TestExportReference:
    @pytest.mark.parametrize("weight", range(2, 11))
    @pytest.mark.parametrize("generate", [double_shuffle_relations, extended_double_shuffle_relations])
    def test_relations(self, generate, weight):
        rels = generate(weight)
        _assert_same_text(relations_to_csv(rels), _reference_relations_csv(rels))
        _assert_same_text(relations_to_json(rels), _reference_relations_json(rels))

    def test_relations_edge_cases(self):
        assert relations_to_json([]) == json.dumps([], indent=2)
        hand_built = Relation(LinComb({C(3): Fraction(-5, 2), C(2, 1): 3}), 3, (C(1), C(2)))
        assert relations_to_json([hand_built]) == _reference_relations_json([hand_built])
        rels = [hand_built] + extended_double_shuffle_relations(4)
        assert relations_to_json(rels) == _reference_relations_json(rels)

    @pytest.mark.parametrize("regularize", [shuffle_regularize, stuffle_regularize])
    def test_reg_poly(self, regularize):
        for weight in range(1, 7):
            for s in positive_compositions(weight):
                p = regularize(s)
                assert reg_poly_to_json(p) == _reference_reg_poly_json(p), s


class TestExports:
    def test_relation_csv(self):
        rels = extended_double_shuffle_relations(3)
        text = relations_to_csv(rels)
        lines = text.strip().split("\n")
        assert lines[0] == "weight,source_pair,term_composition,coefficient"
        assert "3,[1];[2],[3],-1/1" in lines
        assert "3,[1];[2],[2,1],1/1" in lines

    def test_reg_poly_json_schema(self):
        blob = json.loads(reg_poly_to_json(shuffle_regularize(C(1, 2))))
        assert blob["T^1"] == {"monomials": [{"symbols": [[2]], "coeff": "1/1"}]}
        assert blob["T^0"] == {"monomials": [{"symbols": [[2, 1]], "coeff": "-2/1"}]}

    def test_reg_poly_csv(self):
        assert reg_poly_to_csv(stuffle_regularize(C(1, 1))) == (
            't_degree,monomial,coefficient\n0,"ζ(2)",-1/2\n2,"1",1/2\n'
        )

    def test_reg_poly_str(self):
        assert str(shuffle_regularize(C(1, 2))) == "ζ(2)*T - 2*ζ(2,1)"
        assert str(shuffle_regularize(C(1))) == "T"
        assert str(stuffle_regularize(C(1, 1))) == "1/2*T^2 - 1/2*ζ(2)"

    def test_reg_poly_str_parenthesises_a_compound_coefficient(self):
        assert str(stuffle_regularize(C(1, 1, 2))) == (
            "1/2*ζ(2)*T^2 + (-ζ(3) - ζ(2,1))*T + 1/2*ζ(4) + ζ(3,1) + ζ(2,1,1)"
        )

    def test_fraction_str(self):
        assert fraction_str(Fraction(-2)) == "-2/1"
        assert fraction_str(Fraction(1, 3)) == "1/3"
