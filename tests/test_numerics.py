import dataclasses
import importlib.util
import math
import pickle
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import mzvkit
from mzvkit import compositions, numerics, regularization
from mzvkit.compositions import (
    BiComposition,
    Composition,
    _trusted_composition,
    convergent_compositions,
    ones,
    shuffle,
    stuffle,
)
from mzvkit.core import DomainError, TPoly
from mzvkit.numerics import (
    _zeta_pos_cached,
    DivergenceError,
    LaurentPoly,
    PrecisionContext,
    PrecisionError,
    bernoulli,
    eval_reg_poly,
    eval_zeta_expr,
    format_value,
    geometric_kernel,
    geometric_kernel_check,
    li_eval,
    mzv_eval,
    pole_part,
    polylog_derivative_check,
    z_directional,
    zeta_nonpos,
    zeta_pos,
)
from mzvkit.regularization import build_rho, shuffle_regularize, stuffle_regularize

CTX = PrecisionContext(digits=20, budget=200_000, tolerance=1e-3)
TIGHT = PrecisionContext(digits=20, budget=200_000, tolerance=1e-10)


def C(*entries):
    return Composition(tuple(entries))


class TestPrecisionContext:
    def test_invariants(self):
        with pytest.raises(DomainError):
            PrecisionContext(digits=10)
        with pytest.raises(DomainError):
            PrecisionContext(budget=10)
        with pytest.raises(DomainError):
            PrecisionContext(tolerance=0.0)

    def test_tolerance_must_be_finite(self):
        with pytest.raises(DomainError):
            PrecisionContext(tolerance=float("inf"))

    def test_hash_kept_in_a_slot(self):
        ctx = PrecisionContext(digits=30, budget=5_000, tolerance=1e-9)
        twin = PrecisionContext(digits=30, budget=5_000, tolerance=1e-9)
        assert ctx is not twin and ctx == twin and hash(ctx) == hash(twin)
        assert hash(ctx) == hash((30, 5_000, 1e-9))
        for copy in (dataclasses.replace(ctx), pickle.loads(pickle.dumps(ctx))):
            assert copy == ctx and hash(copy) == hash(ctx)
        moved = dataclasses.replace(ctx, digits=40)
        assert hash(moved) == hash(PrecisionContext(digits=40, budget=5_000, tolerance=1e-9))
        assert repr(ctx) == "PrecisionContext(digits=30, budget=5000, tolerance=1e-09)"

    @pytest.mark.parametrize("digits, tol", [(15, 1e-3), (20, 1e-8), (30, 1e-40), (1000, 1e-15), (50, 2.0**-400)])
    def test_zeta_bits_kept_in_a_slot(self, digits, tol):
        # computed once at construction, and again by replace and unpickling
        want = max(math.ceil(-math.log2(tol)), math.ceil((digits + 2) * math.log2(10)) + 1)
        ctx = PrecisionContext(digits=digits, budget=200_000, tolerance=tol)
        assert ctx._bits == want and 2.0**-want <= tol and want >= (digits + 2) * math.log2(10)
        assert pickle.loads(pickle.dumps(ctx))._bits == want
        assert dataclasses.replace(ctx, budget=1_000)._bits == want
        assert dataclasses.replace(ctx, tolerance=1e-300)._bits == max(want, 997)  # 2^-997 <= 1e-300
        assert "_bits" not in repr(ctx) and ctx == dataclasses.replace(ctx)


class TestZetaPos:
    def test_against_closed_forms(self):
        mp = mpmath.mp.clone()
        mp.dps = 30
        pi = mp.pi
        assert abs(zeta_pos(2, CTX) - pi**2 / 6) < 1e-19
        assert abs(zeta_pos(4, CTX) - pi**4 / 90) < 1e-19

    def test_large_argument_near_one(self):
        assert 0 < float(zeta_pos(20, CTX)) - 1 < 1e-6

    def test_guard(self):
        with pytest.raises(DomainError):
            zeta_pos(1, CTX)

    def test_hundred_digits(self):
        ctx = PrecisionContext(digits=100, budget=200_000, tolerance=1e-15)
        with mpmath.workdps(130):
            for n in range(2, 13):
                assert abs(zeta_pos(n, ctx) - mpmath.zeta(n)) < mpmath.mpf(10) ** -100, n

    def test_more_digits(self):
        wide = PrecisionContext(digits=40, budget=200_000, tolerance=1e-3)
        mp = mpmath.mp.clone()
        mp.dps = 60
        assert abs(zeta_pos(3, wide) - mp.zeta(3)) < mpmath.mpf(10) ** -40

    def test_three_hundred_digits(self):
        ctx = PrecisionContext(digits=300, budget=200_000, tolerance=1e-15)
        with mpmath.workdps(330):
            for n in range(2, 13):
                assert abs(zeta_pos(n, ctx) - mpmath.zeta(n)) < mpmath.mpf(10) ** -300, n

    def test_budget_caps_the_series(self):
        # 1000 digits run at 3330 bits, 1334 Borwein terms
        with pytest.raises(PrecisionError):
            zeta_pos(3, PrecisionContext(digits=1000, budget=1_000, tolerance=1e-3))

    def test_cache_keyed_on_bits_not_tolerance(self):
        # at 20 digits every tolerance above 2^-75 (about 2.6e-23) runs at 75 bits
        _zeta_pos_cached.cache_clear()
        values = {zeta_pos(3, PrecisionContext(digits=20, budget=200_000, tolerance=10 ** (-3 - 17 * i / 499)))
                  for i in range(500)}
        assert [(v.man, v.exp) for v in values] == [(90824851679727215720215, -76)]
        info = _zeta_pos_cached.cache_info()
        assert info.currsize == 1 and info.maxsize is not None
        with mpmath.workprec(75 + 64):
            assert abs(values.pop() - mpmath.zeta(3)) < mpmath.mpf(2) ** -75

    def test_budget_checked_past_a_cached_value(self):
        zeta_pos(3, PrecisionContext(digits=1000, budget=200_000, tolerance=1e-3))
        with pytest.raises(PrecisionError, match="over budget 1000"):
            zeta_pos(3, PrecisionContext(digits=1000, budget=1_000, tolerance=1e-3))

    def test_evicted_mp_context_changes_no_value(self):
        # an evicted context is rebuilt at the same precision; a table built
        # from values of the old context, or wholly anew, is the same bits
        ctx = PrecisionContext(digits=50, budget=200_000, tolerance=1e-3)
        first = [zeta_pos(n, ctx) for n in range(2, 9)], build_rho(8, ctx)
        for caches in ((numerics._mp, regularization._rho_cached),
                       (numerics._mp, regularization._rho_cached, _zeta_pos_cached)):
            for cache in caches:
                cache.cache_clear()
            again = [zeta_pos(n, ctx) for n in range(2, 9)], build_rho(8, ctx)
            assert [v._mpf_ for v in again[0]] == [v._mpf_ for v in first[0]]
            assert ([v._mpf_ for v in again[1].gamma + again[1].delta]
                    == [v._mpf_ for v in first[1].gamma + first[1].delta])


def _bits_of_contexts():
    contexts = [PrecisionContext(digits=d) for d in (15, 20, 50, 100, 300, 1000)]
    contexts += [PrecisionContext(tolerance=10.0**-e) for e in (20, 23, 25, 27, 30)]
    return sorted({numerics._zeta_bits(2, ctx) for ctx in contexts})


class TestBorwein:
    @pytest.mark.parametrize("bits", _bits_of_contexts())
    def test_within_two_to_the_minus_bits(self, bits):
        with mpmath.workprec(bits + 64):
            for n in range(2, 61):
                fixed, scale = numerics._borwein(n, bits)
                assert abs(mpmath.ldexp(fixed, -scale) - mpmath.zeta(n)) < mpmath.ldexp(1, -bits), n

    def test_budget_edge_is_the_term_count(self):
        ctx = PrecisionContext(digits=1000, budget=200_000)
        terms = numerics._borwein_terms(numerics._zeta_bits(3, ctx))
        assert terms == 1334
        numerics._zeta_bits(3, dataclasses.replace(ctx, budget=terms))
        with pytest.raises(PrecisionError, match=f"zeta\\(3,\\) needs {terms} terms, over budget {terms - 1}"):
            numerics._zeta_bits(3, dataclasses.replace(ctx, budget=terms - 1))

    def test_thousand_digits(self):
        ctx = PrecisionContext(digits=1000, budget=200_000, tolerance=1e-15)
        with mpmath.workdps(1030):
            for n in (2, 3, 12, 31):
                assert abs(zeta_pos(n, ctx) - mpmath.zeta(n)) < mpmath.mpf(10) ** -1002, n


class TestZetaNonpos:
    def test_values(self):
        assert zeta_nonpos(0) == Fraction(-1, 2)
        assert zeta_nonpos(1) == Fraction(-1, 12)
        assert zeta_nonpos(2) == 0
        assert zeta_nonpos(3) == Fraction(1, 120)

    def test_bernoulli_convention(self):
        assert bernoulli(1) == Fraction(1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(3) == 0

    def test_bernoulli_matches_mpmath(self):
        # mpmath takes B(1) = -1/2, the package +1/2
        with mpmath.workdps(60):
            for n in range(61):
                b = bernoulli(n) * (-1 if n == 1 else 1)
                assert b == Fraction(*mpmath.bernfrac(n)), n
                assert mpmath.almosteq(mpmath.mpf(b.numerator) / b.denominator,
                                       mpmath.bernoulli(n), rel_eps=mpmath.mpf(10) ** -55), n


class TestPolylog:
    def test_geometric_case(self):
        assert li_eval(C(0), 0.5, TIGHT) == pytest.approx(1.0, abs=1e-12)

    def test_log_case(self):
        assert li_eval(C(1), 0.5, TIGHT) == pytest.approx(math.log(2), abs=1e-12)

    def test_depth_two_shuffle_square(self):
        z = 0.4
        single = li_eval(C(1), z, TIGHT)
        double = li_eval(C(1, 1), z, TIGHT)
        assert abs(double - single**2 / 2) < 1e-9
        assert double == pytest.approx(math.log(1 - z) ** 2 / 2, abs=1e-9)

    def test_negative_argument(self):
        # Li_[1](z) = -ln(1-z) also for z < 0
        assert li_eval(C(1), -0.5, TIGHT) == pytest.approx(-math.log(1.5), abs=1e-12)

    def test_zero_entry_tail(self):
        # Li_[1,0](z) = sum z^n (n-1)/n = z/(1-z) + ln(1-z)
        z = 0.5
        want = z / (1 - z) + math.log(1 - z)
        assert li_eval(C(1, 0), z, TIGHT) == pytest.approx(want, abs=1e-11)

    def test_zero(self):
        assert li_eval(C(2, 1), 0.0, TIGHT) == 0.0

    def test_guards(self):
        with pytest.raises(DomainError):
            li_eval(C(1), 1.0, TIGHT)
        with pytest.raises(DomainError):
            li_eval(C(1), -1.5, TIGHT)

    def test_against_mpmath_at_a_loose_tolerance(self):
        # the tolerance does not stop the sum: the series runs to the float64 floor
        with mpmath.workdps(40):
            for z in (0.9, -0.9, 0.99):
                for k in range(5):
                    truth = mpmath.polylog(k, mpmath.mpf(z))
                    assert abs(li_eval(C(k), z, CTX) - truth) < 1e-14 * max(1, abs(truth)), (k, z)
                truth = mpmath.log(1 - mpmath.mpf(z)) ** 2 / 2
                assert abs(li_eval(C(1, 1), z, CTX) - truth) < 1e-14 * max(1, truth), z

    def test_precision_failure_near_one(self):
        cramped = PrecisionContext(digits=20, budget=1_000, tolerance=1e-12)
        with pytest.raises(PrecisionError):
            li_eval(C(1), 0.99999, cramped)

    @pytest.mark.parametrize("tol", [1e-30, 1e-16])
    def test_tolerance_below_float_rounding(self, tol):
        # Li_1(0.9) = 2.30...: its float64 rounding alone may cost 2^-53 of it, about 2.6e-16
        with pytest.raises(PrecisionError):
            li_eval(C(1), 0.9, PrecisionContext(digits=20, budget=200_000, tolerance=tol))
        assert li_eval(C(1), 0.9, PrecisionContext(digits=20, budget=200_000, tolerance=1e-15)) \
            == pytest.approx(math.log(10), abs=1e-15)


class TestMzv:
    def test_euler_depth_two(self):
        value, error = mzv_eval(C(2, 1), CTX)
        assert abs(value - float(zeta_pos(3, CTX))) <= error
        assert error < 1e-3

    def test_four_vs_three_one(self):
        value, error = mzv_eval(C(3, 1), CTX)
        assert abs(value - float(zeta_pos(4, CTX)) / 4) <= error

    def test_depth_one_consistency(self):
        value, error = mzv_eval(C(4), CTX)
        assert abs(value - float(zeta_pos(4, CTX))) <= max(error, 1e-12)

    def test_error_bars_honest_across_budgets(self):
        loose = PrecisionContext(digits=20, budget=4_096, tolerance=1e-2)
        tight = PrecisionContext(digits=20, budget=400_000, tolerance=1e-5)
        reference = float(zeta_pos(3, CTX))
        for ctx in (loose, CTX, tight):
            value, error = mzv_eval(C(2, 1), ctx)
            assert abs(value - reference) <= error
        v1, e1 = mzv_eval(C(2, 1), loose)
        v2, e2 = mzv_eval(C(2, 1), tight)
        assert abs(v1 - v2) <= e1 + e2

    def test_guard(self):
        with pytest.raises(DomainError):
            mzv_eval(C(1, 2), CTX)

    def test_unreachable_tolerance(self):
        cramped = PrecisionContext(digits=20, budget=1_000, tolerance=1e-16)
        with pytest.raises(PrecisionError):
            mzv_eval(C(2, 1, 1), cramped)

    def test_budget_does_not_limit(self):
        cramped = PrecisionContext(digits=20, budget=1_000, tolerance=1e-9)
        value, error = mzv_eval(C(2, 1, 1), cramped)
        assert abs(mpmath.mpf(value) - zeta_pos(4, CTX)) <= error

    def test_closed_forms_within_error(self):
        with mpmath.workdps(40):
            cases = {(2, 1): mpmath.zeta(3), (3, 1): mpmath.pi**4 / 360}
            cases |= {(2,) * n: mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1) for n in range(1, 5)}
            for entries, truth in cases.items():
                value, error = mzv_eval(C(*entries), TIGHT)
                assert error <= 1e-12, entries
                assert abs(mpmath.mpf(value) - truth) <= error, entries

    def test_double_shuffle_to_joint_weight_8(self):
        indices = [s for w in range(2, 7) for s in convergent_compositions(w)]
        pairs = [(s, t) for s in indices for t in indices if s.weight + t.weight <= 8]
        assert len(pairs) == 129
        for s, t in pairs:
            (vs, es), (vt, et) = mzv_eval(s, TIGHT), mzv_eval(t, TIGHT)
            product_error = vs * et + vt * es + es * et
            for product in (shuffle, stuffle):
                terms = [(float(c), mzv_eval(u, TIGHT)) for u, c in product(s, t).items()]
                total = math.fsum(c * value for c, (value, _) in terms)
                bound = product_error + math.fsum(abs(c) * error for c, (_, error) in terms)
                assert abs(total - vs * vt) <= bound, (s, t, product.__name__)

    def test_leaves_numpy_out(self):
        code = (
            "import sys\n"
            "from mzvkit.compositions import BiComposition, Composition\n"
            "from mzvkit.numerics import li_eval, mzv_eval, z_directional, zeta_pos\n"
            "mzv_eval(Composition((3, 1, 2)))\n"
            "li_eval(Composition((2, 0, 1)), -0.6)\n"
            "zeta_pos(7)\n"
            "z_directional(BiComposition.make([-1, 2], [1, 0]), -0.5)\n"
            "z_directional(BiComposition.make([2, 1], [0, 0]), -0.5)\n"
            "z_directional(BiComposition.make([2, 1], [0, 1]), -0.5)\n"
            "sys.exit('numpy' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestDirectional:
    def test_geometric_kernel_value(self):
        got = z_directional(BiComposition.make([0], [1]), -1.0, TIGHT)
        assert got == pytest.approx(1 / (math.e - 1), abs=1e-10)

    def test_matches_polylog_along_first_direction(self):
        b = BiComposition.make([2, 1], [1, 0])
        got = z_directional(b, -0.7, TIGHT)
        want = li_eval(C(2, 1), math.exp(-0.7), TIGHT)
        assert abs(got - want) < 1e-9

    def test_multiplicative_over_bistuffle(self):
        from mzvkit.compositions import bistuffle

        eps = -0.5
        ctx = PrecisionContext(digits=20, budget=200_000, tolerance=1e-9)
        u = BiComposition.make([1], [1])
        v = BiComposition.make([2], [0])
        lhs = sum(float(c) * z_directional(term, eps, ctx) for term, c in bistuffle(u, v).items())
        rhs = z_directional(u, eps, ctx) * z_directional(v, eps, ctx)
        assert abs(lhs - rhs) < 1e-8

    def test_multiplicative_over_bistuffle_randomized(self):
        import random

        from mzvkit.compositions import bistuffle

        rng = random.Random(71)
        ctx = PrecisionContext(digits=20, budget=400_000, tolerance=1e-8)
        for _ in range(6):
            eps = -rng.uniform(0.4, 1.2)
            depth_u, depth_v = rng.randint(1, 2), rng.randint(1, 2)
            u = BiComposition.make(
                [rng.randint(1, 3) for _ in range(depth_u)],
                [1] + [rng.randint(0, 2) for _ in range(depth_u - 1)],
            )
            v = BiComposition.make(
                [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(depth_v - 1)],
                [rng.randint(0, 1) for _ in range(depth_v)],
            )
            lhs = sum(
                float(c) * z_directional(term, eps, ctx) for term, c in bistuffle(u, v).items()
            )
            rhs = z_directional(u, eps, ctx) * z_directional(v, eps, ctx)
            assert abs(lhs - rhs) < 1e-7, (u, v, eps)

    def test_undamped_convergent_matches_mzv(self):
        got = z_directional(BiComposition.make([2, 1], [0, 0]), -0.5, CTX)
        value, error = mzv_eval(C(2, 1), CTX)
        assert abs(got - value) <= 2 * error

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            z_directional(BiComposition.make([1], [0]), -1.0, CTX)
        with pytest.raises(DivergenceError):
            z_directional(BiComposition.make([1, 2], [0, 1]), -1.0, CTX)
        with pytest.raises(DivergenceError):
            z_directional(BiComposition.make([2, 0, 1], [0, 0, 1]), -1.0, CTX)
        # e^(-1e-17) rounds to 1.0, but r > 0 still damps: convergent, not certifiable
        with pytest.raises(PrecisionError):
            z_directional(BiComposition.make([2, 0], [0, 1]), -1e-17, CTX)

    def test_eps_sign_guard(self):
        with pytest.raises(DomainError):
            z_directional(BiComposition.make([0], [1]), 0.5, CTX)

    def test_negative_exponent_behind_damping(self):
        # polynomial growth below a damped level is absorbed
        got = z_directional(BiComposition.make([-1], [1]), -1.0, TIGHT)
        # sum n e^{-n} = e/(e-1)^2
        assert got == pytest.approx(math.e / (math.e - 1) ** 2, abs=1e-10)

    @staticmethod
    def _double_sum(s1, s2, rho1, rho2, cutoff=300):
        total, inner = mpmath.mpf(0), mpmath.mpf(0)
        for n in range(1, cutoff):
            total += rho1**n * mpmath.mpf(n) ** -s1 * inner
            inner += rho2**n * mpmath.mpf(n) ** -s2
        return total

    def test_damped_first_level_matches_double_sum(self):
        eps = -0.7
        with mpmath.workdps(40):
            for s_row, r_row in (([2, 1], [1, Fraction(1, 2)]), ([1, 3], [Fraction(3, 2), 0])):
                rho1, rho2 = (mpmath.exp(mpmath.mpf(r.numerator) / r.denominator * eps)
                              for r in map(Fraction, r_row))
                truth = self._double_sum(*s_row, rho1, rho2)
                got = z_directional(BiComposition.make(s_row, r_row), eps, TIGHT)
                assert abs(got - truth) < 1e-15, (s_row, r_row)

    def test_negative_entries_behind_damping_at_depth_two(self):
        # sum over n1 > n2 of e^(-n1) n1 n2^2, the inner level undamped
        with mpmath.workdps(40):
            truth = self._double_sum(-1, -2, mpmath.exp(-1), 1)
        got = z_directional(BiComposition.make([-1, -2], [1, 0]), -1.0, TIGHT)
        assert abs(got - truth) < 1e-14 * truth

    @staticmethod
    def _below_prefix(prefix, prefix_zeta, s, r, eps):
        """sum over m of e^(m r eps) m^-s U(m), U(m) the tail of zeta(prefix) above m,
        from Hurwitz zeta values; prefix_zeta is zeta(prefix) for depth 2."""
        rate = mpmath.exp(mpmath.mpf(r.numerator) / r.denominator * eps)
        s1 = prefix[0]
        tail = prefix_zeta if len(prefix) == 2 else None
        total = mpmath.mpf(0)
        for m in range(1, math.ceil(60 / abs(float(r) * eps))):
            head = mpmath.zeta(s1, m + 1)  # sum over n > m of n^-s1
            if tail is not None:
                tail -= head / mpmath.mpf(m) ** prefix[1]
            total += rate**m * mpmath.mpf(m) ** -s * (head if tail is None else tail)
        return total

    def test_undamped_prefix_matches_hurwitz_oracle(self):
        with mpmath.workdps(40):
            cases = [
                ((2,), None, 1, Fraction(1), -0.5),
                ((3,), None, 1, Fraction(2), -0.3),
                ((2,), None, 2, Fraction(1, 2), -0.7),
                ((3, 1), mpmath.pi**4 / 360, 0, Fraction(1, 2), -0.2),
                ((2, 1), mpmath.zeta(3), 1, Fraction(1), -0.5),
            ]
            for prefix, prefix_zeta, s, r, eps in cases:
                truth = self._below_prefix(prefix, prefix_zeta, s, r, eps)
                b = BiComposition.make(prefix + (s,), (0,) * len(prefix) + (r,))
                got = z_directional(b, eps, TIGHT)
                assert abs(got - truth) < 1e-15, (b, eps)
        assert got == pytest.approx(0.43602249479815663, abs=1e-15)

    def test_undamped_prefix_above_negative_entry_weakly_damped(self):
        # a cancellation route (a stuffle split into pieces far above the sum) would refuse this
        ctx = PrecisionContext(digits=20, budget=200_000, tolerance=1e-8)
        got = z_directional(BiComposition.make([2, -1], [0, Fraction(1, 2)]), -0.01, ctx)
        assert got == pytest.approx(197.0948972, abs=1e-6)

    def test_weak_damping_still_certifies(self):
        # the float error of e^(r eps) is bounded through the computed series,
        # not through a majorant that blows up like (1 - rho)^-3 here
        ctx = PrecisionContext(digits=20, budget=200_000, tolerance=1e-8)
        got = z_directional(BiComposition.make([1, 1], [1, 0]), -0.001, ctx)
        with mpmath.workdps(40):
            truth = mpmath.log(1 - mpmath.exp(mpmath.mpf(-0.001))) ** 2 / 2
        assert abs(got - truth) < 1e-12 * truth

    def test_weak_damping_exceeds_budget(self):
        cramped = PrecisionContext(digits=20, budget=1_000, tolerance=1e-8)
        with pytest.raises(PrecisionError):
            z_directional(BiComposition.make([1], [1]), -1e-5, cramped)


class TestKernelSeries:
    def test_residue_and_constant(self):
        kernel = geometric_kernel(4)
        assert kernel.coeff(-1) == -1
        assert kernel.coeff(0) == Fraction(-1, 2)

    @pytest.mark.parametrize("value, text", [
        (geometric_kernel(2), "-eps^-1 - 1/2 - 1/12*eps"),
        (LaurentPoly(), "0"),
        (LaurentPoly({2: Fraction(-5, 7), 0: 1, 1: -1}), "1 - eps - 5/7*eps^2"),
    ])
    def test_str(self, value, text):
        assert str(value) == text

    def test_identity_is_exact(self):
        for order in (0, 1, 5, 8, 12):
            assert geometric_kernel_check(order) == 0

    def test_matches_float_kernel(self):
        kernel = geometric_kernel(10)
        eps = -0.3
        series = sum(float(c) * eps**e for e, c in kernel.items())
        assert series == pytest.approx(math.exp(eps) / (1 - math.exp(eps)), abs=1e-9)


class TestPolePart:
    def test_negative_exponents_allowed(self):
        f = LaurentPoly({-1: 1})
        assert f.coeff(-1) == 1 and len(f) == 1
        assert pole_part(f) == f

    def test_examples(self):
        f = LaurentPoly({-2: Fraction(1), 0: Fraction(3), 1: Fraction(1)})
        assert pole_part(f) == LaurentPoly({-2: Fraction(1)})
        assert pole_part(LaurentPoly({0: Fraction(5)})) == LaurentPoly()

    def test_weight_minus_one_identity_example(self):
        f = LaurentPoly({-1: Fraction(1), 0: Fraction(1)})
        g = LaurentPoly({-1: Fraction(1), 1: Fraction(1)})
        lhs = pole_part(f) * pole_part(g)
        rhs = pole_part(f * pole_part(g)) + pole_part(pole_part(f) * g) - pole_part(f * g)
        assert lhs == rhs == LaurentPoly({-2: Fraction(1)})


class TestDerivativeIdentity:
    def test_against_closed_form(self):
        # d/deps Li_[1](e^eps) = e^eps/(1-e^eps) = Li_[0](e^eps)
        gap = polylog_derivative_check(C(0), -1.0, 1e-4, TIGHT)
        assert gap < 1e-6

    def test_depth_one(self):
        gap = polylog_derivative_check(C(1), -0.7, 1e-4, TIGHT)
        assert gap < 1e-6

    def test_second_order_in_h(self):
        coarse = polylog_derivative_check(C(1), -0.7, 2e-2, TIGHT)
        fine = polylog_derivative_check(C(1), -0.7, 1e-2, TIGHT)
        assert coarse / fine == pytest.approx(4.0, rel=0.25)

    def test_guard(self):
        with pytest.raises(DomainError):
            polylog_derivative_check(C(1), -1e-5, 1e-4, TIGHT)


class TestZetaExprEvaluation:
    def test_single_symbol(self):
        from mzvkit.regularization import ZetaExpr

        got = eval_zeta_expr(ZetaExpr.symbol(C(2)), CTX)
        assert got == pytest.approx(1.6449340668, abs=1e-9)

    def test_poly_at_t_zero(self):
        from mzvkit.regularization import ZetaExpr

        poly = TPoly({2: ZetaExpr.scalar(Fraction(1, 2)),
                      0: ZetaExpr.symbol(C(2)) * Fraction(-1, 2)})
        assert eval_reg_poly(poly, CTX, t_value=0.0) == pytest.approx(-0.8224670334, abs=1e-9)

    def test_product_monomial(self):
        from mzvkit.regularization import ZetaExpr

        square = ZetaExpr.symbol(C(2)) * ZetaExpr.symbol(C(2))
        assert eval_zeta_expr(square, CTX) == pytest.approx(2.7058080843, abs=1e-9)


def test_format_value():
    text = format_value(1.2020569031595942, 3e-11)
    assert text == "1.2020569032 ± 3e-11"


def test_every_package_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(mzvkit.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"mzvkit.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"numerics._mp", "numerics._zeta_pos_cached", "numerics._zdir_cached",
            "regularization._rho_cached", "cli._value"} <= caches.keys()
    assert {name: size for name, size in caches.items() if size is None} == {}


_DIVERGES = ("nested sum diverges: the levels before the first damped one must "
             "form a convergent index (first entry >= 2, all >= 1)")


class TestOneLookupPerHit:
    """A cached evaluator checks its key inside the cache and the caller's context around it."""

    def test_repeat_returns_the_cached_object(self):
        s, b = C(3, 1, 2), BiComposition.make([2, 1, 1], [0, 0, 1])
        assert mzv_eval(s, CTX) is mzv_eval(s, TIGHT)
        assert li_eval(C(2, 0, 1), 0.5, CTX) is li_eval(C(2, 0, 1), 0.5, CTX)
        assert z_directional(b, -0.5, CTX) is z_directional(b, -0.5, CTX)
        assert stuffle(C(1, 2), C(2)) is stuffle(C(1, 2), C(2))
        assert stuffle_regularize(C(1, 1, 2)) is stuffle_regularize(C(1, 1, 2))

    @pytest.mark.parametrize("call, cache, error, message", [
        (lambda: stuffle(C(0), C(1)), compositions._stuffle_entries, DomainError,
         "stuffle is defined on positive compositions: [0], [1]"),
        (lambda: stuffle(C(2), C(1, 0)), compositions._stuffle_entries, DomainError,
         "stuffle is defined on positive compositions: [2], [1,0]"),
        (lambda: shuffle_regularize(C(0, 1)), regularization._regularize_cached, DomainError,
         "regularization is defined on positive compositions: [0,1]"),
        (lambda: stuffle_regularize(C(0, 1)), regularization._regularize_cached, DomainError,
         "regularization is defined on positive compositions: [0,1]"),
        (lambda: mzv_eval(C(1, 2), CTX), numerics._mzv_cached, DomainError,
         "MZV evaluation needs a convergent composition: [1,2]"),
        (lambda: li_eval(C(1), 1.0, CTX), numerics._li_cached, DomainError,
         "polylogarithm needs |z| < 1, got 1.0"),
        (lambda: li_eval(C(1), -1, CTX), numerics._li_cached, DomainError,
         "polylogarithm needs |z| < 1, got -1"),
        # a Composition holds no negative entry; one built past its checks does
        (lambda: li_eval(_trusted_composition((2, -1)), 0.5, CTX), numerics._li_cached, DomainError,
         "polylogarithm entries must be >= 0: [2,-1]"),
        (lambda: z_directional(BiComposition.make([2], [1]), 0.0, CTX), numerics._zdir_cached,
         DomainError, "directional regularization needs eps < 0, got 0.0"),
        (lambda: z_directional(BiComposition.make([2], [1]), 0.5, CTX), numerics._zdir_cached,
         DomainError, "directional regularization needs eps < 0, got 0.5"),
        (lambda: z_directional(BiComposition.make([2], [1]), math.nan, CTX), numerics._zdir_cached,
         DomainError, "directional regularization needs eps < 0, got nan"),
        (lambda: z_directional(BiComposition.make([2], [1]), math.inf, CTX), numerics._zdir_cached,
         DomainError, "directional regularization needs eps < 0, got inf"),
        (lambda: z_directional(BiComposition.make([2], [1]), -math.inf, CTX), numerics._zdir_cached,
         DomainError, "directional regularization needs a finite eps, got -inf"),
        (lambda: z_directional(BiComposition.make([1, 2], [0, 1]), -0.5, CTX), numerics._zdir_cached,
         DivergenceError, _DIVERGES),
        (lambda: z_directional(BiComposition.make([2, 0, 1], [0, 0, 1]), -0.5, CTX), numerics._zdir_cached,
         DivergenceError, _DIVERGES),
    ])
    def test_invalid_key_raises_on_every_call_and_is_not_stored(self, call, cache, error, message):
        size = cache.cache_info().currsize
        for _ in range(2):
            with pytest.raises(error) as caught:
                call()
            assert type(caught.value) is error and str(caught.value) == message
        assert cache.cache_info().currsize == size

    def test_cached_value_still_meets_the_callers_tolerance(self):
        s = C(2, 1, 1)
        value, error = mzv_eval(s, CTX)
        assert 1e-16 < error <= 1e-3
        for _ in range(2):
            with pytest.raises(PrecisionError, match="not certifiable at tolerance 1e-16"):
                mzv_eval(s, PrecisionContext(digits=20, budget=200_000, tolerance=1e-16))
        assert mzv_eval(s, CTX) == (value, error)

    def test_zdir_cache_matches_the_uncached_series(self):
        rng = random.Random(2028)
        ctx = PrecisionContext(digits=20, budget=200_000, tolerance=1e-8)
        inputs = []
        while len(inputs) < 100:
            depth = rng.randint(1, 3)
            r_row = [rng.choice([0, 0, Fraction(1, 2), 1, 2]) for _ in range(depth)]
            k = next((i for i, r in enumerate(r_row) if r > 0), depth)
            s_row = [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(k - 1)]
            s_row = (s_row[:k] + [rng.randint(-1, 3) for _ in range(depth - k)])[:depth]
            inputs.append((BiComposition.make(s_row, r_row), -rng.uniform(0.2, 2.0)))
        uncached = numerics._zdir_cached.__wrapped__
        want = [uncached(b, eps, ctx) for b, eps in inputs]
        for _ in range(2):
            numerics._zdir_cached.cache_clear()
            assert [z_directional(b, eps, ctx) for b, eps in inputs] == want
            assert [z_directional(b, eps, ctx) for b, eps in inputs] == want
        assert numerics._zdir_cached.cache_info().currsize == len(set(inputs))

    def test_zdir_cache_emptied_with_the_package_caches(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        z_directional(BiComposition.make([2, 1], [0, 1]), -0.5, CTX)
        assert numerics._zdir_cached.cache_info().currsize > 0
        spans.clear_package_caches()
        assert numerics._zdir_cached.cache_info().currsize == 0
