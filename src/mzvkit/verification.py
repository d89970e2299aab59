"""Named verification suites: structure laws, isomorphisms, analytic identities.

Each suite returns a list of :class:`CheckResult`; the command line prints
one line per result and the acceptance tests assert them.  Randomized
suites draw from fixed-seed generators so runs are reproducible, and the
samplers cap the joint size of extended-shuffle inputs so that worst-case
term explosions cannot stall a run (the covered region still spans the full
entry/length ranges).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import compositions as comp
from . import free_rba as frba
from . import numerics as num
from . import regularization as reg
from . import words
from .core import LinComb, TPoly, bilinear, matrix_rank
from .numerics import PrecisionContext


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.suite}: {self.name}{detail}"


def _result(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


# ---------------------------------------------------------------------------
# samplers


def _random_composition(rng: random.Random, min_entry: int, max_entry: int, max_len: int) -> comp.Composition:
    length = rng.randint(1, max_len)
    return comp.Composition(tuple(rng.randint(min_entry, max_entry) for _ in range(length)))


def _sample_nonneg(rng: random.Random, count: int, size_cap: int) -> list[comp.Composition]:
    """Compositions with entries in [0,4], length <= 4, joint size capped."""
    while True:
        sample = [_random_composition(rng, 0, 4, 4) for _ in range(count)]
        if sum(s.weight + s.depth for s in sample) <= size_cap:
            return sample


def _random_h1_word(rng: random.Random, max_degree: int) -> words.Word:
    degree = rng.randint(1, max_degree)
    letters = tuple(rng.randint(0, 1) for _ in range(degree - 1)) + (words.X1,)
    return words.Word(letters)


def _random_tensor(rng: random.Random, max_degree: int) -> frba.TensorWord:
    degree = rng.randint(1, max_degree)
    basis = frba.graded_basis(degree)
    return rng.choice(basis)


def _random_laurent(rng: random.Random) -> num.LaurentPoly:
    terms = {}
    for exp in range(-4, 5):
        if rng.random() < 0.5:
            terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return num.LaurentPoly(terms)


# ---------------------------------------------------------------------------
# suites


def euler_checks() -> list[CheckResult]:
    """The two classical depth-reduction relations, exactly."""
    suite = "euler"
    out = []
    target3 = LinComb({comp.Composition((2, 1)): 1, comp.Composition((3,)): -1})
    found3 = any(
        rel.terms == target3 or rel.terms == target3.scale(-1)
        for rel in reg.extended_double_shuffle_relations(3)
    )
    out.append(_result(suite, "weight-3 relation [2,1] - [3] emitted", found3))
    target4 = LinComb({comp.Composition((3, 1)): 4, comp.Composition((4,)): -1})
    found4 = any(
        rel.terms == target4 or rel.terms == target4.scale(-1)
        for rel in reg.double_shuffle_relations(4)
    )
    out.append(_result(suite, "weight-4 relation 4[3,1] - [4] emitted", found4))
    return out


def graded_freeness_checks(max_degree: int = 8) -> list[CheckResult]:
    """Graded dimensions 2^(m-1) and invertibility of the word-side matrix."""
    suite = "freeness"
    out = []
    for m in range(1, max_degree + 1):
        basis = frba.graded_basis(m)
        expected = 2 ** (m - 1)
        out.append(
            _result(suite, f"degree-{m} basis count {expected}", len(basis) == expected,
                    f"got {len(basis)}")
        )
        word_basis = words.words_of_degree(m)
        index = {w: i for i, w in enumerate(word_basis)}
        rows = []
        for tensor in basis:
            row = [0] * len(word_basis)
            for w, c in frba.to_word_sum(tensor).items():
                row[index[w]] = c
            rows.append(row)
        rank = matrix_rank(rows)
        out.append(
            _result(suite, f"degree-{m} word matrix invertible", rank == expected,
                    f"rank {rank} of {expected}")
        )
    return out


def structure_checks(cases: int = 500, seed: int = 20268) -> list[CheckResult]:
    """Randomized commutativity/associativity and Rota-Baxter identity suites."""
    suite = "structure"
    out = []
    rng = random.Random(seed)

    failures = 0
    for _ in range(cases):
        s, t = _sample_nonneg(rng, 2, 18)
        if comp.shuffle(s, t) != comp.shuffle(t, s):
            failures += 1
    out.append(_result(suite, f"extended shuffle commutative ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        s, t, u = _sample_nonneg(rng, 3, 16)
        lhs = bilinear(comp.shuffle, comp.shuffle(s, t), LinComb.single(u))
        rhs = bilinear(comp.shuffle, LinComb.single(s), comp.shuffle(t, u))
        if lhs != rhs:
            failures += 1
    out.append(_result(suite, f"extended shuffle associative ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        s = _random_composition(rng, 1, 4, 4)
        t = _random_composition(rng, 1, 4, 4)
        if comp.stuffle(s, t) != comp.stuffle(t, s):
            failures += 1
    out.append(_result(suite, f"stuffle commutative ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        while True:
            triple = [_random_composition(rng, 1, 4, 4) for _ in range(3)]
            if sum(x.weight + x.depth for x in triple) <= 14:
                s, t, u = triple
                break
        lhs = bilinear(comp.stuffle, comp.stuffle(s, t), LinComb.single(u))
        rhs = bilinear(comp.stuffle, LinComb.single(s), comp.stuffle(t, u))
        if lhs != rhs:
            failures += 1
    out.append(_result(suite, f"stuffle associative ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        a = _random_tensor(rng, 8)
        b = _random_tensor(rng, 8)
        c = _random_tensor(rng, 6)
        if frba.product(a, b) != frba.product(b, a):
            failures += 1
        lhs = frba.product_lin(frba.product(a, b), LinComb.single(c))
        rhs = frba.product_lin(LinComb.single(a), frba.product(b, c))
        if lhs != rhs:
            failures += 1
    out.append(_result(suite, f"tensor product commutative and associative ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        a = _random_h1_word(rng, 6)
        b = _random_h1_word(rng, 6)
        lhs = words.shuffle(words.prepend_x0(a), words.prepend_x0(b))
        inner1 = words.shuffle(a, words.prepend_x0(b)).map_basis(words.prepend_x0)
        inner2 = words.shuffle(words.prepend_x0(a), b).map_basis(words.prepend_x0)
        if lhs != inner1 + inner2:
            failures += 1
    out.append(_result(suite, f"word operator Rota-Baxter identity ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        while True:
            s, t = _sample_nonneg(rng, 2, 12)
            if s.weight + s.depth <= 6 and t.weight + t.depth <= 6:
                break
        lhs = comp.shuffle(comp.raise_first(s), comp.raise_first(t))
        inner1 = comp.shuffle(s, comp.raise_first(t)).map_basis(comp.raise_first)
        inner2 = comp.shuffle(comp.raise_first(s), t).map_basis(comp.raise_first)
        if lhs != inner1 + inner2:
            failures += 1
    out.append(_result(suite, f"composition operator Rota-Baxter identity ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        a = _random_tensor(rng, 7)
        b = _random_tensor(rng, 7)
        lhs = frba.product(frba.nest(a), frba.nest(b))
        inner1 = frba.product(a, frba.nest(b)).map_basis(frba.nest)
        inner2 = frba.product(frba.nest(a), b).map_basis(frba.nest)
        if lhs != inner1 + inner2:
            failures += 1
    out.append(_result(suite, f"tensor operator Rota-Baxter identity ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        f, g = _random_laurent(rng), _random_laurent(rng)
        lhs = num.pole_part(f) * num.pole_part(g)
        rhs = (
            num.pole_part(f * num.pole_part(g))
            + num.pole_part(num.pole_part(f) * g)
            - num.pole_part(f * g)
        )
        if lhs != rhs:
            failures += 1
    out.append(_result(suite, f"pole projector weight -1 identity ({cases} cases)", failures == 0))

    failures = total = 0
    for weight in range(2, 8):
        for split in range(1, weight):
            for s in comp.positive_compositions(split):
                for t in comp.positive_compositions(weight - split):
                    total += 1
                    transported = words.shuffle(
                        words.from_composition(s), words.from_composition(t)
                    ).map_basis(words.to_composition)
                    if comp.shuffle(s, t) != transported:
                        failures += 1
    out.append(
        _result(suite, f"shuffle transport identity exhaustive to weight 7 ({total} pairs)",
                failures == 0)
    )
    return out


def isomorphism_checks(max_degree: int = 6, injective_degree: int = 8,
                       cases: int = 200, seed: int = 20269) -> list[CheckResult]:
    """Universal-property evaluation against both explicit isomorphisms."""
    suite = "isomorphism"
    out = []
    rng = random.Random(seed)

    mul_w, rb_w, gen_w = frba.word_target()
    mul_c, rb_c, gen_c = frba.composition_target()
    failures_w = failures_c = total = 0
    for m in range(1, max_degree + 1):
        for tensor in frba.graded_basis(m):
            total += 1
            if frba.evaluate(tensor, mul_w, rb_w, gen_w) != frba.to_word_sum(tensor):
                failures_w += 1
            got = frba.evaluate(tensor, mul_c, rb_c, gen_c)
            if got != LinComb.single(frba.to_composition(tensor)):
                failures_c += 1
    out.append(_result(suite, f"universal evaluation matches word map (degree <= {max_degree}, {total} tensors)",
                       failures_w == 0))
    out.append(_result(suite, f"universal evaluation matches composition map (degree <= {max_degree})",
                       failures_c == 0))

    images = {}
    clash = False
    for m in range(1, injective_degree + 1):
        for tensor in frba.graded_basis(m):
            image = frba.to_composition(tensor)
            if image in images:
                clash = True
            images[image] = tensor
    out.append(_result(suite, f"composition map injective on bases to degree {injective_degree}",
                       not clash, f"{len(images)} images"))

    failures = 0
    for _ in range(cases):
        a = _random_tensor(rng, 5)
        b = _random_tensor(rng, 5)
        lhs = bilinear(words.shuffle, frba.to_word_sum(a), frba.to_word_sum(b))
        rhs = frba.product(a, b).map_linear(frba.to_word_sum)
        if lhs != rhs:
            failures += 1
        if frba.to_word_sum(frba.nest(a)) != frba.to_word_sum(a).map_basis(words.prepend_x0):
            failures += 1
    out.append(_result(suite, f"word map is an operator homomorphism ({cases} cases)", failures == 0))

    failures = 0
    for _ in range(cases):
        a = _random_tensor(rng, 5)
        b = _random_tensor(rng, 5)
        lhs = comp.shuffle(frba.to_composition(a), frba.to_composition(b))
        rhs = frba.product(a, b).map_basis(frba.to_composition)
        if lhs != rhs:
            failures += 1
        if frba.to_composition(frba.nest(a)) != comp.raise_first(frba.to_composition(a)):
            failures += 1
    out.append(_result(suite, f"composition map is an operator homomorphism ({cases} cases)", failures == 0))
    return out


def polylog_checks(ctx: PrecisionContext | None = None, max_weight: int = 4,
                   tolerance: float = 1e-8) -> list[CheckResult]:
    """Shuffle homomorphism of polylogarithms and the derivative identity."""
    suite = "polylog"
    ctx = ctx or PrecisionContext(digits=20, budget=100_000, tolerance=1e-10)
    z = math.exp(-0.7)
    out = []
    pool = comp.nonnegative_compositions(max_weight, 3)
    worst = 0.0
    pairs = 0
    for s, t in combinations_with_replacement(pool, 2):
        if s.weight + t.weight > max_weight:
            continue
        pairs += 1
        lhs = sum(float(c) * num.li_eval(term, z, ctx) for term, c in comp.shuffle(s, t).items())
        rhs = num.li_eval(s, z, ctx) * num.li_eval(t, z, ctx)
        worst = max(worst, abs(lhs - rhs))
    out.append(
        _result(suite, f"shuffle homomorphism at z=e^-0.7 ({pairs} pairs, weight <= {max_weight})",
                worst < tolerance, f"worst {worst:.2e}")
    )
    fd_worst = 0.0
    for s, eps in ((comp.Composition((0,)), -1.0), (comp.Composition((1,)), -0.7),
                   (comp.Composition((1, 1)), -0.9), (comp.Composition((2, 1)), -0.5)):
        fd_worst = max(fd_worst, num.polylog_derivative_check(s, eps, 1e-4, ctx))
    out.append(_result(suite, "derivative identity by central differences",
                       fd_worst < 1e-6, f"worst {fd_worst:.2e}"))
    return out


def series_checks(order: int = 12) -> list[CheckResult]:
    """Formal Laurent expansion of the summation kernel, exactly."""
    suite = "series"
    out = []
    gap = num.geometric_kernel_check(order)
    out.append(_result(suite, f"kernel expansion identity to order {order}", gap == 0,
                       f"max gap {gap}"))
    kernel = num.geometric_kernel(2)
    out.append(_result(suite, "residue coefficient is -1", kernel.coeff(-1) == -1))
    out.append(_result(suite, "constant coefficient is -1/2", kernel.coeff(0) == Fraction(-1, 2)))
    return out


def regularization_checks(ctx: PrecisionContext | None = None, max_weight: int = 4,
                          exact_tol: float = 1e-10, mzv_tol: float = 1e-3) -> list[CheckResult]:
    """The regularization-exchange diagram and the inverse-map identity."""
    suite = "regularization"
    ctx = ctx or PrecisionContext(digits=20, budget=200_000, tolerance=1e-4)
    out = []
    rho = reg.build_rho(max(max_weight + 1, 5), ctx)

    z2 = float(num.zeta_pos(2, ctx))
    image = reg.rho_apply(TPoly({2: 0.5, 0: -z2 / 2}), rho)
    gap = max(abs(float(image.coeff(2, 0.0)) - 0.5), abs(float(image.coeff(0, 0.0))))
    out.append(_result(suite, "exact weight-2 exchange rho((T^2-zeta(2))/2) = T^2/2",
                       gap < exact_tol, f"gap {gap:.2e}"))

    worst = 0.0
    count = 0
    for weight in range(1, max_weight + 1):
        for s in comp.positive_compositions(weight):
            count += 1
            lhs = num.eval_reg_poly(reg.shuffle_regularize(s), ctx)
            rhs = reg.rho_apply(num.eval_reg_poly(reg.stuffle_regularize(s), ctx), rho)
            diff = lhs - rhs
            worst = max(worst, max((abs(float(c)) for _, c in diff.items()), default=0.0))
    out.append(_result(suite, f"diagram: shuffle = rho(stuffle) on {count} compositions (weight <= {max_weight})",
                       worst < mzv_tol, f"worst {worst:.2e}"))

    worst = 0.0
    for ell in range(1, 5):
        lhs = reg.beta_apply(TPoly({ell: 1.0 / math.factorial(ell)}), rho)
        rhs = num.eval_reg_poly(reg.stuffle_regularize(comp.ones(ell)), ctx)
        diff = lhs - rhs
        worst = max(worst, max((abs(float(c)) for _, c in diff.items()), default=0.0))
    out.append(_result(suite, "inverse map matches stuffle-regularized ones blocks (l <= 4)",
                       worst < mzv_tol, f"worst {worst:.2e}"))
    return out


def corollary_checks(order: int = 4, ctx: PrecisionContext | None = None,
                     tolerance: float = 1e-3) -> list[CheckResult]:
    suite = "corollary"
    ctx = ctx or PrecisionContext(digits=20, budget=200_000, tolerance=1e-4)
    gap = reg.corollary_check(order, ctx)
    return [_result(suite, f"exponential identity for repeated ones to order {order}",
                    gap < tolerance, f"gap {gap:.2e}")]


def rank_checks() -> list[CheckResult]:
    suite = "ranks"
    out = []
    for weight, expected in ((2, 1), (3, 1), (4, 1), (5, 2)):
        _, bound = reg.relation_rank(weight)
        out.append(_result(suite, f"weight-{weight} dimension bound {expected}",
                           bound == expected, f"got {bound}"))
    return out


SUITES = {
    "euler": euler_checks,
    "freeness": graded_freeness_checks,
    "structure": structure_checks,
    "isomorphism": isomorphism_checks,
    "polylog": polylog_checks,
    "series": series_checks,
    "regularization": regularization_checks,
    "corollary": corollary_checks,
    "ranks": rank_checks,
}


def run_suites(names: list[str], **options) -> list[CheckResult]:
    results: list[CheckResult] = []
    chosen = list(SUITES) if "all" in names else names
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        suite = SUITES[name]
        kwargs = {k: v for k, v in options.items() if k in suite.__code__.co_varnames}
        results.extend(suite(**kwargs))
    return results
