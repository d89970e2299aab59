"""Named verification suites: structure laws, isomorphisms, analytic identities.

Each suite returns a list of :class:`CheckResult`; the command line prints
one line per result and the acceptance tests assert them.  The structure and
isomorphism laws are rows ``(name, draw, holds)`` of ``STRUCTURE_LAWS`` and
``ISOMORPHISM_LAWS``: ``draw`` takes the suite's seeded generator and returns
one case, and ``holds(*case)`` checks the law.  The one runner :func:`_law`
checks a row on drawn or enumerated inputs (transport, universal evaluation,
injectivity), fills ``{n}`` in the name with the input count, and names the
first failing input.  The float suites hand their gaps to the other runner,
:func:`_within`, which passes when the largest gap is below the bound.  Rows
look their products up through the modules when called, so a patched product
is what they check.  The samplers cap the joint size of extended-shuffle
inputs so that worst-case term explosions cannot stall a run (the covered
region still spans the full entry/length ranges).
A suite asked for an empty range raises :class:`DomainError`.
"""

from __future__ import annotations

import dataclasses
import inspect
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
from .core import DomainError, LinComb, TPoly, bilinear, matrix_rank
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


def _law(suite: str, name: str, holds, inputs: list) -> CheckResult:
    """Check ``holds(*args)`` on each input; a failure names the first failing input."""
    failing = next((args for args in inputs if not holds(*args)), None)
    detail = "" if failing is None else "first failing input: " + ", ".join(map(str, failing))
    return _result(suite, name.replace("{n}", str(len(inputs))), failing is None, detail)


def _random_laws(suite: str, laws, cases: int, seed: int) -> list[CheckResult]:
    """Each row in turn draws its ``cases`` inputs from the one seeded generator."""
    rng = random.Random(seed)
    return [_law(suite, name, holds, [draw(rng) for _ in range(cases)]) for name, draw, holds in laws]


def _within(suite: str, name: str, gaps: list[float], bound: float, label: str = "worst") -> CheckResult:
    """Pass when the largest gap is below bound; ``{n}`` in the name is the number of gaps."""
    worst = max(gaps)
    return _result(suite, name.replace("{n}", str(len(gaps))), worst < bound, f"{label} {worst:.2e}")


def _largest(diff: TPoly) -> float:
    """The largest absolute coefficient of a float T-polynomial, 0.0 for the zero polynomial."""
    return max((abs(float(c)) for _, c in diff.items()), default=0.0)


def _at_least(minimum: int, **sizes: int) -> None:
    for option, value in sizes.items():
        if value < minimum:
            raise DomainError(f"{option} must be at least {minimum} (got {value}); the check would be empty")


# ---------------------------------------------------------------------------
# samplers


def _compositions(rng: random.Random, count: int, low: int = 0,
                  cap: float = math.inf, each: float = math.inf) -> list[comp.Composition]:
    """Compositions with entries in [low,4] and length <= 4, redrawn until
    their weight + depth is at most ``each`` apiece and ``cap`` in total."""
    while True:
        sample = [comp.Composition(tuple(rng.randint(low, 4) for _ in range(rng.randint(1, 4))))
                  for _ in range(count)]
        sizes = [s.weight + s.depth for s in sample]
        if sum(sizes) <= cap and max(sizes) <= each:
            return sample


def _random_h1_word(rng: random.Random, max_degree: int) -> words.Word:
    degree = rng.randint(1, max_degree)
    letters = tuple(rng.randint(0, 1) for _ in range(degree - 1)) + (words.X1,)
    return words.Word(letters)


def _random_tensor(rng: random.Random, max_degree: int) -> frba.TensorWord:
    return rng.choice(frba.graded_basis(rng.randint(1, max_degree)))


def _random_laurent(rng: random.Random) -> num.LaurentPoly:
    terms = {}
    for exp in range(-4, 5):
        if rng.random() < 0.5:
            terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return num.LaurentPoly(terms)


def _tensors(max_degree: int) -> list[tuple[frba.TensorWord]]:
    return [(t,) for m in range(1, max_degree + 1) for t in frba.graded_basis(m)]


# ---------------------------------------------------------------------------
# laws


def _commutes(mul, a, b) -> bool:
    return mul(a, b) == mul(b, a)


def _associates(mul, a, b, c) -> bool:
    return bilinear(mul, mul(a, b), LinComb.single(c)) == bilinear(mul, LinComb.single(a), mul(b, c))


def _rota_baxter(mul, op, a, b) -> bool:
    """The weight-0 identity op(a)op(b) = op(a op(b)) + op(op(a) b)."""
    return mul(op(a), op(b)) == mul(a, op(b)).map_basis(op) + mul(op(a), b).map_basis(op)


def _pole_identity(f: num.LaurentPoly, g: num.LaurentPoly) -> bool:
    """The weight -1 identity P(f)P(g) = P(f P(g)) + P(P(f) g) - P(fg)."""
    pole = num.pole_part
    return pole(f) * pole(g) == pole(f * pole(g)) + pole(pole(f) * g) - pole(f * g)


STRUCTURE_LAWS = (
    ("extended shuffle commutative ({n} cases)",
     lambda rng: _compositions(rng, 2, cap=18),
     lambda s, t: _commutes(comp.shuffle, s, t)),
    ("extended shuffle associative ({n} cases)",
     lambda rng: _compositions(rng, 3, cap=16),
     lambda s, t, u: _associates(comp.shuffle, s, t, u)),
    ("stuffle commutative ({n} cases)",
     lambda rng: _compositions(rng, 2, low=1),
     lambda s, t: _commutes(comp.stuffle, s, t)),
    ("stuffle associative ({n} cases)",
     lambda rng: _compositions(rng, 3, low=1, cap=14),
     lambda s, t, u: _associates(comp.stuffle, s, t, u)),
    ("tensor product commutative and associative ({n} cases)",
     lambda rng: (_random_tensor(rng, 8), _random_tensor(rng, 8), _random_tensor(rng, 6)),
     lambda a, b, c: _commutes(frba.product, a, b) and _associates(frba.product, a, b, c)),
    ("word operator Rota-Baxter identity ({n} cases)",
     lambda rng: (_random_h1_word(rng, 6), _random_h1_word(rng, 6)),
     lambda a, b: _rota_baxter(words.shuffle, words.prepend_x0, a, b)),
    ("composition operator Rota-Baxter identity ({n} cases)",
     lambda rng: _compositions(rng, 2, each=6),
     lambda s, t: _rota_baxter(comp.shuffle, comp.raise_first, s, t)),
    ("tensor operator Rota-Baxter identity ({n} cases)",
     lambda rng: (_random_tensor(rng, 7), _random_tensor(rng, 7)),
     lambda a, b: _rota_baxter(frba.product, frba.nest, a, b)),
    ("pole projector weight -1 identity ({n} cases)",
     lambda rng: (_random_laurent(rng), _random_laurent(rng)),
     _pole_identity),
)

ISOMORPHISM_LAWS = (
    ("word map is an operator homomorphism ({n} cases)",
     lambda rng: (_random_tensor(rng, 5), _random_tensor(rng, 5)),
     lambda a, b: (
         bilinear(words.shuffle, frba.to_word_sum(a), frba.to_word_sum(b))
         == frba.product(a, b).map_linear(frba.to_word_sum)
         and frba.to_word_sum(frba.nest(a)) == frba.to_word_sum(a).map_basis(words.prepend_x0))),
    ("composition map is an operator homomorphism ({n} cases)",
     lambda rng: (_random_tensor(rng, 5), _random_tensor(rng, 5)),
     lambda a, b: (
         comp.shuffle(frba.to_composition(a), frba.to_composition(b))
         == frba.product(a, b).map_basis(frba.to_composition)
         and frba.to_composition(frba.nest(a)) == comp.raise_first(frba.to_composition(a)))),
)


# ---------------------------------------------------------------------------
# suites


def euler_checks() -> list[CheckResult]:
    """The two classical depth-reduction relations, exactly."""
    rows = ((3, "[2,1] - [3]", LinComb({comp.Composition((2, 1)): 1, comp.Composition((3,)): -1}),
             reg.extended_double_shuffle_relations),
            (4, "4[3,1] - [4]", LinComb({comp.Composition((3, 1)): 4, comp.Composition((4,)): -1}),
             reg.double_shuffle_relations))
    return [_result("euler", f"weight-{weight} relation {text} emitted",
                    any(rel.terms in (target, target.scale(-1)) for rel in table(weight)))
            for weight, text, target, table in rows]


def graded_freeness_checks(max_degree: int = 8) -> list[CheckResult]:
    """Graded dimensions 2^(m-1) and invertibility of the word-side matrix."""
    _at_least(1, max_degree=max_degree)
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
        rank = matrix_rank([image.coeff(w) for w in word_basis]
                           for image in map(frba.to_word_sum, basis))
        out.append(
            _result(suite, f"degree-{m} word matrix invertible", rank == expected,
                    f"rank {rank} of {expected}")
        )
    return out


def structure_checks(cases: int = 500, seed: int = 20268) -> list[CheckResult]:
    """The randomized product and Rota-Baxter laws, then shuffle transport exhaustively."""
    _at_least(1, cases=cases)
    pairs = [(s, t) for weight in range(2, 8) for split in range(1, weight)
             for s in comp.positive_compositions(split)
             for t in comp.positive_compositions(weight - split)]
    out = _random_laws("structure", STRUCTURE_LAWS, cases, seed)
    out.append(_law(
        "structure", "shuffle transport identity exhaustive to weight 7 ({n} pairs)",
        lambda s, t: comp.shuffle(s, t) == words.shuffle(
            words.from_composition(s), words.from_composition(t)).map_basis(words.to_composition),
        pairs))
    return out


def isomorphism_checks(max_degree: int = 6, injective_degree: int = 8,
                       cases: int = 200, seed: int = 20269) -> list[CheckResult]:
    """Universal-property evaluation against both explicit isomorphisms."""
    _at_least(1, max_degree=max_degree, injective_degree=injective_degree, cases=cases)
    suite = "isomorphism"
    mul_w, rb_w, gen_w = frba.word_target()
    mul_c, rb_c, gen_c = frba.composition_target()
    tensors, injective = _tensors(max_degree), _tensors(injective_degree)
    preimage = {frba.to_composition(t): t for (t,) in injective}
    return [
        _law(suite, f"universal evaluation matches word map (degree <= {max_degree}, {{n}} tensors)",
             lambda t: frba.evaluate(t, mul_w, rb_w, gen_w) == frba.to_word_sum(t), tensors),
        _law(suite, f"universal evaluation matches composition map (degree <= {max_degree})",
             lambda t: frba.evaluate(t, mul_c, rb_c, gen_c) == LinComb.single(frba.to_composition(t)),
             tensors),
        _law(suite, f"composition map injective on bases to degree {injective_degree} ({{n}} images)",
             lambda t: preimage[frba.to_composition(t)] == t, injective),
    ] + _random_laws(suite, ISOMORPHISM_LAWS, cases, seed)


def polylog_checks(ctx: PrecisionContext = PrecisionContext(digits=20, budget=100_000, tolerance=1e-10),
                   max_weight: int = 4, tolerance: float = 1e-8) -> list[CheckResult]:
    """Shuffle homomorphism of polylogarithms and the derivative identity."""
    _at_least(0, max_weight=max_weight)
    suite = "polylog"
    z = math.exp(-0.7)
    pool = comp.nonnegative_compositions(max_weight, 3)
    pairs = [(s, t) for s, t in combinations_with_replacement(pool, 2) if s.weight + t.weight <= max_weight]
    shuffle_gaps = [abs(sum(float(c) * num.li_eval(term, z, ctx) for term, c in comp.shuffle(s, t).items())
                        - num.li_eval(s, z, ctx) * num.li_eval(t, z, ctx)) for s, t in pairs]
    derivative_gaps = [num.polylog_derivative_check(comp.Composition(entries), eps, 1e-4, ctx)
                       for entries, eps in (((0,), -1.0), ((1,), -0.7), ((1, 1), -0.9), ((2, 1), -0.5))]
    return [
        _within(suite, f"shuffle homomorphism at z=e^-0.7 ({{n}} pairs, weight <= {max_weight})",
                shuffle_gaps, tolerance),
        _within(suite, "derivative identity by central differences", derivative_gaps, 1e-6),
    ]


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


def regularization_checks(ctx: PrecisionContext = PrecisionContext(digits=20, budget=200_000, tolerance=1e-4),
                          max_weight: int = 4, exact_tol: float = 1e-10,
                          mzv_tol: float = 1e-3) -> list[CheckResult]:
    """The regularization-exchange diagram and the inverse-map identity."""
    _at_least(1, max_weight=max_weight)
    suite = "regularization"
    rho = reg.build_rho(max(max_weight + 1, 5), ctx)
    z2 = float(num.zeta_pos(2, ctx))
    image = reg.rho_apply(TPoly({2: 0.5, 0: -z2 / 2}), rho)
    exchange_gaps = [abs(float(image.coeff(2, 0.0)) - 0.5), abs(float(image.coeff(0, 0.0)))]
    diagram_gaps = [_largest(num.eval_reg_poly(reg.shuffle_regularize(s), ctx)
                             - reg.rho_apply(num.eval_reg_poly(reg.stuffle_regularize(s), ctx), rho))
                    for weight in range(1, max_weight + 1) for s in comp.positive_compositions(weight)]
    ones_gaps = [_largest(reg.beta_apply(TPoly({ell: 1.0 / math.factorial(ell)}), rho)
                          - num.eval_reg_poly(reg.stuffle_regularize(comp.ones(ell)), ctx))
                 for ell in range(1, 5)]
    return [
        _within(suite, "exact weight-2 exchange rho((T^2-zeta(2))/2) = T^2/2",
                exchange_gaps, exact_tol, "gap"),
        _within(suite, f"diagram: shuffle = rho(stuffle) on {{n}} compositions (weight <= {max_weight})",
                diagram_gaps, mzv_tol),
        _within(suite, "inverse map matches stuffle-regularized ones blocks (l <= 4)", ones_gaps, mzv_tol),
    ]


def corollary_checks(order: int = 4,
                     ctx: PrecisionContext = PrecisionContext(digits=20, budget=200_000, tolerance=1e-4),
                     tolerance: float = 1e-3) -> list[CheckResult]:
    return [_within("corollary", f"exponential identity for repeated ones to order {order}",
                    [reg.corollary_check(order, ctx)], tolerance, "gap")]


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


# the numeric flags of a run, by the PrecisionContext field each one sets
CONTEXT_FLAGS = {"digits": "digits", "budget": "budget", "tol": "tolerance"}


def run_suites(names: list[str], **options) -> list[CheckResult]:
    """Run the named suites (or 'all').  ``options`` are sizes and the flags
    of ``CONTEXT_FLAGS``, None for one not given.  Each suite takes the sizes
    it has a parameter for; a suite with a ``ctx`` parameter gets its own
    default context with the given flags replaced.  An option given that no
    chosen suite takes is an error."""
    chosen = list(SUITES) if "all" in names else names
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    params = {name: inspect.signature(SUITES[name]).parameters for name in chosen}
    given = {option: value for option, value in options.items() if value is not None}
    for option in given:
        taker = "ctx" if option in CONTEXT_FLAGS else option
        if not any(taker in taken for taken in params.values()):
            raise ValueError(f"--{option.replace('_', '-')} is taken by none of the chosen suites: {', '.join(chosen)}")
    fields = {CONTEXT_FLAGS[flag]: given.pop(flag) for flag in list(given) if flag in CONTEXT_FLAGS}
    results = []
    for name in chosen:
        taken = {k: v for k, v in given.items() if k in params[name]}
        if "ctx" in params[name]:
            taken["ctx"] = dataclasses.replace(params[name]["ctx"].default, **fields)
        results += SUITES[name](**taken)
    return results
