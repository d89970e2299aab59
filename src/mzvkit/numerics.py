"""High-precision numeric layer: zeta values, polylogarithms, nested MZV sums.

Design notes.  Single zeta values and the coefficient tables built from them
use mpmath at the context's working precision (Euler-Maclaurin tail
correction of the direct sum, with as many corrections as the digits need
before the cutoff grows).  Convergent MZVs come from the Hölder convolution
at 1/2: a sum of products of polylogarithms at 1/2 whose series converge
like 2^-n, run in pure-Python float64 at a fixed length, with a certified
truncation and rounding bound that depends on the index alone.  The other
nested multi-index sums (polylogarithms, directional regularized MZVs) run
in float64 numpy with certified truncation bounds: the outermost level gets
either a geometric-ratio tail bound or a p-series (integral comparison)
bound with a first-order tail correction, and the inner levels are capped
bottom-up, each cap folding the levels below it into a constant, a log
power or a polynomial growth exponent.  Certified bounds always dominate
float64 rounding at the budgets this package accepts, and a rounding
allowance is folded into every reported error.

Exact material (Bernoulli numbers, the Laurent expansion of e^eps/(1-e^eps),
the pole projector) is kept in Fraction arithmetic so identity checks can
demand literal zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import mpmath

from .compositions import BiComposition, Composition
from .core import DomainError, Sparse, TPoly


class PrecisionError(ArithmeticError):
    """The requested tolerance is not certifiable within the budget."""


class DivergenceError(DomainError):
    """The requested nested sum diverges."""


@dataclass(frozen=True, slots=True)
class PrecisionContext:
    """Working precision (decimal digits), summation budget, target tolerance.

    ``tolerance`` is the error level an operation must certify before
    returning; operations that can do better cheaply (zeta values,
    geometrically damped sums) go well below it and report their actual
    bound.
    """

    digits: int = 20
    budget: int = 100_000
    tolerance: float = 1e-3

    def __post_init__(self):
        if self.digits < 15:
            raise DomainError("working precision must be >= 15 digits")
        if self.budget < 1_000:
            raise DomainError("summation budget must be >= 1000")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")


DEFAULT_CTX = PrecisionContext()


class MzvResult(NamedTuple):
    value: float
    error: float


def format_value(value, error: float) -> str:
    """Decimal string with the reported error bound, e.g. ``1.2020569032 ± 3e-11``."""
    return f"{mpmath.nstr(mpmath.mpf(value), 11)} ± {error:.0e}"


@lru_cache(maxsize=None)
def _mp(digits: int) -> mpmath.ctx_mp.MPContext:
    ctx = mpmath.mp.clone()
    ctx.dps = digits + 10
    return ctx


# ---------------------------------------------------------------------------
# exact layer: Bernoulli numbers, zeta at non-positive integers, Laurent series


def bernoulli(n: int) -> Fraction:
    """Bernoulli number with the B(1) = +1/2 convention, as an exact rational."""
    if n < 0:
        raise DomainError("Bernoulli numbers need n >= 0")
    value = _bernoulli_minus(n)
    return -value if n == 1 else value


@lru_cache(maxsize=None)
def _bernoulli_minus(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * _bernoulli_minus(j)
    return -total / (n + 1)


def zeta_nonpos(i: int) -> Fraction:
    """Exact rational zeta(-i) = -B(i+1)/(i+1) for i >= 0."""
    if i < 0:
        raise DomainError("zeta_nonpos needs i >= 0")
    return -bernoulli(i + 1) / (i + 1)


class LaurentPoly(Sparse):
    """Finite Laurent polynomial in eps with exact rational coefficients."""

    __slots__ = ()

    _mul_key = staticmethod(operator.add)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, c in sorted(self._terms.items()):
            mono = "" if exp == 0 else ("eps" if exp == 1 else f"eps^{exp}")
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def pole_part(f: LaurentPoly) -> LaurentPoly:
    """Keep exactly the negative-exponent terms (Rota-Baxter of weight -1)."""
    return LaurentPoly((e, c) for e, c in f.items() if e < 0)


def geometric_kernel(order: int) -> LaurentPoly:
    """Exact Laurent expansion of e^eps/(1-e^eps) through eps^order.

    Computed by formal series division: e^eps/(1-e^eps) = -(1/eps) * e^eps/E
    with E = sum eps^n/(n+1)!, so the result is an honest independent check
    against the Bernoulli route through zeta at non-positive integers.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    n = order + 2
    exp_series = [Fraction(1, math.factorial(j)) for j in range(n)]
    e_series = [Fraction(1, math.factorial(j + 1)) for j in range(n)]
    recip = [Fraction(1)]
    for m in range(1, n):
        recip.append(-sum(e_series[j] * recip[m - j] for j in range(1, m + 1)))
    q = [sum(exp_series[j] * recip[m - j] for j in range(m + 1)) for m in range(n)]
    return LaurentPoly({m - 1: -q[m] for m in range(order + 2)})


def geometric_kernel_check(order: int) -> Fraction:
    """Max coefficient gap between the series division and the Bernoulli form.

    Compares e^eps/(1-e^eps) with -1/eps + sum zeta(-i) eps^i/i!; the two are
    formally identical so the return value should be exactly zero.
    """
    expansion = geometric_kernel(order)
    reference = LaurentPoly(
        {-1: Fraction(-1)}
        | {i: zeta_nonpos(i) / math.factorial(i) for i in range(order + 1)}
    )
    diff = expansion - reference
    gaps = [abs(c) for e, c in diff.items() if e <= order]
    return max(gaps, default=Fraction(0))


# ---------------------------------------------------------------------------
# zeta at integers >= 2 (Euler-Maclaurin)


def zeta_pos(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpmath.mpf:
    """zeta(n) for integer n >= 2 by Euler-Maclaurin correction of the direct sum."""
    if n < 2:
        raise DomainError("zeta_pos needs n >= 2")
    return _zeta_pos_cached(n, ctx.digits, ctx.budget, float(ctx.tolerance))


@lru_cache(maxsize=None)
def _zeta_pos_cached(n: int, digits: int, budget: int, tolerance: float) -> mpmath.mpf:
    mp = _mp(digits)
    target = min(mpmath.mpf(tolerance), mp.mpf(10) ** (-digits - 2))
    cutoff = min(max(32, 3 * digits), budget)
    while True:
        corrections = [_em_term(mp, n, cutoff, 1)]
        for k in range(2, 17 + digits // 2):
            remainder = _em_term(mp, n, cutoff, k)
            if abs(remainder) < target:
                return _zeta_em(mp, n, cutoff, corrections)
            corrections.append(remainder)
        if cutoff >= budget:
            raise PrecisionError(
                f"zeta({n}) not reachable at tolerance {tolerance} within budget {budget}"
            )
        cutoff = min(cutoff * 4, budget)


def _em_term(mp, s: int, cutoff: int, k: int):
    """k-th Euler-Maclaurin correction term; the first omitted one bounds the error."""
    b = bernoulli(2 * k)
    num = mp.mpf(b.numerator) / b.denominator
    rising = mp.mpf(1)
    for j in range(2 * k - 1):
        rising *= s + j
    return num / mp.factorial(2 * k) * rising * mp.mpf(cutoff) ** (-s - 2 * k + 1)


def _zeta_em(mp, s: int, cutoff: int, corrections: list):
    total = mp.mpf(0)
    for j in range(1, cutoff + 1):
        total += mp.mpf(j) ** (-s)
    total += mp.mpf(cutoff) ** (1 - s) / (s - 1)
    total -= mp.mpf(cutoff) ** (-s) / 2
    for term in corrections:
        total += term
    return total


_B_EVEN_FLOAT = tuple(float(bernoulli(2 * k)) for k in range(1, 6))


def _zeta_tail_float(s: int, cutoff: int) -> tuple[float, float]:
    """(sum over n > cutoff of n^-s, remainder bound), in float64."""
    total = cutoff ** (1.0 - s) / (s - 1) - 0.5 * cutoff ** (-1.0 * s)
    rising = 1.0
    term = 0.0
    for k in range(1, 5):
        rising *= s + 2 * k - 2
        if k > 1:
            rising *= s + 2 * k - 3
        term = _B_EVEN_FLOAT[k - 1] / math.factorial(2 * k) * rising * cutoff ** (-s - 2 * k + 1.0)
        total += term
    rising *= (s + 7) * (s + 8)
    remainder = abs(_B_EVEN_FLOAT[4] / math.factorial(10) * rising * cutoff ** (-s - 9.0))
    return total, remainder


# ---------------------------------------------------------------------------
# nested sums: shared kernel with per-level tail certification


class _Level(NamedTuple):
    rho: float  # |weight(n)| <= rho^n * n^(-s), 0 <= rho <= 1
    s: int
    build: Callable[[np.ndarray], np.ndarray]  # signed weights on an index array


def _exp_weights(rho: float, s: int) -> Callable[[np.ndarray], np.ndarray]:
    import numpy as np  # only nested sums need numpy; the exact layers run without it
    if rho == 1.0:
        return lambda n: n ** float(-s)
    log_rho = math.log(rho)
    return lambda n: np.exp(n * log_rho) * n ** float(-s)


def _signed_power_weights(z: float, s: int) -> Callable[[np.ndarray], np.ndarray]:
    import numpy as np
    def build(n: np.ndarray) -> np.ndarray:
        powers = np.cumprod(np.full(n.shape, z))
        return powers * n ** float(-s)

    return build


def _check_convergence(levels: list[_Level]) -> None:
    damped = next((i for i, lv in enumerate(levels) if lv.rho < 1.0), None)
    prefix = levels if damped is None else levels[:damped]
    if not prefix:
        return
    if prefix[0].s < 2 or any(lv.s < 1 for lv in prefix):
        raise DivergenceError(
            "nested sum diverges: the levels before the first damped one must "
            "form a convergent index (first entry >= 2, all >= 1)"
        )


def _chunked_geo_bound(rho: float, p: float, lam: int, start: int, budget: int) -> float:
    """Upper bound on sum_{m > start} rho^m m^p (1+ln m)^lam for rho < 1."""
    import numpy as np
    if rho == 0.0:
        return 0.0
    total = 0.0
    m0 = start + 1
    growth = lam + max(p, 0.0)
    while True:
        q = rho * (1.0 + 1.0 / m0) ** growth
        head = rho**m0 * m0**p * (1.0 + math.log(m0)) ** lam
        if q < 1.0:
            return total + head / (1.0 - q)
        chunk = np.arange(m0, m0 + 4096, dtype=float)
        total += float(np.sum(np.exp(chunk * math.log(rho)) * chunk**p * (1.0 + np.log(chunk)) ** lam))
        m0 += 4096
        if m0 > max(10_000_000, 100 * budget):
            raise PrecisionError("geometric damping too weak to certify a tail bound")


def _pseries_bound(sigma: float, lam: int) -> float:
    """Upper bound on sum_{m >= 1} m^-sigma (1+ln m)^lam for sigma >= 2."""
    import numpy as np
    m = np.arange(1, 8193, dtype=float)
    head = float(np.sum(m**-sigma * (1.0 + np.log(m)) ** lam))
    cutoff = 8192.0
    tail = 3.0 * (1.0 + math.log(cutoff)) ** lam * cutoff ** (1.0 - sigma) / (sigma - 1.0)
    return head + tail


def _folded_caps(levels: list[_Level], budget: int) -> tuple[float, int, float]:
    """(C, lam, p) with nested partial sums over these levels <= C (1+ln m)^lam m^p."""
    c, lam, p = 1.0, 0, 0.0
    for level in reversed(levels):
        if level.rho < 1.0:
            c = c * _chunked_geo_bound(level.rho, p - level.s, lam, 0, budget)
            lam, p = 0, 0.0
        else:
            sigma = level.s - p
            if sigma >= 2:
                c, lam, p = c * _pseries_bound(sigma, lam), 0, 0.0
            elif sigma == 1:
                lam, p = lam + 1, 0.0
            else:
                c = c * 2.0 ** (1.0 - sigma) / (1.0 - sigma)
                p = 1.0 - sigma
    return c, lam, p


def _log_moment(j: int, sigma: float, cutoff: int) -> float:
    """Upper bound on sum_{n > cutoff} ln(n/cutoff)^j n^-sigma for sigma >= 2."""
    integral = cutoff ** (1.0 - sigma) * math.factorial(j) / (sigma - 1.0) ** (j + 1)
    peak = (j / sigma) ** j * math.exp(-j) * cutoff ** (-sigma) if j else cutoff ** (-sigma)
    return integral + peak


def _attempt(levels: list[_Level], cutoff: int, budget: int) -> tuple[float, float]:
    """Evaluate the nested sum at one cutoff; returns (value, certified bound)."""
    import numpy as np
    n = np.arange(1, cutoff + 1, dtype=float)
    weights = [lv.build(n) for lv in levels]
    cum = None
    for w in reversed(weights[1:]):
        layer = w if cum is None else w * np.concatenate(([0.0], cum[:-1]))
        cum = np.cumsum(layer)
    inner_shifted = np.concatenate(([0.0], cum[:-1])) if cum is not None else None
    top = weights[0] if inner_shifted is None else weights[0] * inner_shifted
    value = float(np.sum(top))
    inner_at_cutoff = float(cum[-1]) if cum is not None else 1.0

    rho1, s1 = levels[0].rho, levels[0].s
    slop = 4e-16 * cutoff * (1.0 + abs(value))
    if rho1 < 1.0:
        c3, lam, p = _folded_caps(levels[1:], budget)
        tail = c3 * _chunked_geo_bound(rho1, p - s1, lam, cutoff, budget)
        return value, tail + slop

    # p-series outer level: first-order tail correction, second-order residual
    tail, tail_rem = _zeta_tail_float(s1, cutoff)
    value += inner_at_cutoff * tail
    residual = abs(inner_at_cutoff) * tail_rem + slop
    if len(levels) == 1:
        return value, residual

    c3, lam3, p3 = _folded_caps(levels[2:], budget)
    log_n = 1.0 + math.log(cutoff)  # (1+ln n) = log_n + L for the moment expansion
    rho2, s2 = levels[1].rho, levels[1].s
    if rho2 < 1.0:
        growth_const = c3 * _chunked_geo_bound(rho2, p3 - s2, lam3, cutoff, budget)
        residual += growth_const * _log_moment(0, s1, cutoff)
    elif s2 >= 2:
        assert p3 == 0  # undamped level 2 puts levels 3+ inside the convergent prefix
        inc2 = _zeta_tail_float(s2, cutoff)[0] + cutoff ** (-1.0 * s2)
        for j in range(lam3 + 1):
            coeff = c3 * inc2 * math.comb(lam3, j) * log_n ** (lam3 - j)
            residual += coeff * _log_moment(j, s1, cutoff)
    else:  # s2 == 1 (guard excludes lower values here)
        for j in range(lam3 + 1):
            coeff = c3 * math.comb(lam3, j) * log_n ** (lam3 - j)
            residual += coeff * (_log_moment(j + 1, s1, cutoff) + _log_moment(j, s1, cutoff) / cutoff)
    return value, residual


def _nested_eval(levels: list[_Level], ctx: PrecisionContext) -> tuple[float, float]:
    _check_convergence(levels)
    cutoff = 2048
    while True:
        cutoff = min(cutoff, ctx.budget)
        value, bound = _attempt(levels, cutoff, ctx.budget)
        if bound <= ctx.tolerance:
            return value, bound
        if cutoff >= ctx.budget:
            raise PrecisionError(
                f"nested sum not certifiable at tolerance {ctx.tolerance} "
                f"within budget {ctx.budget} (bound {bound:.3g})"
            )
        cutoff *= 8


# ---------------------------------------------------------------------------
# public evaluators


def li_eval(s: Composition, z: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Multiple polylogarithm Li_s(z) for |z| < 1 and entries >= 0."""
    if not abs(z) < 1:
        raise DomainError(f"polylogarithm needs |z| < 1, got {z}")
    if any(e < 0 for e in s.entries):
        raise DomainError(f"polylogarithm entries must be >= 0: {s}")
    if z == 0.0:
        return 0.0
    return _li_cached(s.entries, float(z), ctx)


@lru_cache(maxsize=8192)
def _li_cached(entries: tuple[int, ...], z: float, ctx: PrecisionContext) -> float:
    levels = [_Level(abs(z), entries[0], _signed_power_weights(z, entries[0]))]
    levels += [_Level(1.0, e, _exp_weights(1.0, e)) for e in entries[1:]]
    return _nested_eval(levels, ctx)[0]


def mzv_eval(s: Composition, ctx: PrecisionContext = DEFAULT_CTX) -> MzvResult:
    """Convergent MZV in float64 with its certified absolute error.

    The value comes from the Hölder convolution at 1/2 (``_mzv_cached``),
    which converges geometrically, so neither it nor its error depends on
    ``ctx``: ``budget`` does not limit it and ``digits`` is not honoured past
    float64.  The error is (weight + 1) * 67 * 2^-52 of the value plus a
    truncation of weight * 2^-63, below 3e-13 through weight 8; the call
    raises ``PrecisionError`` when it exceeds ``ctx.tolerance``.
    """
    if not s.is_convergent:
        raise DomainError(f"MZV evaluation needs a convergent composition: {s}")
    value, error = _mzv_cached(s.entries)
    if error > ctx.tolerance:
        raise PrecisionError(
            f"zeta{s} not certifiable at tolerance {ctx.tolerance} in float64 "
            f"(bound {error:.3g})"
        )
    return MzvResult(value, error)


_HALF_TERMS = 64  # N: series coefficients kept per factor of the convolution
_HALF_POWERS = tuple(2.0**-m for m in range(_HALF_TERMS + 1))


def _half_values(letters: list[int]) -> list[float]:
    """Li_w(1/2) for every suffix w = letters[k:], k = 0..n (the empty word gives 1).

    letters are 0 for x0 and 1 for x1, and the last one is x1.  The series
    sum c_m z^m of each suffix comes from the previous one by prepending a
    letter, starting from the empty word (c = 1, 0, 0, ...): x0 integrates
    against dt/t and maps c_m to c_m/m, x1 integrates against dt/(1-t) and
    maps c_m to (1/m) sum_{j<m} c_j.  By induction every c_m lies in [0, 1].
    Only c_0..c_N are kept; they are exact, because c_m reads lower indices
    only.
    """
    c = [1.0] + [0.0] * _HALF_TERMS
    values = [1.0]
    for letter in reversed(letters):
        if letter:
            c = [0.0] + [p / m for m, p in enumerate(accumulate(c[:-1]), 1)]
        else:
            c = [0.0] + [c[m] / m for m in range(1, _HALF_TERMS + 1)]
        values.append(math.fsum(map(operator.mul, c, _HALF_POWERS)))
    return values[::-1]


@lru_cache(maxsize=4096)
def _mzv_cached(entries: tuple[int, ...]) -> tuple[float, float]:
    """(zeta(entries), certified absolute error) by the Hölder convolution at 1/2.

    With w = w_1...w_n the word x0^(s_1-1) x1 ... x0^(s_k-1) x1 of weight n,
    zeta(s) is the iterated integral over 1 > t_1 > ... > t_n > 0 of
    omega_(w_1)(t_1) ... omega_(w_n)(t_n), with omega_0 = dt/t and
    omega_1 = dt/(1-t).  Splitting the region by the number j of t's above
    1/2 (Borwein-Bradley-Broadhurst-Lisonek, arXiv:math/9910045) gives

        zeta(w) = sum_{j=0..n} Li_{(w_1...w_j)^dagger}(1/2) Li_{w_(j+1)...w_n}(1/2):

    the lower block is a polylog at 1/2 directly, and t -> 1-t turns the
    upper one into the dual word, with x0 and x1 swapped and the letters
    reversed.  Every term is positive.  The suffix factors come from one
    sweep over w, the dual prefixes from one sweep over the dual of w.

    Truncation.  A non-empty factor is at most sum_{m>=1} 2^-m = 1, and its
    tail sum_{m>N} c_m 2^-m is at most 2^-N.  Truncated factors A, B with
    tails a, b miss (A+a)(B+b) - AB = a(B+b) + Ab <= a + b, so the terms with
    j = 0 or n miss at most 2^-N and the others 2^(1-N): 2n 2^-N in all.

    Rounding.  Every quantity is non-negative, so relative errors compound
    without cancellation.  Along any path there are at most N roundings per
    letter (the partial sums and one division), one per factor (``fsum`` is
    correctly rounded and the scaling by 2^-m is exact), one per product and
    one in the outer ``fsum``: k <= nN + 4 roundings of unit 2^-53, so the
    computed value is within k 2^-52 of the truncated one, relative to
    itself.  The allowance (n+1)(N+3) 2^-52 exceeds that by a factor of at
    least 1 + (N+2)/(nN+4), which also covers the rounding of the bound.
    """
    word = [letter for e in entries for letter in (0,) * (e - 1) + (1,)]
    dual = [1 - letter for letter in reversed(word)]
    n = len(word)
    value = math.fsum(map(operator.mul, _half_values(word), reversed(_half_values(dual))))
    truncation = 2 * n * 2.0**-_HALF_TERMS
    rounding = (n + 1) * (_HALF_TERMS + 3) * 2.0**-52 * value
    return value, truncation + rounding


def z_directional(b: BiComposition, eps: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Directional regularized MZV: the r-row damps each index by e^(n r eps).

    Requires eps < 0.  Converges when the top row is damped (r1 > 0) or when
    the undamped leading block is a convergent index.  With no level damped
    the value is the MZV of the top row, whatever eps is, and comes from
    ``mzv_eval``.
    """
    if not eps < 0:
        raise DomainError(f"directional regularization needs eps < 0, got {eps}")
    levels = []
    for s_entry, r_entry in zip(b.s_row, b.r_row):
        rho = math.exp(float(r_entry) * eps) if r_entry else 1.0
        levels.append(_Level(rho, s_entry, _exp_weights(rho, s_entry)))
    if all(lv.rho == 1.0 for lv in levels):
        _check_convergence(levels)
        return mzv_eval(Composition(b.s_row), ctx).value
    return _nested_eval(levels, ctx)[0]


def polylog_derivative_check(
    s: Composition, eps: float, h: float, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """|central difference of Li_{s+e1}(e^eps) minus Li_s(e^eps)|.

    The raised index is the antiderivative of the original one in eps, so the
    discrepancy is O(h^2) plus evaluation error.
    """
    if not (eps < 0 and eps + h < 0 and eps - h < 0):
        raise DomainError("need eps < 0 with eps +- h < 0")
    raised = Composition((s.entries[0] + 1,) + s.entries[1:])
    upper = li_eval(raised, math.exp(eps + h), ctx)
    lower = li_eval(raised, math.exp(eps - h), ctx)
    direct = li_eval(s, math.exp(eps), ctx)
    return abs((upper - lower) / (2 * h) - direct)


def eval_zeta_expr(expr, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Numeric value of a polynomial in convergent-MZV symbols."""
    total = 0.0
    for symbols, coeff in expr.monomials():
        prod = float(coeff)
        for sym in symbols:
            prod *= mzv_eval(sym.index, ctx).value
        total += prod
    return total


def eval_reg_poly(poly: TPoly, ctx: PrecisionContext = DEFAULT_CTX, t_value: float | None = None):
    """Evaluate the symbol coefficients of a T-polynomial; optionally plug in T."""
    numeric = poly.map_coeffs(lambda c: eval_zeta_expr(c, ctx))
    if t_value is None:
        return numeric
    return numeric(t_value)
