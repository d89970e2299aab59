"""High-precision numeric layer: zeta values, polylogarithms, nested MZV sums.

Design notes.  One series engine, ``_sweep``, runs the power-series
recurrence of an iterated integral letter by letter in integer fixed point,
so its error is a count of units.  ``zeta_pos`` and ``mzv_eval`` split the
word at 1/2 (``_holder``), ``li_eval`` and damped ``z_directional`` sum the
direct series (``_direct_series``).  Only directional sums with an undamped
first level and a damped later one run a float64 numpy p-series kernel.

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
from typing import NamedTuple

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
# the series engine: one integer fixed-point recurrence per letter

X0, UP = "x0", "up"  # the letters of _sweep besides x1, which is written as its weight


def _sweep(letters: list, terms: int, scale: int) -> list[int]:
    """Values of the series of every suffix letters[j:], in units of 2^-scale.

    The empty word has c = (1, 0, 0, ...); prepending a letter maps c_m to
    c_m / m (x0), (1/m) sum_{j<m} x^(m-j) c_j (x1 of float weight |x| <= 1)
    or m c_m (UP); a value is sum_{m>=1} c_m, and c_m reads no higher index.
    Levels (s_i, x_i), each x0^(s-1) x1 or UP^(1-s) x1, give the sum over
    n_1 > ... > n_k >= 1 of prod_i x_i^(n_i - n_(i+1)) n_i^(-s_i), n_(k+1) = 0.

    Rounding: x1 keeps r_m = floor(x (r_(m-1) + c_(m-1))) and stores
    floor(r_m / m), x0 floor(c_m / m), UP is exact.  Errors of at most e m^t
    units per c_m become (e+1) m^t after x0, e m^(t+1) after UP and
    (e+2) m^t after x1, as r_m errs by at most sum_{j<m} e j^t + m.  After
    L letters, u of them UP, each value is within 2L terms^(u+1) units.
    """
    c = [1 << scale] + [0] * terms
    values = [c[0]]
    for letter in reversed(letters):
        if letter == X0:
            c = [0] + [a // m for m, a in enumerate(c[1:], 1)]
        elif letter == UP:
            c = [m * a for m, a in enumerate(c)]
        else:
            num, den = letter.as_integer_ratio()
            shift, r = den.bit_length() - 1, 0  # floats are dyadic
            if num == 1:  # a power of two, as in the Hölder factors: no product
                c = [0] + [(r := (r + a) >> shift) // m for m, a in enumerate(c[:-1], 1)]
            else:
                c = [0] + [(r := (r + a) * num >> shift) // m for m, a in enumerate(c[:-1], 1)]
        values.append(sum(c))
    return values[::-1]


def _holder(entries: tuple[int, ...], bits: int, budget: float = math.inf) -> tuple[int, int]:
    """(V, B) with |V 2^-B - zeta(entries)| < 2^-bits: the Hölder convolution at 1/2.

    Splitting the iterated integral of the word w = w_1...w_n of s by the
    number j of variables above 1/2 (Borwein-Bradley-Broadhurst-Lisonek,
    arXiv:math/9910045) gives zeta(w) = sum_{j=0..n} Li_{(w_1...w_j)^dagger}(1/2)
    Li_{w_(j+1)...w_n}(1/2), dagger swapping x0, x1 and reversing the letters.
    ``_sweep`` at weight 1/2 over w and over its dual gives every factor.

    Bound, in units of 2^-B, with N = bits + t terms and 2^t > 4(n+1).  A
    non-empty factor has coefficients in [0, 2^-m]: it is at most 1, its
    tail past N at most 2^(B-N) units, and the sweep adds 2nN, so it is within
    d = 2nN + 2^(B-N) units (the empty one is exact).  A product of factors
    f, g <= 1 is then within d(g + 1) + d^2 2^-B <= 2d + 1 units, as
    d < 2^guard and guard <= bits, and the final shift floors once:
    (n+1)(4nN + 1) + 1 + (n+1) 2^(B-N+1) units, each part below 2^(guard-1).
    More than ``budget`` terms raise ``PrecisionError``.
    """
    word = [letter for e in entries for letter in [X0] * (e - 1) + [0.5]]
    dual = [0.5 if letter == X0 else X0 for letter in reversed(word)]
    n = len(word)
    terms = bits + (4 * (n + 1)).bit_length()
    scale = bits + ((n + 1) * (4 * n * terms + 1) + 1).bit_length() + 1
    if terms > budget:
        raise PrecisionError(f"zeta{entries} needs {terms} terms, over budget {budget}")
    products = map(operator.mul, _sweep(word, terms, scale), reversed(_sweep(dual, terms, scale)))
    return sum(products) >> scale, scale


def _tail(rate: float, power: int, n: int) -> float:
    """Bound on sum_{m>n} rate^m m^power: past n each term ratio is at most
    q = rate (1 + 1/(n+1))^max(power, 0); for q < 1 it is the next term over 1 - q."""
    if rate == 0.0:
        return 0.0
    q = rate * (1 + 1 / (n + 1)) ** max(power, 0)
    head = math.exp((n + 1) * math.log(rate) + power * math.log(n + 1))
    return head / (1 - q) if q < 1 else math.inf


def _series_length(rate: float, power: int, target: float, budget: int) -> int:
    """The least n <= budget with _tail(rate, power, n) <= target, else budget;
    the bound is infinite until q < 1 and falls with n from there on."""
    low, high = 0, budget
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if _tail(rate, power, mid) <= target else (mid, high)
    return high


def _direct_series(entries: tuple[int, ...], weights: list[float], drift: float,
                   ctx: PrecisionContext) -> float:
    """The level sum of ``_sweep`` for entries s_i and float weights x_i.

    Here r = max |x_i| < 1.  At most m^(k-1) tuples have n_1 = m, with
    n_i^(-s_i) at most m^max(0, -s_i) for i > 1: their terms a_m sum to at
    most r^m m^p, p = k - 1 - s_1 + sum_{i>1} max(0, -s_i).  N terms leave
    a tail of at most min(tol, 2^-56)/2 where ``budget`` allows.  A leading
    UP makes L letters, u of them UP: the value is within U = 2L N^u units
    and sum_{m<=N} m a_m within N U (``_sweep``); the scale keeps U below a
    quarter of the target.  With drift > 0 the weights are positive and each
    within e^(+-drift) of the weight meant, which moves a_m by at most
    (e^(m drift) - 1) a_m <= m drift e^(m drift) a_m: by drift e^(N drift)
    sum_{m<=N} m a_m up to N, and by drift _tail(r e^drift, p + 1, N) past
    it, doubled for float evaluation.  A total over ``ctx.tolerance`` raises
    ``PrecisionError``.
    """
    power = len(entries) - 1 - entries[0] + sum(max(0, -s) for s in entries[1:])
    rate = max(map(abs, weights))
    target = min(ctx.tolerance, 2.0**-56)  # the float64 floor, about 1.4e-17
    terms = _series_length(rate, power, target / 2, ctx.budget)
    levels = [a for s, x in zip(entries, weights) for a in [X0] * (s - 1) + [UP] * (1 - s) + [x]]
    letters = [UP] + levels
    units = 2 * len(letters) * terms ** letters.count(UP)
    scale = math.ceil(-math.log2(target)) + 2 + units.bit_length()
    moments, value = _sweep(letters, terms, scale)[:2]
    moved = drift and (math.exp(terms * drift) * (moments + units * terms) / 2**scale
                       + _tail(rate * math.exp(drift), power + 1, terms))
    bound = _tail(rate, power, terms) + units / 2**scale + 2 * drift * moved
    if not bound <= ctx.tolerance:
        raise PrecisionError(f"series bound {bound:.3g} over tolerance {ctx.tolerance}")
    return value / (1 << scale)


# ---------------------------------------------------------------------------
# nested sums with an undamped first level and a damped later one: p-series
# tails certified per level in float64 numpy


_B_EVEN_FLOAT = tuple(float(bernoulli(2 * k)) for k in range(1, 6))


def _zeta_tail_float(s: int, cutoff: int) -> tuple[float, float]:
    """(sum over n > cutoff of n^-s, remainder bound), in float64."""
    total = cutoff ** (1.0 - s) / (s - 1) - 0.5 * cutoff ** (-1.0 * s)
    rising = 1.0
    for k in range(1, 5):
        rising *= s + 2 * k - 2
        if k > 1:
            rising *= s + 2 * k - 3
        term = _B_EVEN_FLOAT[k - 1] / math.factorial(2 * k) * rising * cutoff ** (-s - 2 * k + 1.0)
        total += term
    rising *= (s + 7) * (s + 8)
    remainder = abs(_B_EVEN_FLOAT[4] / math.factorial(10) * rising * cutoff ** (-s - 9.0))
    return total, remainder


class _Level(NamedTuple):
    rho: float  # weight(n) = rho^n * n^(-s), 0 <= rho <= 1
    s: int


def _check_convergence(s_row: tuple[int, ...], rhos: list[float]) -> None:
    damped = next((i for i, rho in enumerate(rhos) if rho < 1.0), len(rhos))
    prefix = s_row[:damped]
    if prefix and (prefix[0] < 2 or min(prefix) < 1):
        raise DivergenceError("nested sum diverges: the levels before the first damped one must "
                              "form a convergent index (first entry >= 2, all >= 1)")


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
    import numpy as np  # only this fallback needs numpy
    n = np.arange(1, cutoff + 1, dtype=float)
    weights = [n ** float(-s) * (np.exp(n * math.log(rho)) if rho < 1.0 else 1.0) for rho, s in levels]
    inner = 1.0  # sum over the deeper levels below each n; there is at least one
    for w in reversed(weights[1:]):
        cum = np.cumsum(w * inner)
        inner = np.concatenate(([0.0], cum[:-1]))
    value = float(np.sum(weights[0] * inner))
    inner_at_cutoff = float(cum[-1])

    s1 = levels[0].s
    slop = 4e-16 * cutoff * (1.0 + abs(value))
    # p-series outer level: first-order tail correction, second-order residual
    tail, tail_rem = _zeta_tail_float(s1, cutoff)
    value += inner_at_cutoff * tail
    residual = abs(inner_at_cutoff) * tail_rem + slop
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


def _nested_eval(levels: list[_Level], ctx: PrecisionContext) -> float:
    cutoff = 2048
    while True:
        cutoff = min(cutoff, ctx.budget)
        value, bound = _attempt(levels, cutoff, ctx.budget)
        if bound <= ctx.tolerance:
            return value
        if cutoff >= ctx.budget:
            raise PrecisionError(f"nested sum bound {bound:.3g} over tolerance {ctx.tolerance} "
                                 f"within budget {ctx.budget}")
        cutoff *= 8


# ---------------------------------------------------------------------------
# public evaluators


def zeta_pos(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpmath.mpf:
    """zeta(n) for integer n >= 2 by ``_holder`` on the index (n,).

    It runs to 2^-bits <= min(ctx.tolerance, 10^-(digits+2)), about
    3.33 (digits + 2) bits and as many terms (past ``ctx.budget`` it raises
    ``PrecisionError``); the mpf of ``_mp(digits)`` rounds far below that.
    """
    if n < 2:
        raise DomainError("zeta_pos needs n >= 2")
    return _zeta_pos_cached(n, ctx.digits, ctx.budget, float(ctx.tolerance))


@lru_cache(maxsize=None)
def _zeta_pos_cached(n: int, digits: int, budget: int, tolerance: float) -> mpmath.mpf:
    bits = max(math.ceil(-math.log2(tolerance)), math.ceil((digits + 2) * math.log2(10)) + 1)
    fixed, scale = _holder((n,), bits, budget)
    mp = _mp(digits)
    return mp.ldexp(mp.mpf(fixed), -scale)


def li_eval(s: Composition, z: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Multiple polylogarithm Li_s(z) for |z| < 1 and entries >= 0.

    The direct series with every weight z (``_direct_series``), summed to
    min(tolerance, 2^-56) where the budget allows; ``digits`` is not honoured
    past float64.
    """
    if not abs(z) < 1:
        raise DomainError(f"polylogarithm needs |z| < 1, got {z}")
    if any(e < 0 for e in s.entries):
        raise DomainError(f"polylogarithm entries must be >= 0: {s}")
    return _li_cached(s.entries, float(z), ctx)


@lru_cache(maxsize=8192)
def _li_cached(entries: tuple[int, ...], z: float, ctx: PrecisionContext) -> float:
    return _direct_series(entries, [z] * len(entries), 0.0, ctx)


def mzv_eval(s: Composition, ctx: PrecisionContext = DEFAULT_CTX) -> MzvResult:
    """Convergent MZV in float64 with its certified absolute error.

    ``_mzv_cached`` depends on the index alone: ``budget`` does not limit it
    and ``digits`` is not honoured past float64.  The error is 2^-56 plus
    2^-50 of the value, below 1.5e-15; above ``ctx.tolerance`` the call
    raises ``PrecisionError``.
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


@lru_cache(maxsize=4096)
def _mzv_cached(entries: tuple[int, ...]) -> tuple[float, float]:
    """(zeta(entries), error): ``_holder`` to 2^-56, rounded to float64.

    Rounding costs at most 2^-53 of the value; the error allows 2^-50 of it,
    which also covers its own float evaluation and sums of a few values.
    """
    fixed, scale = _holder(entries, 56)
    value = fixed / (1 << scale)
    return value, 2.0**-56 + 2.0**-50 * value


def z_directional(b: BiComposition, eps: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Directional regularized MZV: the r-row damps each index by e^(n r eps).

    Requires eps < 0.  With r_1 > 0 it is ``_direct_series`` with level
    weights P_i = e^(eps (r_1 + ... + r_i)), as prod_i e^(n_i r_i eps) =
    prod_i P_i^(n_i - n_(i+1)); any top row converges, and the sum runs to
    min(tolerance, 2^-56) where the budget allows.  Each float P_i rounds eps
    times the exact sum of the r_i once and ``math.exp`` errs within an ulp:
    a drift of at most 2^-50 (1 + |eps (r_1 + ... + r_i)|) in ln P_i.  With
    no level damped it is ``mzv_eval`` of the top row.  With r_1 = 0 and a
    later level damped, such as "[2,1 | 0,1]", ``_nested_eval`` sums it in
    float64 numpy to ``ctx.tolerance``.  Undamped leading levels must form a
    convergent index.
    """
    if not eps < 0:
        raise DomainError(f"directional regularization needs eps < 0, got {eps}")
    if b.r_row[0]:
        exponents = [float(r) * eps for r in accumulate(b.r_row)]
        drift = 2.0**-50 * (1 + max(map(abs, exponents)))
        return _direct_series(b.s_row, [math.exp(a) for a in exponents], drift, ctx)
    rhos = [math.exp(float(r) * eps) for r in b.r_row]
    _check_convergence(b.s_row, rhos)
    if not any(b.r_row):
        return mzv_eval(Composition(b.s_row), ctx).value
    return _nested_eval([_Level(rho, s) for s, rho in zip(b.s_row, rhos)], ctx)


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
