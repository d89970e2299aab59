"""High-precision numeric layer: zeta values, polylogarithms, nested MZV sums.

Design notes.  Every engine sums in integer fixed point with floor
rounding, so its error is a count of units.  ``zeta_pos`` sums Borwein's
alternating series (``_borwein``) over weights kept per precision
(``_borwein_weights``).  One series engine, ``_sweep``, runs the
power-series recurrence of an iterated integral letter by letter:
``mzv_eval`` splits the word at 1/2 (``_holder``), ``li_eval`` and damped
``z_directional`` sum the direct series (``_direct_series``); undamped
levels above the first damped one enter that series as one vector letter,
the tails of their MZV.
Each public evaluator answers a repeat with one ``lru_cache`` lookup: the
checks that read only the key run inside the cached function, so an invalid
key raises on every call (lru_cache stores no exception), and the tests of
the caller's tolerance and budget run around it.

Exact material (Bernoulli numbers, the Laurent expansion of e^eps/(1-e^eps),
the pole projector) is kept in Fraction arithmetic so identity checks can
demand literal zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .compositions import BiComposition, Composition, _trusted_composition, raise_first
from .core import DomainError, Sparse, TPoly, power_text

if TYPE_CHECKING:
    import mpmath


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
    bound.  The hash is computed once and kept in a hidden slot, as for
    ``Composition``: a context is part of every evaluator's cache key.  So
    are the bits ``zeta_pos`` runs to (``_zeta_bits``), which depend on
    digits and tolerance only.
    """

    digits: int = 20
    budget: int = 100_000
    tolerance: float = 1e-3
    _hash: int = field(init=False, repr=False, compare=False)
    _bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.digits < 15:
            raise DomainError("working precision must be >= 15 digits")
        if self.budget < 1_000:
            raise DomainError("summation budget must be >= 1000")
        if not 0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be positive and finite, got {self.tolerance}")
        object.__setattr__(self, "_hash", hash((self.digits, self.budget, self.tolerance)))
        # 2^-bits <= min(tolerance, 10^-(digits+2))
        object.__setattr__(self, "_bits", max(math.ceil(-math.log2(self.tolerance)),
                                              math.ceil((self.digits + 2) * math.log2(10)) + 1))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (PrecisionContext, (self.digits, self.budget, self.tolerance))


DEFAULT_CTX = PrecisionContext()


class MzvResult(NamedTuple):
    value: float
    error: float


def format_value(value, error: float) -> str:
    """Decimal string with the reported error bound, e.g. ``1.2020569032 ± 3e-11``."""
    import mpmath  # imported on first use: ``import mzvkit.cli`` stays without it

    return f"{mpmath.nstr(mpmath.mpf(value), 11)} ± {error:.0e}"


# bounded: an evicted context is rebuilt at the same precision, and mpf
# arithmetic rounds at the precision, so no value depends on which one it is
@lru_cache(maxsize=64)
def _mp(digits: int) -> mpmath.ctx_mp.MPContext:
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = digits + 10
    return ctx


# ---------------------------------------------------------------------------
# exact layer: Bernoulli numbers, zeta at non-positive integers, Laurent series


def bernoulli(n: int) -> Fraction:
    """Bernoulli number with the B(1) = +1/2 convention, as an exact rational.

    B(0), ..., B(n) with B(1) = -1/2 are built in one loop from
    sum_{j<=m} C(m+1, j) B(j) = 0; nothing is kept between calls.
    """
    if n < 0:
        raise DomainError("Bernoulli numbers need n >= 0")
    values = [Fraction(1)]
    for m in range(1, n + 1):
        values.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(values)) / (m + 1))
    return -values[n] if n == 1 else values[n]


def zeta_nonpos(i: int) -> Fraction:
    """Exact rational zeta(-i) = -B(i+1)/(i+1) for i >= 0."""
    if i < 0:
        raise DomainError("zeta_nonpos needs i >= 0")
    return -bernoulli(i + 1) / (i + 1)


class LaurentPoly(Sparse):
    """Finite Laurent polynomial in eps with exact rational coefficients."""

    __slots__ = ()

    _mul_key = staticmethod(operator.add)
    _text = staticmethod(power_text("eps"))


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
    c_m / m (x0), (1/m) sum_{j<m} x^(m-j) c_j (x1 of float weight |x| <= 1),
    m c_m (UP) or c_m V_m (a vector letter: a list V of terms + 1 fixed-point
    values); a value is sum_{m>=1} c_m, and c_m reads no higher index.
    Levels (s_i, x_i), each x0^(s-1) x1 or UP^(1-s) x1, give the sum over
    n_1 > ... > n_k >= 1 of prod_i x_i^(n_i - n_(i+1)) n_i^(-s_i), n_(k+1) = 0.

    Rounding: x1 keeps r_m = floor(x (r_(m-1) + c_(m-1))) and stores
    floor(r_m / m), x0 floor(c_m / m), UP is exact.  Errors of at most e m^t
    units per c_m become (e+1) m^t after x0, e m^(t+1) after UP and
    (e+2) m^t after x1, as r_m errs by at most sum_{j<m} e j^t + m: after L
    such letters, u of them UP, each value is within 2L terms^(u+1) units.
    A vector stores floor(c_m V_m 2^-scale); for |V_m| <= 2, V_m within v
    units and exact |c_m| <= C (in value), e units in c_m become 2e + C v + 1.
    """
    c = [1 << scale] + [0] * terms
    values = [c[0]]
    for letter in reversed(letters):
        if letter == X0:
            c = [0] + [a // m for m, a in enumerate(c[1:], 1)]
        elif letter == UP:
            c = [m * a for m, a in enumerate(c)]
        elif isinstance(letter, list):
            c = [a * v >> scale for a, v in zip(c, letter)]
        else:
            num, den = letter.as_integer_ratio()
            shift, r = den.bit_length() - 1, 0  # floats are dyadic
            if num == 1:  # a power of two, as in the Hölder factors: no product
                c = [0] + [(r := (r + a) >> shift) // m for m, a in enumerate(c[:-1], 1)]
            else:
                c = [0] + [(r := (r + a) * num >> shift) // m for m, a in enumerate(c[:-1], 1)]
        values.append(sum(c))
    return values[::-1]


def _holder(entries: tuple[int, ...], bits: int) -> tuple[int, int]:
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
    """
    word = [letter for e in entries for letter in [X0] * (e - 1) + [0.5]]
    dual = [0.5 if letter == X0 else X0 for letter in reversed(word)]
    n = len(word)
    terms = bits + (4 * (n + 1)).bit_length()
    scale = bits + ((n + 1) * (4 * n * terms + 1) + 1).bit_length() + 1
    products = map(operator.mul, _sweep(word, terms, scale), reversed(_sweep(dual, terms, scale)))
    return sum(products) >> scale, scale


def _prefix_tails(prefix: tuple[int, ...], terms: int, scale: int) -> list[int]:
    """U(m) = sum over n_1 > ... > n_j > m of prod_i n_i^(-s_i) for m = 0..terms,
    in units of 2^-scale, for a convergent prefix s_1..s_j with every s_i >= 1.

    U_i, the tail of the first i levels, starts at zeta(s_1..s_i) (``_holder``
    floored to the scale, within 2 units) and drops the terms with n_i = m:
    U_i(m) = U_i(m-1) - floor(U_(i-1)(m) / m^(s_i)), U_0 = 1.  If U_(i-1)(m)
    is within a + b m units, a step adds at most a + b + 1, so U_i(m) is
    within 2 + (3i - 2) m <= 3i (m+1) units.
    """
    tails = [1 << scale] * (terms + 1)
    for i, s in enumerate(prefix, 1):
        fixed, shift = _holder(prefix[:i], scale)
        u = fixed >> (shift - scale)
        tails = [u] + [u := u - t // m**s for m, t in enumerate(tails[1:], 1)]
    return tails


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


def _direct_series(prefix: tuple[int, ...], entries: tuple[int, ...], weights: list[float],
                   drift: float, ctx: PrecisionContext) -> float:
    """The level sum of ``_sweep`` for entries s_i and float weights x_i,
    below the undamped levels of ``prefix`` (empty for none).

    Here r = max |x_i| < 1.  At most m^(k-1) tuples have n_1 = m, with
    n_i^(-s_i) at most m^max(0, -s_i) for i > 1: their terms a_m sum to at
    most r^m m^p, p = k - 1 - s_1 + sum_{i>1} max(0, -s_i).  A prefix of
    depth j, all entries >= 1, lies above n_1 = m and weighs a_m by its tail
    U(m) (``_prefix_tails``), 0 <= U(m) <= U(0) <= T = zeta(2) < 1.645 (T = 1
    for none).  N terms make T _tail(r, p, N) at most min(tol, 2^-56)/2
    where ``budget`` allows.

    The letters are a leading UP, the vector U for a prefix, and L level
    letters, u of them UP; the first value is sum_{m<=N} m a_m U(m).  With no
    prefix the second is within E = 2(L+1) N^(u+1) units (``_sweep``).  With
    one, c_m is within 2L m^u units before the vector, U within 3j(m+1) <=
    6jm and a_m <= m^max(p, 0), so after it c_m is within (4L + 6j + 1) m^t,
    t = max(u, max(p, 0) + 1): E = (4L + 6j + 1) N^(t+1).  The first value is
    within N E, and the scale keeps E below a quarter of the target.  With
    drift > 0 the weights are positive and each within e^(+-drift) of the
    weight meant, which moves a_m U(m) by at most (e^(m drift) - 1) a_m U(m)
    <= m drift e^(m drift) a_m U(m): by drift e^(N drift) sum_{m<=N} m a_m U(m)
    up to N, and by drift T _tail(r e^drift, p + 1, N) past it, doubled for
    float evaluation.  Rounding the fixed-point sum to float64 adds up to
    2^-53 of the value.  A total over ``ctx.tolerance`` raises ``PrecisionError``.
    """
    power = len(entries) - 1 - entries[0] + sum(max(0, -s) for s in entries[1:])
    rate = max(map(abs, weights))
    target = min(ctx.tolerance, 2.0**-56)  # the float64 floor, about 1.4e-17
    top = 1.645 if prefix else 1.0
    terms = _series_length(rate, power, target / (2 * top), ctx.budget)
    levels = [a for s, x in zip(entries, weights) for a in [X0] * (s - 1) + [UP] * (1 - s) + [x]]
    if prefix:
        exponent = max(levels.count(UP), max(power, 0) + 1) + 1
        units = (4 * len(levels) + 6 * len(prefix) + 1) * terms**exponent
    else:
        units = 2 * (len(levels) + 1) * terms ** (levels.count(UP) + 1)
    scale = math.ceil(-math.log2(target)) + 2 + units.bit_length()
    vector = [_prefix_tails(prefix, terms, scale)] if prefix else []
    moments, value = _sweep([UP] + vector + levels, terms, scale)[:2]
    moved = drift and (math.exp(terms * drift) * (moments + units * terms) / 2**scale
                       + top * _tail(rate * math.exp(drift), power + 1, terms))
    result = value / (1 << scale)
    bound = top * _tail(rate, power, terms) + units / 2**scale + 2 * drift * moved
    bound += 2.0**-53 * abs(result)
    if not bound <= ctx.tolerance:
        raise PrecisionError(f"series bound {bound:.3g} over tolerance {ctx.tolerance}")
    return result


# ---------------------------------------------------------------------------
# zeta(n): Borwein's alternating series


def _borwein_terms(bits: int) -> int:
    """N = ceil(2 (bits + 4) / 5), the terms ``_borwein`` sums to 2^-bits."""
    return (2 * (bits + 4) + 4) // 5


def _borwein(n: int, bits: int) -> tuple[int, int]:
    """(V, B) with |V 2^-B - zeta(n)| < 2^-bits for integer n >= 2.

    Algorithm 2 of P. Borwein, An efficient algorithm for the Riemann zeta
    function (CMS Conf. Proc. 27, 2000): with d_k = sum_{i<=k} t_i, t_0 = 1
    and t_i = t_(i-1) 2 (N+i-1)(N-i+1) / (i (2i-1)),
    zeta(n) = 2^(n-1) / (d_N (2^(n-1) - 1)) sum_{k<N} (-1)^k (d_N - d_k) / (k+1)^n
    up to |gamma_N| <= 4 (3 + sqrt 8)^-N, using 1/|1 - 2^(1-n)| <= 2 and
    Gamma(n) >= 1.  N = ``_borwein_terms(bits)`` makes 2.5 N >= bits + 4,
    and log2(3 + sqrt 8) > 2.5, so |gamma_N| <= 2^-(bits+2).  The weights
    d_N - d_k depend on bits alone (``_borwein_weights``).

    Rounding, in units of 2^-B with B = bits + 3: the N floors of the sum
    err by less than N units, and the factor, at most 2 / d_N with
    d_N >= t_0 + t_1 = 1 + 2N^2 > 2N, takes that below 1 unit; the final
    floor adds under 1 more.  Under 2 units and the truncation stay below
    2^-(bits+1).
    """
    weights, d = _borwein_weights(bits)
    quotients = [w // k**n for k, w in enumerate(weights, 1)]
    half = 1 << (n - 1)
    return (sum(quotients[::2]) - sum(quotients[1::2])) * half // (d * (half - 1)), bits + 3


# bounded and small: an entry holds N integers of about 2.5 N + bits bits,
# 17 KiB at 100 digits and 1.2 MiB at 1000; an evicted one is rebuilt the same
@lru_cache(maxsize=8)
def _borwein_weights(bits: int) -> tuple[tuple[int, ...], int]:
    """((d_N - d_k) 2^(bits+3) for k < N, d_N): the table of ``_borwein`` at bits.

    Each division of the recurrence for t_i is exact, as
    t_i = 4^i C(N+i, 2i) - 2 4^(i-1) C(N+i-1, 2i-1) is an integer; a
    remainder raises.
    """
    terms = _borwein_terms(bits)
    t = d = 1
    partial = [d]
    for i in range(1, terms + 1):
        t, r = divmod(t * 2 * (terms + i - 1) * (terms - i + 1), i * (2 * i - 1))
        if r:
            raise ArithmeticError(f"Borwein coefficient t_{i} of {terms} terms is not an integer")
        d += t
        partial.append(d)
    scale = bits + 3
    return tuple((d - p) << scale for p in partial[:-1]), d


# ---------------------------------------------------------------------------
# public evaluators


def zeta_pos(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpmath.mpf:
    """zeta(n) for integer n >= 2 by Borwein's alternating series (``_borwein``).

    It runs to 2^-bits <= min(ctx.tolerance, 10^-(digits+2)), about
    3.33 (digits + 2) bits, in 0.4 (bits + 4) terms whatever n (past
    ``ctx.budget`` it raises ``PrecisionError``); the mpf of ``_mp(digits)``
    rounds far below that.
    """
    if n < 2:
        raise DomainError("zeta_pos needs n >= 2")
    return _zeta_pos_cached(n, ctx.digits, _zeta_bits(n, ctx))


def _zeta_bits(n: int, ctx: PrecisionContext) -> int:
    """The bits zeta(n) runs to at ctx, 2^-bits <= min(ctx.tolerance, 10^-(digits+2)),
    kept by the context; past ``ctx.budget`` Borwein terms (``_borwein_terms``)
    it raises ``PrecisionError``."""
    bits = ctx._bits
    terms = _borwein_terms(bits)
    if terms > ctx.budget:
        raise PrecisionError(f"zeta{(n,)} needs {terms} terms, over budget {ctx.budget}")
    return bits


# keyed on the bits, not the tolerance: every tolerance above 2^-bits of the
# digits gives one value; the budget is checked before the lookup
@lru_cache(maxsize=1024)
def _zeta_pos_cached(n: int, digits: int, bits: int) -> mpmath.mpf:
    fixed, scale = _borwein(n, bits)
    mp = _mp(digits)
    return mp.ldexp(mp.mpf(fixed), -scale)


def li_eval(s: Composition, z: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Multiple polylogarithm Li_s(z) for |z| < 1 and entries >= 0.

    The direct series with every weight z (``_direct_series``), summed to
    min(tolerance, 2^-56) where the budget allows; ``digits`` is not honoured
    past float64, and a tolerance below the float64 rounding of the value
    (2^-53 of it) raises ``PrecisionError``.
    """
    return _li_cached(s.entries, z, ctx)


@lru_cache(maxsize=8192)
def _li_cached(entries: tuple[int, ...], z: float, ctx: PrecisionContext) -> float:
    if not abs(z) < 1:
        raise DomainError(f"polylogarithm needs |z| < 1, got {z}")
    if min(entries) < 0:  # only a composition built past its own checks has one
        raise DomainError(f"polylogarithm entries must be >= 0: {_trusted_composition(entries)}")
    return _direct_series((), entries, [float(z)] * len(entries), 0.0, ctx)


def mzv_eval(s: Composition, ctx: PrecisionContext = DEFAULT_CTX) -> MzvResult:
    """Convergent MZV in float64 with its certified absolute error.

    ``_mzv_cached`` depends on the index alone: ``budget`` does not limit it
    and ``digits`` is not honoured past float64.  The error is 2^-56 plus
    2^-50 of the value, below 1.5e-15; above ``ctx.tolerance`` the call
    raises ``PrecisionError``, on a cached value too.
    """
    result = _mzv_cached(s.entries)
    if result.error > ctx.tolerance:
        raise PrecisionError(
            f"zeta{s} not certifiable at tolerance {ctx.tolerance} in float64 "
            f"(bound {result.error:.3g})"
        )
    return result


@lru_cache(maxsize=4096)
def _mzv_cached(entries: tuple[int, ...]) -> MzvResult:
    """(zeta(entries), error): ``_holder`` to 2^-56, rounded to float64.

    Rounding costs at most 2^-53 of the value; the error allows 2^-50 of it,
    which also covers its own float evaluation and sums of a few values.
    """
    s = Composition(entries)
    if not s.is_convergent:
        raise DomainError(f"MZV evaluation needs a convergent composition: {s}")
    fixed, scale = _holder(entries, 56)
    value = fixed / (1 << scale)
    return MzvResult(value, 2.0**-56 + 2.0**-50 * value)


def z_directional(b: BiComposition, eps: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Directional regularized MZV: the r-row damps each index by e^(n r eps).

    Requires eps < 0.  The levels before the first one with r_k > 0 (an
    exact test) are undamped and must form a convergent index A (first entry
    >= 2, all >= 1).  With no level damped it is ``mzv_eval`` of the top row,
    else ``_direct_series`` of levels k.. below the prefix A, with level
    weights P_i = e^(eps (r_k + ... + r_i)), as prod_(i>=k) e^(n_i r_i eps) =
    prod_(i>=k) P_i^(n_i - n_(i+1)); any top row from k on converges.  Each
    float P_i rounds eps times the exact sum of the r_i once and ``math.exp``
    errs within an ulp: a drift of at most 2^-50 (1 + |eps (r_k + ... + r_i)|)
    in ln P_i.  An infinite eps is a domain error, as nan is.
    """
    return _zdir_cached(b, eps, ctx)


@lru_cache(maxsize=8192)
def _zdir_cached(b: BiComposition, eps: float, ctx: PrecisionContext) -> float:
    if not eps < 0:
        raise DomainError(f"directional regularization needs eps < 0, got {eps}")
    if not math.isfinite(eps):
        raise DomainError(f"directional regularization needs a finite eps, got {eps}")
    k = next((i for i, r in enumerate(b.r_row) if r > 0), b.depth)
    prefix = b.s_row[:k]
    if prefix and (prefix[0] < 2 or min(prefix) < 1):
        raise DivergenceError("nested sum diverges: the levels before the first damped one must "
                              "form a convergent index (first entry >= 2, all >= 1)")
    if k == b.depth:
        return mzv_eval(Composition(b.s_row), ctx).value
    exponents = [float(r) * eps for r in accumulate(b.r_row[k:])]
    drift = 2.0**-50 * (1 + max(map(abs, exponents)))
    return _direct_series(prefix, b.s_row[k:], [math.exp(a) for a in exponents], drift, ctx)


def polylog_derivative_check(
    s: Composition, eps: float, h: float, ctx: PrecisionContext = DEFAULT_CTX
) -> float:
    """|central difference of Li_{s+e1}(e^eps) minus Li_s(e^eps)|.

    The raised index is the antiderivative of the original one in eps, so the
    discrepancy is O(h^2) plus evaluation error.
    """
    if not (eps < 0 and eps + h < 0 and eps - h < 0):
        raise DomainError("need eps < 0 with eps +- h < 0")
    raised = raise_first(s)
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
