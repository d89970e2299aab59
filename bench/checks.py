"""Independent invariants for every result the benchmark receives.

Nothing here calls into mzvkit: exact results are checked against counting
formulas (binomials, Delannoy numbers) and numeric results against closed
forms evaluated with mpmath.  Result objects are only read through their
data accessors (``items``, ``monomials``, ``entries``).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath


class CheckFailure(AssertionError):
    """A result disagrees with an invariant that holds for correct output."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def delannoy(p: int, q: int) -> int:
    """Number of terms (with multiplicity) of the quasi-shuffle of depths p and q."""
    return sum(math.comb(p, k) * math.comb(q, k) * 2**k for k in range(min(p, q) + 1))


def coefficient_sum(combo) -> Fraction:
    return sum((Fraction(c) for _, c in combo.items()), Fraction(0))


def tensor_word_sum(exponents: tuple[int, ...]) -> int:
    """Coefficient sum of the word image of an exponent tensor.

    x^n maps to n! times x1^n; a deeper tensor shuffles that block with the
    x0-prefixed image of its tail, multiplying the sums by a binomial.
    """
    head, rest = exponents[0], exponents[1:]
    if not rest:
        return math.factorial(head)
    tail_len = sum(rest) + len(rest)  # letters of the tail image after the x0 prefix
    return math.factorial(head) * tensor_word_sum(rest) * math.comb(head + tail_len, head)


# ---------------------------------------------------------------------------
# exact algebra


def check_sum(combo, expected: int | Fraction, what: str) -> None:
    got = coefficient_sum(combo)
    require(got == expected, f"{what}: coefficient sum {got} != {expected}")


def check_grading(combo, graded, what: str) -> None:
    """Every term carries the grading the product preserves (weight, depth, ...)."""
    for basis, _ in combo.items():
        require(graded(basis), f"{what}: term {basis} breaks the grading")


def check_regularized(poly, ones: int, tail: tuple[int, ...], shuffle_side: bool) -> None:
    """Leading term and weight grading of a regularized leading-ones composition.

    Both regularizations are algebra maps sending [1] to T, and [1]^(*n) * tail
    is n! [1^n, tail] plus terms with fewer leading ones, so the T-degree is n
    and the top coefficient is zeta(tail)/n!.  Every symbol monomial of the
    T^d coefficient has weight w - d.  For the shuffle side zsh([1]^n) = T^n/n!.
    """
    weight = ones + sum(tail)
    degrees = sorted(d for d, _ in poly.items())
    require(degrees and degrees[-1] == ones, f"regularized degree {degrees} != {ones}")
    top = list(poly.coeff(ones).monomials())
    expected_symbols = (tail,) if tail else ()
    require(
        len(top) == 1
        and tuple(sym.index.entries for sym in top[0][0]) == expected_symbols
        and top[0][1] == Fraction(1, math.factorial(ones)),
        f"top coefficient {top} != zeta{tail}/{ones}!",
    )
    for deg, expr in poly.items():
        for mono, _ in expr.monomials():
            got = sum(sum(sym.index.entries) for sym in mono)
            require(got == weight - deg, f"T^{deg} monomial of weight {got}, expected {weight - deg}")
    if shuffle_side and not tail:
        require(degrees == [ones], f"zsh([1]^{ones}) has extra degrees {degrees}")


# ---------------------------------------------------------------------------
# CLI output


def cli_sum(stdout: str) -> Fraction:
    """Coefficient sum of an ``eval --format json`` result."""
    data = json.loads(stdout)
    return sum((Fraction(t["coeff"]) for t in data["terms"]), Fraction(0))


_CSV_ROW = re.compile(r"^(\d+),(\[[\d,]*\]);(\[[\d,]*\]),(\[[\d,]*\]),(-?\d+/\d+)$")


def _entries(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip("[]").split(","))


def pair_key(a: tuple[int, ...], b: tuple[int, ...]) -> tuple:
    """Source pairs of equal weight are unordered."""
    return (a, b) if sum(a) != sum(b) else tuple(sorted((a, b)))


def parse_eds(stdout: str, fmt: str) -> dict[tuple, dict[tuple[int, ...], Fraction]]:
    """Relations keyed by source pair, each a map composition -> coefficient."""
    out: dict[tuple, dict[tuple[int, ...], Fraction]] = {}
    if fmt == "json":
        for rel in json.loads(stdout):
            pair = pair_key(*(tuple(x) for x in rel["source_pair"]))
            require(pair not in out, f"duplicate relation source {pair}")
            out[pair] = {tuple(t["composition"]): Fraction(t["coeff"]) for t in rel["terms"]}
        return out
    lines = stdout.strip().splitlines()
    require(lines[0] == "weight,source_pair,term_composition,coefficient", "bad csv header")
    for line in lines[1:]:
        m = _CSV_ROW.match(line)
        require(m is not None, f"bad csv row {line!r}")
        pair = pair_key(_entries(m.group(2)), _entries(m.group(3)))
        out.setdefault(pair, {})[_entries(m.group(4))] = Fraction(m.group(5))
    return out


def convergent_indices(weight: int) -> list[tuple[int, ...]]:
    """All positive compositions of the weight with first entry >= 2."""
    out = []

    def build(remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            if prefix[0] >= 2:
                out.append(prefix)
            return
        for first in range(1, remaining + 1):
            build(remaining - first, prefix + (first,))

    if weight >= 2:
        build(weight, ())
    return out


def expected_relation_sums(weight: int) -> dict[tuple, int]:
    """Coefficient sum of shuffle minus stuffle for every generating pair.

    The shuffle of positive compositions of weights a, b has C(a+b, a) terms
    and the stuffle of depths p, q has D(p, q); the extended set adds the
    pairs ([1], s) for convergent s one weight down.
    """
    sums = {}
    for half in range(2, weight // 2 + 1):
        left, right = convergent_indices(half), convergent_indices(weight - half)
        for a in left:
            for b in right:
                sums[pair_key(a, b)] = math.comb(weight, half) - delannoy(len(a), len(b))
    for b in convergent_indices(weight - 1):
        sums[((1,), b)] = weight - delannoy(1, len(b))
    return sums


def check_eds(relations: dict, weight: int, rank: int) -> None:
    expected = expected_relation_sums(weight)
    for pair, terms in relations.items():
        require(pair in expected, f"weight {weight}: unexpected source pair {pair}")
        for entries in terms:
            require(sum(entries) == weight and entries[0] >= 2 and min(entries) >= 1,
                    f"weight {weight}: relation term {entries} is not convergent of the weight")
        got = sum(terms.values(), Fraction(0))
        require(got == expected[pair], f"weight {weight}: {pair} sums to {got}, expected {expected[pair]}")
    for pair, total in expected.items():
        require(total == 0 or pair in relations, f"weight {weight}: relation for {pair} missing")
    require(len(relations) >= rank, f"weight {weight}: {len(relations)} relations below rank {rank}")


# Zagier's dimensions d_w for w = 2..10 (upper bounds reached by double shuffle)
DIMENSION_BOUNDS = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4, 9: 5, 10: 7}


def check_rank(result, weight: int) -> None:
    rank, bound = result
    size = len(convergent_indices(weight))
    require(bound == DIMENSION_BOUNDS[weight], f"weight {weight}: dimension bound {bound}")
    require(rank == size - bound, f"weight {weight}: rank {rank} with {size} convergent indices")


# ---------------------------------------------------------------------------
# numeric truths (mpmath, independent of the package)

_TRUTH_DPS = 40
_GAP_DPS = 140  # above the 100 + 20 digits of the most precise truth


@lru_cache(maxsize=None)
def mzv_truth(entries: tuple[int, ...]) -> mpmath.mpf:
    """Closed form for the convergent indices the numerics workload requests.

    zeta(n); Euler's zeta(n,1) = n/2 zeta(n+1) - 1/2 sum zeta(n-k) zeta(k+1);
    zeta({2}^n) = pi^2n/(2n+1)!; and, by duality, zeta(2,{1}^k) = zeta(k+2)
    and zeta(3,{1}^k) = zeta(k+2,1).
    """
    with mpmath.workdps(_TRUTH_DPS):
        head, rest = entries[0], entries[1:]
        if not rest:
            return +mpmath.zeta(head)
        if set(entries) == {2}:
            n = len(entries)
            return mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1)
        if set(rest) == {1} and head == 2:
            return +mpmath.zeta(len(rest) + 2)
        if set(rest) == {1} and head == 3 and len(rest) > 1:
            return mzv_truth((len(rest) + 2, 1))
        if rest == (1,):
            n = head
            total = mpmath.mpf(n) / 2 * mpmath.zeta(n + 1)
            return total - sum(mpmath.zeta(n - k) * mpmath.zeta(k + 1) for k in range(1, n - 1)) / 2
    raise ValueError(f"no closed form for {entries}")


@lru_cache(maxsize=None)
def li_truth(entries: tuple[int, ...], z: float) -> mpmath.mpf:
    """Li_k(z) by mpmath.polylog, and Li_(1,1)(z) = log(1-z)^2 / 2."""
    with mpmath.workdps(_TRUTH_DPS):
        if len(entries) == 1:
            return mpmath.polylog(entries[0], mpmath.mpf(z))
        if entries == (1, 1):
            return mpmath.log(1 - mpmath.mpf(z)) ** 2 / 2
    raise ValueError(f"no closed form for Li{entries}")


@lru_cache(maxsize=None)
def zeta_truth(n: int, digits: int) -> mpmath.mpf:
    with mpmath.workdps(digits + 20):
        return +mpmath.zeta(n)


def check_close(value, truth, bound: float, what: str) -> None:
    """|value - truth| <= bound, evaluated in mpmath at the truth's precision."""
    with mpmath.workdps(_GAP_DPS):
        gap = abs(mpmath.mpf(value) - truth)
    require(gap <= bound, f"{what}: |value - truth| = {mpmath.nstr(gap, 3)} > bound {bound:.3g}")


def check_printed(stdout: str, truth, what: str) -> None:
    """A CLI ``value ± bound`` line, allowing for its 11 significant digits."""
    text, _, bound_text = stdout.strip().partition(" ± ")
    require(bound_text != "", f"{what}: no bound in {stdout!r}")
    rounding = 10.0 ** (math.floor(math.log10(abs(float(truth)))) - 10) if truth else 1e-300
    check_close(mpmath.mpf(text), truth, float(bound_text) + rounding, what)


_ZETA2 = math.pi**2 / 6  # every convergent MZV lies in (0, zeta(2)]


def expr_error(expr, tol: float) -> float:
    """Error bound of a numerically evaluated symbol polynomial.

    Each symbol is certified to within tol of a true value in (0, zeta(2)], so
    a monomial of k symbols is off by at most (zeta(2)+tol)^k - zeta(2)^k.
    """
    return sum(
        abs(float(c)) * ((_ZETA2 + tol) ** len(mono) - _ZETA2 ** len(mono))
        for mono, c in expr.monomials()
    )


def check_diagram(zsh, zst, lhs, rhs, gamma, tol: float) -> None:
    """shuffle-regularized = rho(stuffle-regularized), coefficientwise, within error bars.

    rho sends T^n to sum_k gamma_k n!/(n-k)! T^(n-k); the gamma table enters
    as exact up to its 20-digit working precision.
    """
    left_err = {d: expr_error(c, tol) for d, c in zsh.items()}
    right_err: dict[int, float] = {}
    for n, c in zst.items():
        err = expr_error(c, tol)
        for k in range(n + 1):
            falling = math.factorial(n) // math.factorial(n - k)
            right_err[n - k] = right_err.get(n - k, 0.0) + err * abs(float(gamma[k])) * falling
    for d in set(left_err) | set(right_err) | {d for d, _ in lhs.items()} | {d for d, _ in rhs.items()}:
        gap = abs(float(lhs.coeff(d, 0.0)) - float(rhs.coeff(d, 0.0)))
        bound = left_err.get(d, 0.0) + right_err.get(d, 0.0) + 1e-12
        require(gap <= bound, f"diagram T^{d}: gap {gap:.3g} > bound {bound:.3g}")
