"""The three workloads: seeded request streams and their correctness checks.

Every workload is a fixed list of requests that one pass sends in a closed
loop (one client, the next request after the previous returns).  The list
depends only on the seed.  Package caches are cleared before each pass, so
every pass replays the same cold start and "fresh" (first occurrence of an
input in the pass) and "repeat" mean the same thing in every pass.

Requests call mzvkit through module attributes at call time, so the traced
run sees every call through the wrappers it installs.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable

import checks

import mzvkit.cli as cli
import mzvkit.compositions as comp
import mzvkit.core as core
import mzvkit.free_rba as frba
import mzvkit.numerics as num
import mzvkit.regularization as reg
import mzvkit.words as words

# Occurrences per pool item, cycled over each kind's items in seeded order:
# skewed (one item in eight is asked six times) with a mean of 17/8, so
# about 53% of the requests repeat an earlier input.
PROFILE = (1, 1, 2, 1, 3, 1, 2, 6)

BUDGET = 200_000  # the CLI default summation budget
POOL_SEED = 20268  # the algebra pool; the verification suites use the same seed

# Requested tolerances of the p-series requests; looser ones are asked more
# often.  The counts depend on the tolerance only, never on the seed, so the
# share of requests the seed code refuses (about a fifth) is the same for
# every seed.  Refused requests stay in the stream and repeat like the others.
MZV_TOLERANCES = {1e-3: 3, 1e-4: 2, 1e-6: 1, 1e-8: 1}
DIAGRAM_TOLERANCES = (1e-3, 1e-4)
LI_TOL = 1e-10  # CLI default for `li`
ZDIR_TOL = 1e-8  # CLI default for `zdir`
ZETA_TOL = 1e-15  # CLI default for `zeta`
ZETA_DIGITS = (20, 50, 100)

# Convergent indices of weight <= 8 with a closed form (see checks.mzv_truth).
MZV_INDICES = (
    [(n,) for n in range(2, 9)]
    + [(2,) + (1,) * k for k in range(1, 7)]
    + [(n, 1) for n in range(3, 8)]
    + [(3,) + (1,) * k for k in range(2, 6)]
    + [(2, 2), (2, 2, 2), (2, 2, 2, 2)]
)


class Refused(Exception):
    """The CLI exited with code 3 (precision failure)."""


@dataclass(frozen=True, slots=True)
class Request:
    key: tuple  # identity of the input; a repeat has the key of an earlier request
    kind: str  # request type, also the name of its root span
    path: str  # class the latency is reported under
    call: Callable[[], object]
    check: Callable[[object], None]
    cold: bool = False  # start from empty package caches and a collected heap


def run_cli(argv: list[str]) -> str:
    """``mzvkit <argv>`` in-process, returning captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 3:
        raise Refused(err.getvalue().strip())
    if code != 0:
        raise RuntimeError(f"mzvkit {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _expand(rng: random.Random, pools: list[list[Request]]) -> list[Request]:
    """The seeded stream: which inputs of each pool are hot, and the order."""
    stream = []
    for pool in pools:
        pool = list(pool)
        rng.shuffle(pool)
        for i, req in enumerate(pool):
            stream.extend([req] * PROFILE[i % len(PROFILE)])
    rng.shuffle(stream)
    return stream


def _stratified(draw: Callable[[], tuple], size: Callable[[tuple], int],
                bins: range, per_bin: int) -> list[tuple]:
    """Distinct draws, exactly per_bin of them for each size in bins."""
    want = dict.fromkeys(bins, per_bin)
    out: dict[tuple, None] = {}
    while any(want.values()):
        item = draw()
        b = size(item)
        if want.get(b) and item not in out:
            out[item] = None
            want[b] -= 1
    return list(out)


def _weight_depth(*parts: tuple[int, ...]) -> int:
    return sum(sum(p) + len(p) for p in parts)


def _entries(rng: random.Random, low: int, high: int, max_len: int) -> tuple[int, ...]:
    return tuple(rng.randint(low, high) for _ in range(rng.randint(1, max_len)))


def _word(rng: random.Random, max_degree: int) -> tuple[int, ...]:
    degree = rng.randint(1, max_degree)
    return tuple(rng.randint(0, 1) for _ in range(degree - 1)) + (1,)


def _tensor(rng: random.Random, max_degree: int) -> tuple[int, ...]:
    while True:
        exps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        if exps[-1] >= 1 and sum(exps) + len(exps) - 1 <= max_degree:
            return exps


def _bi(rng: random.Random) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    depth = rng.randint(1, 3)
    return (
        tuple(rng.randint(1, 3) for _ in range(depth)),
        tuple(rng.choice((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))) for _ in range(depth)),
    )


def _positive(weight: int) -> list[tuple[int, ...]]:
    """All positive compositions of the weight."""
    if weight == 0:
        return [()]
    return [(first,) + rest for first in range(1, weight + 1) for rest in _positive(weight - first)]


def _comp_text(entries) -> str:
    return "[" + ",".join(map(str, entries)) + "]"


def _word_text(letters) -> str:
    return "".join(f"x{x}" for x in letters)


def _tensor_text(exps) -> str:
    return "(" + ",".join(map(str, exps)) + ")"


def _bi_text(bi) -> str:
    return f"[{','.join(map(str, bi[0]))} | {','.join(map(str, bi[1]))}]"


# ---------------------------------------------------------------------------
# algebra


def _algebra_pools(rng: random.Random) -> list[list[Request]]:
    C = comp.Composition
    pools = []

    def product_requests(kind, pairs, build, product, expected, graded):
        """Checked by coefficient sum and by the grading of every term."""
        reqs = []
        for a, b in pairs:
            u, v = build(a), build(b)
            want, grade = expected(a, b), graded(a, b)

            def check(r, want=want, grade=grade, what=f"{kind}({u}, {v})"):
                checks.check_sum(r, want, what)
                checks.check_grading(r, grade, what)

            reqs.append(Request((kind, a, b), kind, kind, lambda u=u, v=v: product()(u, v), check))
        return reqs

    def pair(draw):
        return lambda: (draw(), draw())

    pools.append(product_requests(
        "compositions.shuffle",
        _stratified(pair(lambda: _entries(rng, 0, 4, 4)), lambda p: _weight_depth(*p), range(8, 19), 10),
        C, lambda: comp.shuffle, lambda a, b: math.comb(sum(a) + sum(b), sum(a)),
        lambda a, b: lambda t: (t.weight, t.depth) == (sum(a) + sum(b), len(a) + len(b))))
    pools.append(product_requests(
        "compositions.stuffle",
        _stratified(pair(lambda: _entries(rng, 1, 4, 4)), lambda p: _weight_depth(*p), range(8, 19), 10),
        C, lambda: comp.stuffle, lambda a, b: checks.delannoy(len(a), len(b)),
        lambda a, b: lambda t: t.weight == sum(a) + sum(b) and max(len(a), len(b)) <= t.depth <= len(a) + len(b)))
    pools.append(product_requests(
        "compositions.bistuffle",
        _stratified(pair(lambda: _bi(rng)), lambda p: len(p[0][0]) + len(p[1][0]), range(2, 7), 10),
        lambda bi: comp.BiComposition(*bi), lambda: comp.bistuffle,
        lambda a, b: checks.delannoy(len(a[0]), len(b[0])),
        lambda a, b: lambda t: (sum(t.s_row), sum(t.r_row)) == (sum(a[0]) + sum(b[0]), sum(a[1]) + sum(b[1]))))
    pools.append(product_requests(
        "words.shuffle",
        _stratified(pair(lambda: _word(rng, 8)), lambda p: len(p[0]) + len(p[1]), range(4, 14), 10),
        words.Word, lambda: words.shuffle, lambda a, b: math.comb(len(a) + len(b), len(a)),
        lambda a, b: lambda t: (len(t.letters), sum(t.letters)) == (len(a) + len(b), sum(a) + sum(b))))
    pools.append(product_requests(
        "free_rba.product",
        _stratified(pair(lambda: _tensor(rng, 8)), lambda p: _weight_depth(*p), range(6, 17), 8),
        frba.TensorWord, lambda: frba.product, lambda a, b: math.comb(len(a) + len(b) - 2, len(a) - 1),
        lambda a, b: lambda t: (t.exponents[0], len(t.exponents), sum(t.exponents))
        == (a[0] + b[0], len(a) + len(b) - 1, sum(a) + sum(b))))

    # one leading-ones composition [1^n, tail] per (side, n, weight + depth <= 12)
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for w in range(1, 12):
        for entries in _positive(w):
            ones = next((i for i, e in enumerate(entries) if e != 1), len(entries))
            if ones and _weight_depth(entries) <= 12:
                groups.setdefault((ones, _weight_depth(entries)), []).append(entries)
    reg_reqs = []
    for shuffle_side in (True, False):
        for (ones, _), members in sorted(groups.items()):
            s = C(rng.choice(members))
            tail = s.entries[ones:]
            reg_reqs.append(Request(
                ("regularize", shuffle_side, s.entries), "regularization.regularize", "regularization.regularize",
                (lambda s=s: reg.shuffle_regularize(s)) if shuffle_side else (lambda s=s: reg.stuffle_regularize(s)),
                lambda r, o=ones, t=tail, sh=shuffle_side: checks.check_regularized(r, o, t, sh),
            ))
    pools.append(reg_reqs)

    def lin_side():
        return tuple(sorted({_entries(rng, 1, 3, 3): rng.choice((-3, -2, -1, 1, 2, 3))
                             for _ in range(rng.randint(1, 3))}.items()))

    lin_reqs = []
    for a, b in _stratified(pair(lin_side), lambda p: 3 * len(p[0]) + len(p[1]), range(4, 13), 5):
        want = sum(ca * cb * checks.delannoy(len(x), len(y)) for x, ca in a for y, cb in b)
        la = core.LinComb({C(x): c for x, c in a})
        lb = core.LinComb({C(y): c for y, c in b})
        lin_reqs.append(Request(
            ("compositions.stuffle_lin", a, b), "compositions.stuffle_lin", "compositions.stuffle_lin",
            lambda la=la, lb=lb: comp.stuffle_lin(la, lb),
            lambda r, want=want: checks.check_sum(r, want, "stuffle_lin"),
        ))
    pools.append(lin_reqs)

    def capped(draw, cap):
        while True:
            a, b = draw(), draw()
            if _weight_depth(a, b) <= cap:
                return a, b

    def eval_text(template: int) -> tuple[str, Fraction]:
        if template == 0:
            a, b = capped(lambda: _entries(rng, 0, 4, 3), 14)
            return f"sh({_comp_text(a)}, {_comp_text(b)})", math.comb(sum(a) + sum(b), sum(a))
        if template == 1:
            (a, b), (c, d) = (capped(lambda: _entries(rng, 1, 3, 3), 14) for _ in range(2))
            c1, c2 = rng.randint(1, 4), Fraction(rng.randint(1, 4), rng.randint(1, 3))
            want = c1 * math.comb(sum(a) + sum(b), sum(a)) - c2 * checks.delannoy(len(c), len(d))
            return (f"{c1}*sh({_comp_text(a)}, {_comp_text(b)}) - {c2}*st({_comp_text(c)}, {_comp_text(d)})",
                    want)
        if template == 2:
            a, b = _word(rng, 6), _word(rng, 6)
            return f"sh({_word_text(a)}, {_word_text(b)})", math.comb(len(a) + len(b), len(a))
        if template == 3:
            a, b = _tensor(rng, 7), _tensor(rng, 7)
            return f"sh({_tensor_text(a)}, {_tensor_text(b)})", math.comb(len(a) + len(b) - 2, len(a) - 1)
        if template == 4:
            t = _tensor(rng, 7)
            return f"f({_tensor_text(t)})", checks.tensor_word_sum(t)
        a, b = _bi(rng), _bi(rng)
        return f"st({_bi_text(a)}, {_bi_text(b)})", checks.delannoy(len(a[0]), len(b[0]))

    texts: dict[str, Fraction] = {}
    while len(texts) < 72:
        text, want = eval_text(len(texts) % 6)
        texts.setdefault(text, want)
    pools.append([
        Request(("cli.eval", text), "cli.eval", "cli.eval",
                lambda argv=["eval", text, "--format", "json"]: run_cli(argv),
                lambda out, want=want, text=text: checks.require(
                    checks.cli_sum(out) == want, f"eval {text!r}: sum {checks.cli_sum(out)} != {want}"))
        for text, want in texts.items()
    ])
    return pools


def algebra(seed: int) -> list[Request]:
    """The pool is the same for every seed; the seed draws the stream from it.

    A pool drawn per seed made the latency medians differ by about 10% from
    seed to seed, because each kind's latencies spread over a decade.
    """
    rng = random.Random(seed)
    return _expand(rng, _algebra_pools(random.Random(POOL_SEED)))


# ---------------------------------------------------------------------------
# relations


def relations(seed: int) -> list[Request]:
    """Certified bound and both eds exports for every weight 2..9, seeded order.

    The rank request is the fresh use of a weight and starts from empty
    package caches, as a fresh process would; the two exports repeat it and
    regenerate its relations with the product caches warm.  Each weight
    therefore costs the same whatever its place in the order.

    Weight 10 (about 2.5 s, three quarters of a 2..10 pass) is left out: a
    run could time it only about nine times, too few to hold its fastest
    time steady on a shared host.  Weight 9 keeps rank the largest cost.
    """
    rng = random.Random(seed)
    order = list(range(2, 10))
    rng.shuffle(order)
    stream = []
    for w in order:
        size = len(checks.convergent_indices(w))
        rank = size - checks.DIMENSION_BOUNDS[w]
        stream.append(Request(("weight", w), "regularization.relation_rank", "rank",
                              lambda w=w: reg.relation_rank(w),
                              lambda r, w=w: checks.check_rank(r, w), cold=True))
        for fmt in rng.sample(("csv", "json"), 2):
            stream.append(Request(
                ("weight", w), "cli.eds", "eds",
                lambda argv=["eds", "--weight", str(w), "--format", fmt]: run_cli(argv),
                lambda out, w=w, fmt=fmt, rank=rank: checks.check_eds(checks.parse_eds(out, fmt), w, rank),
            ))
    return stream


# ---------------------------------------------------------------------------
# numerics


def _ctx(tol: float, digits: int = 20) -> num.PrecisionContext:
    return num.PrecisionContext(digits=digits, budget=BUDGET, tolerance=tol)


def _mzv_request(entries: tuple[int, ...], tol: float) -> Request:
    s, ctx = comp.Composition(entries), _ctx(tol)

    def check(result):
        value, error = result
        checks.check_close(value, checks.mzv_truth(entries), error, f"mzv_eval{entries} at {tol:g}")

    return Request(("mzv", entries, tol), "numerics.mzv_eval", "pseries",
                   lambda: num.mzv_eval(s, ctx), check)


def _diagram_request(entries: tuple[int, ...], tol: float) -> Request:
    s, ctx = comp.Composition(entries), _ctx(tol)
    order = max(sum(entries) + 1, 5)

    def call():
        zsh, zst = reg.shuffle_regularize(s), reg.stuffle_regularize(s)
        rho = reg.build_rho(order, ctx)
        lhs = num.eval_reg_poly(zsh, ctx)
        rhs = reg.rho_apply(num.eval_reg_poly(zst, ctx), rho)
        return zsh, zst, lhs, rhs, rho.gamma

    return Request(("diagram", entries, tol), "regularization.diagram", "pseries", call,
                   lambda r: checks.check_diagram(*r, tol))


def _li_request(entries: tuple[int, ...], z: float, via_cli: bool) -> Request:
    what = f"li{entries} at {z!r}"
    truth = partial(checks.li_truth, entries, z)
    if via_cli:
        argv = ["li", "--tol", repr(LI_TOL), "--budget", str(BUDGET), _comp_text(entries), "--", repr(z)]
        return Request(("li", entries, z, "cli"), "cli.li", "geometric", lambda: run_cli(argv),
                       lambda out: checks.check_printed(out, truth(), what))
    s, ctx = comp.Composition(entries), _ctx(LI_TOL)
    return Request(("li", entries, z), "numerics.li_eval", "geometric", lambda: num.li_eval(s, z, ctx),
                   lambda v: checks.check_close(v, truth(), LI_TOL, what))


def _zdir_request(entries: tuple[int, ...], r: Fraction, eps: float, via_cli: bool) -> Request:
    """Only the outer index is damped, so the value is Li_entries(e^(r eps))."""
    r_row = (r,) + (Fraction(0),) * (len(entries) - 1)
    what = f"zdir{entries}|{r} at {eps!r}"
    truth = partial(checks.li_truth, entries, math.exp(float(r) * eps))
    if via_cli:
        argv = ["zdir", "--tol", repr(ZDIR_TOL), "--budget", str(BUDGET),
                _bi_text((entries, r_row)), "--", repr(eps)]
        return Request(("zdir", entries, r, eps, "cli"), "cli.zdir", "geometric", lambda: run_cli(argv),
                       lambda out: checks.check_printed(out, truth(), what))
    b, ctx = comp.BiComposition(entries, r_row), _ctx(ZDIR_TOL)
    return Request(("zdir", entries, r, eps), "numerics.z_directional", "geometric",
                   lambda: num.z_directional(b, eps, ctx),
                   lambda v: checks.check_close(v, truth(), ZDIR_TOL, what))


def _zeta_request(n: int, digits: int, via_cli: bool) -> Request:
    what = f"zeta({n}) at {digits} digits"
    truth = partial(checks.zeta_truth, n, digits)
    if via_cli:
        argv = ["zeta", str(n), "--digits", str(digits), "--budget", str(BUDGET), "--tol", repr(ZETA_TOL)]
        return Request(("zeta", n, digits, "cli"), "cli.zeta", "geometric", lambda: run_cli(argv),
                       lambda out: checks.check_printed(out, truth(), what))
    ctx = _ctx(ZETA_TOL, digits)
    bound = min(ZETA_TOL, 10.0**-digits)
    return Request(("zeta", n, digits), "numerics.zeta_pos", "geometric", lambda: num.zeta_pos(n, ctx),
                   lambda v: checks.check_close(v, truth(), bound, what))


def numerics(seed: int) -> list[Request]:
    """Certified values: the p-series path and the geometrically damped path.

    p-series: mzv_eval of the closed-form indices at four tolerances, and the
    regularization diagram for every positive composition of weight <= 5.
    Geometric: li_eval at seeded |z| <= 0.9, z_directional at seeded
    damping e^(r eps) <= e^-0.1, and zeta_pos at 20/50/100 digits.  A third
    of the geometric inputs, in seeded choice, go through the CLI.
    """
    rng = random.Random(seed)
    mzv = [_mzv_request(e, tol) for tol, count in MZV_TOLERANCES.items()
           for e in MZV_INDICES for _ in range(count)]
    positive = [c for w in range(1, 6) for c in _positive(w)]
    diagrams = [_diagram_request(e, tol) for tol in DIAGRAM_TOLERANCES for e in positive]

    def via_cli(count):
        flags = [i % 3 == 0 for i in range(count)]
        rng.shuffle(flags)
        return flags

    li_inputs = [(e, round(rng.choice((-1, 1)) * rng.uniform(0.05, 0.9), 4))
                 for e in ((0,), (1,), (2,), (3,), (4,), (1, 1)) for _ in range(4)]
    li = [_li_request(e, z, c) for (e, z), c in zip(li_inputs, via_cli(len(li_inputs)))]

    zdir_inputs = []
    for e in ((1,), (2,), (3,), (4,), (1, 1)):
        for _ in range(3):
            r = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
            zdir_inputs.append((e, r, round(-rng.uniform(0.1, 2.5) / float(r), 4)))
    zdir = [_zdir_request(*x, c) for x, c in zip(zdir_inputs, via_cli(len(zdir_inputs)))]

    zeta_inputs = [(n, d) for n in range(2, 13) for d in ZETA_DIGITS]
    zeta = [_zeta_request(n, d, c) for (n, d), c in zip(zeta_inputs, via_cli(len(zeta_inputs)))]

    # the repeat cycle runs over each (kind, route) separately, so the number
    # of CLI repeats is the same for every seed
    by_route = [[r for r in pool if r.kind.startswith("cli.") == cli_route]
                for pool in (li, zdir, zeta) for cli_route in (False, True)]
    stream = mzv + diagrams + _expand(rng, by_route)
    rng.shuffle(stream)
    return stream


WORKLOADS = {"algebra": algebra, "relations": relations, "numerics": numerics}
