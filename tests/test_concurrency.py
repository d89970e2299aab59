"""The declared concurrency contracts: pure operations, shared caches safe."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from mzvkit import compositions as comp
from mzvkit.compositions import Composition, positive_compositions, shuffle, stuffle
from mzvkit.numerics import PrecisionContext, mzv_eval
from mzvkit.regularization import _relation_table, extended_double_shuffle_relations, shuffle_regularize


def test_products_match_sequential_under_threads():
    rng = random.Random(83)
    pool = [
        (rng.choice(positive_compositions(rng.randint(1, 5))),
         rng.choice(positive_compositions(rng.randint(1, 5))))
        for _ in range(120)
    ]
    sequential = [(shuffle(s, t), stuffle(s, t)) for s, t in pool]
    with ThreadPoolExecutor(max_workers=8) as executor:
        threaded = list(executor.map(lambda st: (shuffle(*st), stuffle(*st)), pool))
    assert threaded == sequential


def test_numeric_and_regularized_values_match_under_threads():
    ctx = PrecisionContext(digits=20, budget=100_000, tolerance=1e-3)
    indices = [Composition(e) for e in ((2,), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1))]
    sequential = [mzv_eval(s, ctx) for s in indices]
    regs = [shuffle_regularize(Composition((1,) * k + (2,))) for k in range(1, 4)]
    with ThreadPoolExecutor(max_workers=8) as executor:
        threaded = list(executor.map(lambda s: mzv_eval(s, ctx), indices))
        threaded_regs = list(
            executor.map(lambda k: shuffle_regularize(Composition((1,) * k + (2,))), range(1, 4))
        )
    assert threaded == sequential
    assert all(a == b for a, b in zip(threaded_regs, regs))


def test_relation_tables_match_sequential_under_threads():
    # more workers than cores and a short switch interval interleave the
    # builds, which share the bounded product and term caches
    weights = (6, 7, 8, 9)
    sequential = [extended_double_shuffle_relations(w) for w in weights]
    _relation_table.cache_clear()
    comp._shuffle_entries.cache_clear()
    comp._stuffle_entries.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(weights)) as executor:
            futures = [executor.submit(extended_double_shuffle_relations, w) for w in weights]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
