"""Spans around the public functions of each mzvkit layer, for the traced run.

The wrappers live here, in the benchmark, and are bound into the package at
run time: every module-level name and every module-level dict value that
holds the original function is pointed at the wrapper, so calls through
``from .compositions import shuffle`` or a dispatch table such as
``regularization._PRODUCTS`` are seen as well.  A call of a function from
inside itself (recursion) is folded into the outer span.

Spans are (id, name, start, end, parent id, request id), kept in memory and
written out when the run ends.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from functools import wraps
from typing import Callable
from time import perf_counter

from mzvkit.numerics import PrecisionError


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0
        self._request: int | None = None

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((self._next_id, name, perf_counter(), parent))
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        sid, name, start, parent = self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self._request))

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == name

    def begin_request(self, request_id: int, kind: str) -> None:
        self._request = request_id
        self.open(f"request:{kind}")

    def end_request(self) -> None:
        self.close()
        self._request = None

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """(span count, total self time) per span name."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start - covered[sid]
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"fields": ["id", "name", "start", "end", "parent", "request"]}\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# counters recorded at the boundaries


def _terms(tracer, name, args, result):
    tracer.counts[f"{name}.terms"] += len(result)


def _pairs(tracer, name, args, result):
    tracer.counts[f"{name}.pairs"] += len(args[1]) * len(args[2])


def _relations(tracer, name, args, result):
    tracer.counts[f"{name}.count"] += len(result)
    tracer.counts[f"{name}.terms"] += sum(len(rel.terms) for rel in result)


def _bound_ratio(tracer, name, args, result):
    ctx = args[1] if len(args) > 1 else None
    if ctx is not None:
        tracer.samples[f"{name}.bound_ratio"].append(result[1] / ctx.tolerance)


def _matrix_shape(tracer, name, args):
    rows = [list(row) for row in args[0]]
    tracer.counts[f"{name}.rows"] += len(rows)
    tracer.counts[f"{name}.cols"] += len(rows[0]) if rows else 0
    tracer.counts[f"{name}.nnz"] += sum(1 for row in rows for x in row if x)
    return (rows,) + tuple(args[1:])


# (module, attribute, span name, counter after the call, argument hook before it)
TARGETS = (
    ("mzvkit.core", "mixable_shuffle", "core.mixable_shuffle", _terms, None),
    ("mzvkit.core", "bilinear", "core.bilinear", _pairs, None),
    ("mzvkit.core", "LinComb.map_basis", "core.LinComb.map_basis", None, None),
    ("mzvkit.core", "matrix_rank", "core.matrix_rank", None, _matrix_shape),
    ("mzvkit.words", "shuffle", "words.shuffle", None, None),
    ("mzvkit.compositions", "shuffle", "compositions.shuffle", None, None),
    ("mzvkit.compositions", "stuffle", "compositions.stuffle", None, None),
    ("mzvkit.compositions", "bistuffle", "compositions.bistuffle", None, None),
    ("mzvkit.free_rba", "product", "free_rba.product", None, None),
    ("mzvkit.free_rba", "to_word_sum", "free_rba.to_word_sum", None, None),
    ("mzvkit.regularization", "shuffle_regularize", "regularization.regularize", None, None),
    ("mzvkit.regularization", "stuffle_regularize", "regularization.regularize", None, None),
    ("mzvkit.regularization", "extended_double_shuffle_relations", "regularization.relations", _relations, None),
    ("mzvkit.regularization", "relation_rank", "regularization.relation_rank", None, None),
    ("mzvkit.numerics", "mzv_eval", "numerics.mzv_eval", _bound_ratio, None),
    ("mzvkit.numerics", "eval_reg_poly", "numerics.eval_reg_poly", None, None),
    ("mzvkit.numerics", "li_eval", "numerics.li_eval", None, None),
    ("mzvkit.numerics", "z_directional", "numerics.z_directional", None, None),
    ("mzvkit.numerics", "zeta_pos", "numerics.zeta_pos", None, None),
    ("mzvkit.expressions", "parse", "expressions.parse", None, None),
    ("mzvkit.expressions", "evaluate", "expressions.evaluate", None, None),
    ("mzvkit.cli", "main", "cli.main", None, None),
)

# span name -> (module, lru_cache attribute) read through cache_info()
CACHES = {
    "words.shuffle": ("mzvkit.words", "_shuffle_letters"),
    "compositions.shuffle": ("mzvkit.compositions", "_shuffle_entries"),
    "compositions.stuffle": ("mzvkit.compositions", "_stuffle_entries"),
    "regularization.regularize": ("mzvkit.regularization", "_regularize_cached"),
    "numerics.mzv_eval": ("mzvkit.numerics", "_mzv_cached"),
    "numerics.li_eval": ("mzvkit.numerics", "_li_cached"),
    "numerics.zeta_pos": ("mzvkit.numerics", "_zeta_pos_cached"),
}

# functions each workload must reach; a traced pass with no call to one of
# them means the benchmark no longer measures that layer
EXPECTED = {
    "algebra": (
        "core.mixable_shuffle", "core.bilinear", "core.LinComb.map_basis", "words.shuffle",
        "compositions.shuffle", "compositions.stuffle", "compositions.bistuffle",
        "free_rba.product", "free_rba.to_word_sum", "regularization.regularize",
        "expressions.parse", "expressions.evaluate", "cli.main",
    ),
    "relations": (
        "core.mixable_shuffle", "core.LinComb.map_basis", "core.matrix_rank",
        "compositions.shuffle", "compositions.stuffle", "regularization.relations",
        "regularization.relation_rank", "cli.main",
    ),
    "numerics": (
        "regularization.regularize", "numerics.mzv_eval", "numerics.eval_reg_poly",
        "numerics.li_eval", "numerics.z_directional", "numerics.zeta_pos", "cli.main",
    ),
}

REFUSALS = ("numerics.mzv_eval", "numerics.li_eval", "numerics.z_directional")
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNTERS = {
    "core.mixable_shuffle": ("terms",),
    "core.bilinear": ("pairs",),
    "core.matrix_rank": ("rows", "cols", "nnz"),
    "regularization.relations": ("count", "terms"),
}


def _wrap(tracer: Tracer, name: str, fn, after, before):
    @wraps(fn)
    def traced(*args, **kwargs):
        if tracer.inside(name):
            return fn(*args, **kwargs)
        if before is not None:
            args = before(tracer, name, args)
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except PrecisionError:
            tracer.counts[f"{name}.refused"] += 1
            raise
        finally:
            tracer.close()
        if after is not None:
            after(tracer, name, args, result)
        return result

    return traced


def _package_namespaces():
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "mzvkit" or mod_name.startswith("mzvkit.")):
            yield module


def install(tracer: Tracer) -> tuple[list[str], Callable[[], None]]:
    """Bind wrappers everywhere the originals are bound; returns (missing, undo)."""
    undo: list[tuple] = []
    missing: list[str] = []
    for mod_name, attr, span, after, before in TARGETS:
        owner = sys.modules.get(mod_name)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            orig = getattr(cls, method, None)
            if orig is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            setattr(cls, method, _wrap(tracer, span, orig, after, before))
            undo.append((setattr, cls, method, orig))
            continue
        orig = getattr(owner, attr, None)
        if orig is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapper = _wrap(tracer, span, orig, after, before)
        for module in _package_namespaces():
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    undo.append((setattr, module, key, orig))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapper
                            undo.append((dict.__setitem__, value, dkey, orig))

    def restore():
        for op, target, key, orig in reversed(undo):
            op(target, key, orig)

    return missing, restore


def cache_stats() -> dict[str, tuple[int, int] | None]:
    """(hits, misses) of each package cache; None when the cache no longer exists."""
    out = {}
    for span, (mod_name, attr) in CACHES.items():
        info = getattr(getattr(sys.modules.get(mod_name), attr, None), "cache_info", None)
        out[span] = (info().hits, info().misses) if callable(info) else None
    return out


def clear_package_caches() -> None:
    """Empty every functools cache held at module level in the package."""
    seen = set()
    for module in _package_namespaces():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and hasattr(value, "cache_info") and id(value) not in seen:
                seen.add(id(value))
                clear()


def layer_metrics(tracer: Tracer, passes: int, cache_delta: dict) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the recorded spans and counters."""
    calls, self_s = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0) / passes, "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
        for counter in COUNTERS.get(name, ()):
            out[f"{name}.{counter}"] = (tracer.counts.get(f"{name}.{counter}", 0.0) / passes, "count")
    for name in REFUSALS:
        out[f"{name}.refused"] = (tracer.counts.get(f"{name}.refused", 0.0) / passes, "count")
    for name, delta in cache_delta.items():
        if delta is not None:  # absent, not zero, once a cache is gone
            hits, misses = delta
            out[f"{name}.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    ratios = tracer.samples.get("numerics.mzv_eval.bound_ratio")
    out["numerics.mzv_eval.bound_ratio_p50"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    return out
