"""mzvkit benchmark.

    python3 bench/run.py --workload algebra|relations|numerics --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mzvkit is imported from its ``src``
directory.  Workloads are described in ``workloads.py`` and README.md.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates uninstrumented and traced passes, reports the
per-layer metrics of the traced passes and the tracing overhead, and writes
the spans to ``.bench_out/``.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a readable report.  A result that fails its check makes the run exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
WARMUP_S = 3.0


def _load_package():
    """Import mzvkit from this checkout's source tree, never from elsewhere."""
    if not (SRC / "mzvkit" / "__init__.py").is_file():
        sys.exit(f"bench: no mzvkit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mzvkit

    if Path(mzvkit.__file__).resolve().parent != SRC / "mzvkit":
        sys.exit(f"bench: imported mzvkit from {mzvkit.__file__}, not from {SRC}")


def _setup_time(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import mzvkit and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


class Pass:
    """Outcomes of one pass over the request stream."""

    def __init__(self):
        self.records: list[tuple] = []  # (request, fresh, seconds, outcome)
        self.wrong: list[tuple] = []  # (request, message)
        self.cache_delta: dict = {}

    @property
    def seconds(self) -> float:
        return sum(r[2] for r in self.records)

    @property
    def served(self) -> int:
        return sum(1 for r in self.records if r[3] == "ok")


def run_pass(stream, tracer=None) -> Pass:
    """Send the stream once from cold package caches; checks run outside the timing.

    A full garbage collection first puts the collector in the same state
    at the start of every pass, so its pauses fall on the same requests in
    every pass.  A request marked ``cold`` gets the same reset before it.
    ``cache_info()`` counts restart at each reset, so the deltas are summed
    over the segments between resets.
    """
    import spans
    import workloads
    from mzvkit.numerics import PrecisionError

    result = Pass()
    before = None
    seen = set()
    for i, req in enumerate(stream):
        if before is None or req.cold:
            if before is not None:
                _add_delta(result.cache_delta, before, spans.cache_stats())
            spans.clear_package_caches()
            gc.collect()
            before = spans.cache_stats()
        fresh = req.key not in seen
        seen.add(req.key)
        if tracer is not None:
            tracer.begin_request(i, req.kind)
        start = time.perf_counter()
        try:
            value = req.call()
            outcome = "ok"
        except (PrecisionError, workloads.Refused):
            outcome = "refused"
        except Exception as exc:  # counted as failed and reported, the run goes on
            outcome = "raised"
            print(f"bench: {req.kind} {req.key} raised {exc!r}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
        if outcome == "ok":
            try:
                req.check(value)
            except AssertionError as exc:
                outcome = "wrong"
                result.wrong.append((req, str(exc)))
        result.records.append((req, fresh, elapsed, outcome))
    _add_delta(result.cache_delta, before, spans.cache_stats())
    return result


def _add_delta(total: dict, before: dict, after: dict) -> None:
    """Add the cache_info() changes between two snapshots; None marks a missing cache."""
    for name, now in after.items():
        if now is None or before[name] is None or total.get(name, ()) is None:
            total[name] = None
        else:
            hits, misses = total.get(name, (0, 0))
            total[name] = (hits + now[0] - before[name][0], misses + now[1] - before[name][1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def best_latency(passes: list[Pass]) -> list[float]:
    """Each request's fastest time over the passes.

    Every pass replays the same stream from the same cold start, so request
    i is the same computation in each pass.  The shared host has slow phases
    of a few seconds that only ever add time; the fastest of several passes
    is the steadiest estimate of a request's own cost.
    """
    return [min(p.records[i][2] for p in passes) for i in range(len(passes[0].records))]


def end_to_end(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Metrics of the plain passes; percentiles run over the requests of a pass."""
    records = [r for p in passes for r in p.records]
    attempted = len(records)
    failed = sum(1 for r in records if r[3] in ("refused", "raised"))
    first = passes[0].records
    latency = best_latency(passes)
    fresh = [t for t, r in zip(latency, first) if r[1]]
    repeat = [t for t, r in zip(latency, first) if not r[1]]
    beyond = len(latency) - math.ceil(0.9 * len(latency))
    metrics = {
        "ops_per_s": (statistics.median(p.served for p in passes) / sum(latency), "1/s"),
        "fresh_p50_ms": (_median_ms(fresh), "ms"),
        "repeat_p50_ms": (_median_ms(repeat), "ms"),
        "op_p90_ms": (percentile(latency, 0.9) * 1e3, "ms"),
        "sweep_s": (sum(latency), "s"),
        "served_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"{len(passes)} passes of {len(first)} requests ({len(fresh)} fresh, {len(repeat)} repeat): "
        f"{attempted} attempted, {failed} failed (refused or raised)",
        f"op_p90_ms over {len(first)} requests: {beyond} beyond p90, {beyond * len(passes)} samples",
        f"median pass {statistics.median(p.seconds for p in passes)!r} s against sweep_s, "
        f"the sum of fastest request times",
        f"failed_ratio {failed / attempted!r} ratio",
    ]
    for path, label in (("pseries", "mzv_p50_ms"), ("geometric", "polylog_p50_ms")):
        values = [t for t, r in zip(latency, first) if r[0].path == path]
        if values:
            metrics[label] = (_median_ms(values), "ms")
            notes.append(f"{label} over {len(values)} requests")
    return metrics, notes


def _passes(stream, seconds: float, tracer):
    """Unmeasured warm-up passes, then passes until the time is spent.

    The warm-up lets the interpreter's allocator and mpmath's own caches,
    which the pass does not clear, reach their steady state.  A traced run
    then alternates plain and traced passes.
    """
    import spans

    start = time.perf_counter()
    warmup = [run_pass(stream)]
    while time.perf_counter() - start < WARMUP_S:
        warmup.append(run_pass(stream))
    plain, instrumented = [], []
    start = time.perf_counter()
    while True:
        if tracer is None or len(plain) <= len(instrumented):
            plain.append(run_pass(stream))
        else:
            missing, restore = spans.install(tracer)
            if missing:
                sys.exit(f"bench: traced functions no longer exist: {', '.join(missing)}")
            try:
                instrumented.append(run_pass(stream, tracer))
            finally:
                restore()
        if time.perf_counter() - start >= seconds and (tracer is None or instrumented):
            return warmup, plain, instrumented


def _total_delta(passes: list[Pass]) -> dict:
    """Summed cache_info() deltas; None for a cache missing in any pass."""
    total = {}
    for name in passes[0].cache_delta:
        deltas = [p.cache_delta[name] for p in passes]
        total[name] = None if None in deltas else tuple(map(sum, zip(*deltas)))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import mzvkit, build the inputs and exit (a set-up time probe)")
    args = parser.parse_args(argv)

    _load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    stream = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    import spans

    setup = [] if args.trace else _setup_time(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    warmup, plain, instrumented = _passes(stream, args.seconds, tracer)

    metrics, notes = end_to_end(plain)
    wrong = [w for p in warmup + plain + instrumented for w in p.wrong]
    attempted = sum(len(p.records) for p in plain + instrumented)
    failed = sum(1 for p in plain + instrumented for r in p.records if r[3] in ("refused", "raised"))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    if args.trace:
        traced_s = sum(best_latency(instrumented))
        overhead = traced_s / metrics["sweep_s"][0] - 1
        print(f"tracing overhead: traced pass {traced_s:.3f} s against {metrics['sweep_s'][0]:.3f} s "
              f"untraced, ratio {overhead:.3f}")
        out = spans.layer_metrics(tracer, len(instrumented), _total_delta(instrumented))
        numeric = [w for w in wrong if w[0].path in ("pseries", "geometric")]
        out["numerics.check_violations"] = (float(len(numeric)), "count")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        for name in ("mzv_p50_ms", "polylog_p50_ms"):
            out[name] = metrics.get(name, (0.0, "ms"))
        out["failed_ratio"] = (1 - metrics["served_ratio"][0], "ratio")
        calls = {k[: -len(".calls")]: v for k, (v, _) in out.items() if k.endswith(".calls")}
        unreached = [name for name in spans.EXPECTED[args.workload] if not calls.get(name)]
        if unreached:
            print(f"bench: traced passes made no call to {', '.join(unreached)}", file=sys.stderr)
            return 1
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        out = {k: v for k, v in metrics.items() if k not in ("mzv_p50_ms", "polylog_p50_ms")}
        for name, (value, unit) in metrics.items():
            print(f"{name} {value!r} {unit}")

    for req, message in wrong[:20]:
        print(f"bench: wrong result: {req.kind} {req.key}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
