"""Host-time benchmark of the FACIL reproduction, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tiny-llm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a shorter untraced pass plus a ``cProfile`` replay of the same
batches.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the host (nproc, Python, numpy, BLAS thread pin).
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: BLAS/OpenMP threads: one, which is within any nproc; the numbers are
#: steadier and the workloads' matrices are far too small to gain from more
BLAS_THREADS = "1"
#: The environment every measuring process runs in.  Besides the thread
#: pin, glibc malloc keeps large temporaries on the heap from the start:
#: by default it serves them with fresh mmaps, page-faulting every time,
#: until frees raise its adaptive threshold, so the same batches ran 27 %
#: faster in a process's third pass than in its first.
PINNED_ENV = {
    **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), BLAS_THREADS),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
    "MALLOC_TOP_PAD_": str(1 << 28),
}

SETUP_REPS = 3
#: share of ``--seconds`` the untraced pass of a traced run measures; the
#: profiled replay of the same batches takes 1-4 times as long again
TRACE_SHARE = 0.4
#: a run stops early, with what it has, once it has measured this many
#: times ``--seconds`` (a safety net for a much slower program)
OVERRUN = 4.0
#: the calibration kernel's time at the reference speed; end-to-end host
#: times are reported as measured times / (measured kernel time / this)
CALIBRATION_REF_S = 0.0025
#: throughputs are the median over this many consecutive runs of batches
CHUNKS = 5

WORKLOAD_NAMES = ("tiny-llm", "mapping-churn", "fleet-chat", "serve-mix")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "mib_per_s": "MiB/s", "peak_rss_mib": "MiB",
}

#: per-layer metrics measured from outside with tracing off, by workload:
#: metric -> (op kind, scale); the value is the kind's median op time
OUTSIDE_TIMED = {
    "tiny-llm": {"llm.prefill_ms": ("prefill", 1e3), "llm.decode_ms": ("decode", 1e3)},
    "mapping-churn": {
        f"core.{kind}_ms": (kind, 1e3)
        for kind in ("alloc", "load", "switch", "migrate", "free", "recover")
    },
    "fleet-chat": {},
    "serve-mix": {
        "serving.chat_s": ("chat", 1.0), "kvcache.chat_kv_s": ("chat_kv", 1.0),
        "workloads.speculative_s": ("speculative", 1.0),
        "workloads.moe_s": ("moe", 1.0), "workloads.coresident_s": ("coresident", 1.0),
    },
}
#: exact counts copied from the public reports
COUNTS = (
    "fleet.served", "fleet.shed", "fleet.timed_out", "fleet.failovers",
    "kvcache.prefix_hits", "kvcache.prefill_tokens_saved", "kvcache.preemptions",
    "workloads.moe_evictions", "core.crashes_recovered", "core.rolled_back",
    "core.rolled_forward", "reliability.parity_detected",
)
#: ratios of two exact counts: metric -> (numerator, denominator)
RATIOS = {
    "kvcache.prefix_hit_rate": ("kvcache.prefix_hit_tokens", "kvcache.prefix_lookup_tokens"),
    "workloads.moe_hit_rate": ("workloads.moe_hits", "workloads.moe_accesses"),
    "workloads.spec_acceptance": ("workloads.spec_accepted", "workloads.spec_drafted"),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from attribution import BOUNDARIES, LAYERS

    units = {f"{layer}.self_share": "share" for layer in LAYERS}
    for name in BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for table in OUTSIDE_TIMED.values():
        for metric in table:
            units[metric] = "ms" if metric.endswith("_ms") else "s"
    units["trace.overhead_ratio"] = "ratio"
    units.update(dict.fromkeys(COUNTS, "count"))
    units.update(dict.fromkeys(RATIOS, "share"))
    units["failed_ratio"] = "share"
    units["sim_goodput_qps"] = "sim_1/s"
    units["sim_ttft_p99_ms"] = "sim_ms"
    return units


def _percentile(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _setup_probe(name: str, seed: int) -> float:
    """Imports, building the workload's system and its first inputs,
    timed from this process's start (it runs in a fresh interpreter)."""
    from suite import WORKLOADS

    WORKLOADS[name](seed)
    return time.perf_counter() - _START


def _median_setup_s(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_pass(name: str, seed: int, n_batches: int, budget_s: float, profiler=None,
             calibrate=False):
    """Run warm-up plus *n_batches* batches of a fresh workload; return
    the batch results and teardown failures."""
    from suite import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.run_batch(-1)  # untimed warm-up: lazy set-up, first touches
    workload.profiler = profiler
    workload.calibrate = calibrate
    results = []
    start = time.perf_counter()
    for index in range(n_batches):
        taken = len(workload.calibration)
        results.append(workload.run_batch(index))
        results[-1].calibration = workload.calibration[taken:]
        if time.perf_counter() - start > budget_s:
            break
    workload.profiler = None
    workload.calibrate = False
    return workload, results, workload.finish()


def summarize(results, teardown):
    """Totals the metrics are computed from."""
    counts = {}
    by_kind = {}
    for r in results:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
        for kind, seconds in r.ops + r.sub_ops:
            by_kind.setdefault(kind, []).append(seconds)
    return {
        "busy": sum(r.busy_s for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results) + len(teardown),
        "failures": [f for r in results for f in r.failures] + list(teardown),
        "counts": counts,
        "by_kind": by_kind,
        "sim_served": sum(r.sim_served for r in results),
        "sim_seconds": sum(r.sim_seconds for r in results),
        "sim_ttft_ms": [t for r in results for t in r.sim_ttft_ms],
        "digests": [r.digest for r in results],
    }


def host_metrics(workload, results, slowdown):
    """Throughputs and op latencies with each batch's times divided by
    its host slowdown; throughputs are the median over CHUNKS
    consecutive runs of batches."""
    latency_ms = []
    for r, slow in zip(results, slowdown):
        if workload.per_op_latency:
            latency_ms += [seconds * 1e3 / slow for _, seconds in r.ops]
        elif r.attempted:
            latency_ms.append(r.busy_s * 1e3 / r.attempted / slow)
    rates, mib = [], []
    bounds = [round(i * len(results) / CHUNKS) for i in range(CHUNKS + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            busy = sum(r.busy_s / slow for r, slow in zip(results[lo:hi], slowdown[lo:hi]))
            rates.append(sum(r.attempted for r in results[lo:hi]) / busy)
            mib.append(sum(r.bytes for r in results[lo:hi]) / (1 << 20) / busy)
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": _percentile(latency_ms, 50),
        "op_p90_ms": _percentile(latency_ms, 90),
        "mib_per_s": statistics.median(mib),
    }


def end_to_end(name, seed, seconds):
    from suite import WORKLOADS

    setup_s = _median_setup_s(name, seed)
    plan = max(1, round(seconds / WORKLOADS[name].batch_s))
    workload, results, teardown = run_pass(
        name, seed, plan, OVERRUN * seconds, calibrate=True
    )
    s = summarize(results, teardown)
    # each batch's host slowdown against the reference speed, from the
    # calibration samples taken while it ran
    overall = statistics.fmean(workload.calibration)
    slowdown = [
        (statistics.fmean(r.calibration) if r.calibration else overall) / CALIBRATION_REF_S
        for r in results
    ]
    s["slowdown"] = overall / CALIBRATION_REF_S
    s["raw"] = host_metrics(workload, results, [1.0] * len(results))
    metrics = {"setup_s": setup_s}
    metrics.update(host_metrics(workload, results, slowdown))
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return s, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(name, seed, seconds):
    import cProfile
    import pstats

    from attribution import attribute
    from suite import WORKLOADS

    plan = max(1, round(TRACE_SHARE * seconds / WORKLOADS[name].batch_s))
    workload, results, teardown = run_pass(name, seed, plan, OVERRUN * seconds)
    s = summarize(results, teardown)
    profiler = cProfile.Profile()
    _, traced, traced_teardown = run_pass(name, seed, len(results), float("inf"), profiler)
    t = summarize(traced, traced_teardown)
    if t["digests"] != s["digests"]:
        s["failed"] += 1
        s["failures"].append("traced pass outputs differ from the untraced pass")
    s["attempted"] += t["attempted"]
    s["failed"] += t["failed"]
    s["failures"] += t["failures"]

    stats = pstats.Stats(profiler)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stats.dump_stats(os.path.join(out_dir, f"{name}-seed{seed}.pstats"))

    values = dict.fromkeys(per_layer_units(), 0.0)
    values.update(attribute(stats.stats))
    for metric, (kind, scale) in OUTSIDE_TIMED[name].items():
        samples = s["by_kind"].get(kind)
        values[metric] = statistics.median(samples) * scale if samples else 0.0
    values["trace.overhead_ratio"] = t["busy"] / s["busy"]
    for key in COUNTS:
        values[key] = float(s["counts"].get(key, 0))
    for metric, (num, den) in RATIOS.items():
        denominator = s["counts"].get(den, 0)
        values[metric] = s["counts"].get(num, 0) / denominator if denominator else 0.0
    untraced_attempted = sum(r.attempted for r in results)
    untraced_failed = sum(r.failed for r in results) + len(teardown)
    values["failed_ratio"] = untraced_failed / untraced_attempted if untraced_attempted else 0.0
    if s["sim_seconds"]:
        values["sim_goodput_qps"] = s["sim_served"] / s["sim_seconds"]
        values["sim_ttft_p99_ms"] = _percentile(s["sim_ttft_ms"], 99)
    units = per_layer_units()
    return s, {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
        # the allocator reads its settings at start-up: restart pinned
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + (sys.argv[1:] if argv is None else list(argv)))
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import numpy
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program ({exc}); run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src", "")):
        print(f"perfbench: imported repro from {repro.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2

    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0

    if args.trace:
        summary, metrics = per_layer(args.workload, args.seed, args.seconds)
    else:
        summary, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for failure in summary["failures"][:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"{args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    failed_ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"{args.workload} failed_ratio = {failed_ratio:.6g} "
          f"({summary['failed']} of {summary['attempted']} ops)")
    host = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    if "slowdown" in summary:
        host["slowdown"] = summary["slowdown"]
        host["raw"] = summary["raw"]
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": summary["failed"] == 0 and summary["attempted"] > 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
