"""Benchmark for starclean: one workload per process, single-threaded.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats passes until S seconds have gone by. A pass builds the inputs
(set-up), then does the workload's work and answers its queries (run), then
checks every output against the golden outputs and re-validates it
independently. Every reported time is scaled to a reference machine speed
by a reference kernel timed between stretches of work (see ``speed.py``);
the raw times are in the run record. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics and
the tracing overhead, and writes the spans to ``perfbench/out/``.

The program is imported from ``src/`` of the same checkout and nowhere else.
"""

import os
import sys
import time

_START = time.perf_counter()
# pinned before numpy loads its BLAS
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_S, Gauge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# set-up imports the program this many times, each in a fresh interpreter
IMPORT_SAMPLES = 15
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import starclean.cli\n"
    "imported = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "print(imported, speed.kernel_time())\n"
)


def import_program():
    """Import starclean from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import starclean
    except ImportError as exc:
        sys.exit(f"error: cannot import starclean from {src}: {exc}")
    if Path(starclean.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: starclean was imported from {starclean.__file__}, not {src}")


def import_times() -> tuple[list[float], list[float]]:
    """Scaled and raw times of importing starclean, each in a fresh interpreter.

    The interpreter's own start-up is left out: the probe times its import.
    The probe then reads the reference kernel itself, because it may run on
    another vCPU than this process, at another speed.
    """
    scaled, raw = [], []
    for _ in range(IMPORT_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        imported, kernel_s = map(float, probe.stdout.split())
        raw.append(imported)
        scaled.append(imported * REFERENCE_S / kernel_s)
    return scaled, raw


def measure(workload, seed: int, seconds: float, trace: bool, golden: dict, tracer_cls, gauge,
            min_samples: int):
    """Run passes until ``seconds`` have gone by and the untraced passes
    have given ``min_samples`` query latencies.

    Traced runs make at least four passes, in the order untraced, traced,
    traced, untraced (repeated), so that a drift in machine speed does not
    bias the tracing overhead.
    """
    passes = []
    tracers = []
    attempted = failed = samples = 0
    peak_rss_mb = None
    begin = time.perf_counter()
    iteration = 0
    while True:
        traced = trace and iteration % 4 in (1, 2)
        T = tracer_cls() if traced else None
        inputs = workload.inputs(seed, iteration)
        gc.collect()
        gauge.lap()  # closes the stretch before set-up, which is not measured
        scaled_0, raw_0 = gauge.scaled_total, gauge.raw_total
        state = workload.setup(inputs, T, gauge)
        gauge.lap()
        scaled_1, raw_1 = gauge.scaled_total, gauge.raw_total
        outputs, latencies = workload.work(state, inputs, T, gauge)
        gauge.lap()
        if peak_rss_mb is None:
            # the first pass, as in a fresh CLI process; later passes reuse
            # the allocator's freed memory and peak at varying heights
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        a, f = workload.check(state, inputs, outputs, golden)
        attempted += a
        failed += f
        passes.append({"traced": traced,
                       "setup_s": scaled_1 - scaled_0, "run_s": gauge.scaled_total - scaled_1,
                       "raw_setup_s": raw_1 - raw_0, "raw_run_s": gauge.raw_total - raw_1,
                       "latencies": latencies})
        samples += 0 if traced else len(latencies)
        if T is not None:
            tracers.append(T)
        del state, outputs
        iteration += 1
        if (iteration >= (4 if trace else 1) and samples >= min_samples
                and time.perf_counter() - begin >= seconds):
            break
    return passes, tracers, attempted, failed, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    import_program()
    import numpy
    import tracing
    import workloads
    from metrics import (
        END_TO_END, MIN_LATENCY_SAMPLES, OVERHEAD, PER_LAYER, TAIL_PERCENTILE, latency_summary,
        layer_metrics,
    )

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden(workload.name)

    imports, raw_imports = import_times()
    gauge = Gauge()
    passes, tracers, attempted, failed, peak_rss_mb = measure(
        workload, args.seed, args.seconds, bool(args.trace), golden, tracing.Tracer, gauge,
        MIN_LATENCY_SAMPLES,
    )

    untraced = [p for p in passes if not p["traced"]]
    latencies = [x for p in untraced for x in p["latencies"]]
    summary = latency_summary(latencies)
    values = {
        "setup_s": statistics.median(imports) + statistics.median(p["setup_s"] for p in untraced),
        "run_s": statistics.median(p["run_s"] for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "query_p50_ms": summary["query_p50_ms"],
        "query_p99_ms": summary["query_p99_ms"],
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "passes": len(passes),
        "import_s": import_s,
        "import_s_samples": imports,
        "raw_import_s_samples": raw_imports,
        "setup_s_samples": [p["setup_s"] for p in untraced],
        "run_s_samples": [p["run_s"] for p in untraced],
        "raw_setup_s_samples": [p["raw_setup_s"] for p in untraced],
        "raw_run_s_samples": [p["raw_run_s"] for p in untraced],
        "speed": {
            "reference_kernel_s": REFERENCE_S,
            "kernel_readings": len(gauge.readings),
            "kernel_s_median": statistics.median(gauge.readings),
            "mean_factor": gauge.scaled_total / gauge.raw_total,
        },
        "latency": {
            "samples": summary["samples"],
            "per_query": f"median of its {workloads.REPEATS} timings in one pass",
            "query_p50_ms": {"percentile": 50, "method": "nearest-rank"},
            "query_p99_ms": {"percentile": TAIL_PERCENTILE, "method": "nearest-rank",
                             "samples_beyond": summary["beyond_p99"]},
        },
        "failed_frac": failed / attempted if attempted else 1.0,
        "end_to_end": values,
    }

    if args.trace:
        per_pass = [layer_metrics(T) for T in tracers]
        # times: median over traced passes; counts: a value one pass really had
        metrics = {
            name: {"value": (statistics.median if unit == "s" else statistics.median_low)(
                m[name] for m in per_pass), "unit": unit}
            for name, (_, unit) in PER_LAYER.items()
        }
        untraced_run = statistics.median(p["run_s"] for p in untraced)
        traced_run = statistics.median(p["run_s"] for p in passes if p["traced"])
        overhead = {
            "trace.untraced_run_s": untraced_run,
            "trace.traced_run_s": traced_run,
            "trace.overhead_pct": 100.0 * (traced_run / untraced_run - 1.0),
        }
        metrics.update({name: {"value": overhead[name], "unit": unit}
                        for name, unit in OVERHEAD.items()})
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracing.write_jsonl(trace_path, tracers)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
