"""Metric names, units and summaries shared by the runner and its tests."""

import math

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}
TAIL_PERCENTILE = 99
# a run goes on until it has this many query latencies, ten beyond p99
MIN_LATENCY_SAMPLES = 1000

SUITE_TAGS = (
    "ELEM-EQUIV", "RING-EQUIV", "JAC-EQUIV", "SPR-SPLIT", "MATRIX-NEG", "CORNER",
    "GROUPRING", "SRC-EQUIV", "SSC-PSR", "PSR-SC", "LOCAL-EQUIV", "TWO-UNIT", "BOOL",
    "QUOT", "PROPER-NIL", "IDPROJ-ABELIAN", "FINAL-EQUIV", "PSR-ONESIDED",
)
NONSTABLE_PROPERTIES = (
    "clean", "strongly-clean", "star-clean", "strongly-star-clean", "exchange",
    "pi-regular", "strongly-pi-regular", "strongly-pi-star-regular", "regular",
    "strongly-regular", "unit-regular", "star-regular", "strongly-star-regular",
    "boolean", "local", "abelian", "star-abelian", "idempotents-are-projections",
    "J-nil", "directly-finite",
)
# per-layer metric -> (span or count name, unit); times are self times
PER_LAYER = {
    "rings.tables_s": ("rings.tables", "s"),
    "rings.table_bytes": ("rings.table_bytes", "bytes"),
    **{f"rings.{c}_s": (f"rings.{c}", "s") for c in (
        "units", "idempotents", "nilpotents", "center", "jacobson", "right_ideals", "comaximal")},
    **{f"rings.{c}": (f"rings.{c}", "count") for c in (
        "size", "units", "idempotents", "principal_right_ideals")},
    "involutions.projections": ("involutions.projections", "count"),
    **{f"involutions.{c}_s": (f"involutions.{c}", "s") for c in (
        "build", "projections", "sasr_units", "mod_jacobson")},
    **{f"properties.{p}_s": (f"properties.{p}", "s") for p in NONSTABLE_PROPERTIES},
    "properties.stable_range_s": ("properties.stable_range", "s"),
    **{f"elements.{c}_s": (f"elements.{c}", "s") for c in (
        "clean_certificates", "spr_witness", "ssr_witness", "spsr_conditions", "sasr")},
    **{f"suites.{t}_s": (f"suites.{t}", "s") for t in SUITE_TAGS},
    "corpus.default_corpus_s": ("corpus.default_corpus", "s"),
    "corpus.warmup_s": ("corpus.warmup", "s"),
    "report.serialize_s": ("report.serialize", "s"),
    "matrixops.drazin_s": ("matrixops.drazin", "s"),
    "matrixops.is_spsr_s": ("matrixops.is_spsr", "s"),
    "matrixops.ill_conditioned": ("matrixops.ill_conditioned", "count"),
}
OVERHEAD = {
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_pct": "%",
}


def percentile(sorted_samples, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_samples[max(0, math.ceil(p / 100 * len(sorted_samples)) - 1)]


def samples_beyond(n: int, p: float) -> int:
    return n - max(1, math.ceil(p / 100 * n))


def latency_summary(latencies_s) -> dict:
    """p50 and p99 in ms; refuses a sample too small for ten samples beyond p99."""
    n = len(latencies_s)
    if samples_beyond(n, TAIL_PERCENTILE) < 10:
        raise ValueError(f"{n} latency samples leave fewer than 10 beyond p{TAIL_PERCENTILE}")
    ordered = sorted(latencies_s)
    return {
        "query_p50_ms": percentile(ordered, 50) * 1000.0,
        "query_p99_ms": percentile(ordered, TAIL_PERCENTILE) * 1000.0,
        "samples": n,
        "beyond_p99": samples_beyond(n, TAIL_PERCENTILE),
    }


def layer_metrics(tracer) -> dict:
    times = tracer.self_times()
    counts = tracer.count_totals()
    out = {}
    for metric, (name, unit) in PER_LAYER.items():
        out[metric] = times.get(name, 0.0) if unit == "s" else counts.get(name, 0)
    return out
