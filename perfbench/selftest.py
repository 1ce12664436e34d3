"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

They check that the benchmark's inputs follow from the seed alone, that a
wrong output is counted as failed, that the tail percentile always has ten
samples beyond it, and that the metric names match BENCHMARK.json.
"""

import copy
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from starclean.corpus import default_corpus  # noqa: E402
from starclean.properties import PROPERTIES, STABLE_RANGE_PROPERTIES  # noqa: E402
from starclean.specparse import build_star_ring  # noqa: E402
from starclean.suites import SUITE_TAGS  # noqa: E402
from tracing import Tracer  # noqa: E402

RING_WORKLOADS = [w for w in workloads.WORKLOADS.values() if isinstance(w, workloads.RingWorkload)]


def _same_inputs(a, b) -> bool:
    if isinstance(a, tuple):  # numeric-battery: (matrices, query order)
        return a[1] == b[1] and _same_inputs(a[0], b[0])
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x[0], np.ndarray):
            if x[1] != y[1] or x[0].shape != y[0].shape or not np.array_equal(x[0], y[0]):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    W = workloads.WORKLOADS[name]
    assert _same_inputs(W.inputs(7, 0), W.inputs(7, 0))
    assert _same_inputs(W.inputs(7, 3), W.inputs(7, 3))
    assert not _same_inputs(W.inputs(7, 0), W.inputs(8, 0))
    assert not _same_inputs(W.inputs(7, 0), W.inputs(7, 1))


@pytest.mark.parametrize("W", RING_WORKLOADS, ids=lambda w: w.name)
def test_query_plan_sweeps_every_element_evenly(W):
    plan = W.inputs(11, 2)
    everything = {(r, a) for r, n in enumerate(W.sizes()) for a in range(n)}
    assert set(plan) == everything
    assert len(plan) == workloads.REPEATS * len(everything)
    assert len(set(np.unique(np.array(plan), axis=0, return_counts=True)[1])) == 1


def test_numeric_order_repeats_every_matrix():
    W = workloads.WORKLOADS["numeric-battery"]
    pairs, order = W.inputs(11, 2)
    assert len(pairs) == 2 * W.per_kind
    assert sorted(order) == sorted(list(range(len(pairs))) * workloads.REPEATS)


def test_repeat_medians_drop_a_lone_stall():
    keys = ["a", "b", "a", "b", "a", "b"]
    latencies = [1.0, 2.0, 9.0, 2.0, 1.0, 2.5]
    assert workloads.repeat_medians(keys, latencies) == [1.0, 2.0]


def test_flipped_golden_verdict_raises_failed_frac():
    rings = [build_star_ring("M2(Z4)", "tr(id)")]
    label = rings[0].label
    golden = {label: workloads.load_golden("ladder-matrix")["verdicts"][label]}
    verdicts = workloads.decide_each(rings, PROPERTIES, None)
    assert workloads.check_verdicts(rings, verdicts, golden) == (len(PROPERTIES), 0)
    for prop in ("clean", "sr1"):
        flipped = copy.deepcopy(golden)
        flipped[label][prop][0] = not flipped[label][prop][0]
        attempted, failed = workloads.check_verdicts(rings, verdicts, flipped)
        assert failed == 1 and failed / attempted > 0


def test_flipped_element_digest_raises_failed_frac():
    W = workloads.WORKLOADS["corpus-suites"]
    corpus = default_corpus()
    plan = W.inputs(5, 0)
    _, answers = workloads.element_queries(corpus, plan, None)
    golden = workloads.load_golden("corpus-suites")["elements"]
    assert workloads.check_answers(corpus, plan, answers, golden) == (len(plan), 0)
    r, a = plan[0]
    label = corpus[r].label
    broken = copy.deepcopy(golden)
    broken[label][a] = "0" * workloads.DIGEST_CHARS
    attempted, failed = workloads.check_answers(corpus, plan, answers, broken)
    assert failed == plan.count((r, a)) and failed / attempted > 0


def test_broken_certificate_is_caught_without_golden():
    S = build_star_ring("Z4", "id")
    answer = [call(S, 1) for _, call in workloads.ELEMENT_CALLS]
    assert workloads.answer_holds(S, 1, answer)
    assert not workloads.answer_holds(S, 3, answer)  # right parts, wrong subject


def test_traced_and_untraced_passes_give_the_same_suite_report():
    W = workloads.WORKLOADS["corpus-suites"]
    plain = W.decide(W.setup(None, None), None)
    traced = W.decide(W.setup(None, Tracer()), Tracer())
    assert plain == traced == workloads.load_golden("corpus-suites")["suite_json"]


@pytest.mark.parametrize("n", [1000, 1001, 1099, 1100, 1341, 4449, 6292, 100_000])
def test_p99_leaves_ten_samples_beyond(n):
    samples = [i / 1000.0 for i in range(n)]
    random.Random(n).shuffle(samples)
    summary = metrics.latency_summary(samples)
    p99_s = summary["query_p99_ms"] / 1000.0
    assert sum(s > p99_s for s in samples) >= 10
    assert summary["beyond_p99"] >= 10


def test_tail_percentile_refuses_small_samples():
    assert all(metrics.samples_beyond(n, metrics.TAIL_PERCENTILE) >= 10 for n in range(1000, 20_000))
    with pytest.raises(ValueError):
        metrics.latency_summary([0.001] * 999)


def test_self_time_subtracts_children():
    T = Tracer()
    T.spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, 7],
    ]
    assert T.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_spans_nest_and_carry_query_ids():
    T = Tracer()
    with T.span("outer"):
        T.query = 3
        with T.span("inner"):
            T.count("things", 2)
    assert [(s[0], s[3], s[4]) for s in T.spans] == [("outer", -1, None), ("inner", 0, 3)]
    assert T.count_totals() == {"things": 2}


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: unit for name, (_, unit) in metrics.PER_LAYER.items()}
    assert layer == {**expected, **metrics.OVERHEAD}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fixed_metric_lists_cover_the_library():
    assert metrics.SUITE_TAGS == SUITE_TAGS
    assert metrics.NONSTABLE_PROPERTIES == tuple(
        p for p in PROPERTIES if p not in STABLE_RANGE_PROPERTIES
    )


def test_ill_conditioned_answer_needs_a_singular_value_near_the_threshold():
    near = np.diag([1.8, 1.5, 0.6, 9.4e-8])  # 9.4e-8 is within 10x of 1e-8 * 1.8 * 4
    assert workloads.near_rank_threshold(near)
    assert not workloads.near_rank_threshold(np.diag([1.8, 1.5, 0.6, 0.2]))
    assert not workloads.near_rank_threshold(np.diag([1.8, 1.5, 0.6, 0.0]))
