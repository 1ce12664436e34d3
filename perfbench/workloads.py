"""The benchmark workloads: inputs, set-up, work and output checks.

Each workload calls the public functions the CLI subcommand it mirrors
calls, in the same order. ``T`` is None on untraced passes. A traced pass
passes a ``Tracer``: the workload then wraps a span around each call into a
library module and touches the shared caches explicitly, in a fixed order,
before the deciders run, so that each cache is charged once to its own span.

Every pass is checked against golden outputs (see ``golden.py``) and also
re-validated independently: ``check_witness`` on every False verdict,
``holds`` on every element certificate, and ``verdict == gram_verdict`` on
every numeric verdict.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from starclean import matrixops
from starclean.corpus import default_corpus, warmup
from starclean.elements import (
    CLEAN_MODES,
    clean_certificates,
    spsr_conditions,
    strongly_pi_regular_witness,
    strongly_star_regular_witness,
    unit_sasr_decomposition,
)
from starclean.errors import IllConditioned
from starclean.involutions import StarRing
from starclean.matrixops import DEFAULT_TOL, DenseMatrix, is_spsr_matrix
from starclean.properties import (
    PROPERTIES,
    STABLE_RANGE_PROPERTIES,
    check_witness,
    ring_property,
)
from starclean.report import corpus_matrix, json_dumps, suites_to_dict
from starclean.rings import build_ring, spec_string
from starclean.specparse import (
    build_star_ring,
    involution_spec_string,
    make_involution,
    parse_involution_spec,
    parse_ring_spec,
)
from starclean.suites import SUITE_TAGS, run_suite, run_suites

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# A pass asks every distinct query this many times, in a seeded order, and a
# query's latency in the pass is the median of its timings. A lone stall of
# the shared host (another tenant, an interrupt) hits one timing and is
# dropped, so the latency tail shows the program's slowest queries.
REPEATS = 3
DIGEST_CHARS = 12

# Ring sizes fix each query plan before the rings are built; set-up checks them.
CORPUS_SIZES = (2, 3, 4, 5, 6, 8, 9, 16, 4, 4, 16, 81, 16, 4, 256, 8, 2, 3)
# (ring recipe, involution recipe, ring size)
LADDER = (
    ("M2(Z4)", "tr(id)", 256),
    ("M3(Z2)", "tr(id)", 512),
    ("M2(Z5)", "tr(id)", 625),
    ("GR(Z3,C6)", "grp(id)", 729),
    ("TP(Z2,10)", "tp(id)", 1024),
)


def _span(T, name: str):
    return nullcontext() if T is None else T.span(name)


def property_span(prop: str) -> str:
    # the first stable-range property computes all three
    if prop in STABLE_RANGE_PROPERTIES:
        return "properties.stable_range"
    return f"properties.{prop}"


def distinct_rows(mask: np.ndarray) -> int:
    return len({row.tobytes() for row in np.packbits(mask, axis=1)})


# Shared caches in the order ``warmup`` fills them:
# (span name, touch, count name or None, count).
CACHE_STEPS = (
    ("rings.units", lambda S: S.ring.units_mask, "rings.units", lambda S: len(S.ring.units())),
    ("rings.idempotents", lambda S: S.ring.idempotent_mask,
     "rings.idempotents", lambda S: int(S.ring.idempotent_mask.sum())),
    ("rings.nilpotents", lambda S: S.ring.nilpotent_mask, None, None),
    ("rings.center", lambda S: S.ring.center_mask, None, None),
    ("rings.jacobson", lambda S: S.ring.jacobson_radical(), None, None),
    ("rings.right_ideals", lambda S: S.ring.right_ideal_masks,
     "rings.principal_right_ideals", lambda S: distinct_rows(S.ring.right_ideal_masks)),
    ("rings.comaximal", lambda S: S.ring.comaximal_pairs, None, None),
    ("involutions.projections", lambda S: S.projection_mask,
     "involutions.projections", lambda S: len(S.projections())),
    ("involutions.sasr_units", lambda S: S.sasr_units, None, None),
    ("involutions.mod_jacobson", lambda S: S.mod_jacobson(), None, None),
)


def touch_caches(rings: list[StarRing], T) -> None:
    for S in rings:
        for name, touch, count_name, count in CACHE_STEPS:
            with T.span(name):
                touch(S)
            if count_name:
                T.count(count_name, count(S))


def build_traced(ring_text: str, inv_text: str, T) -> StarRing:
    """``build_star_ring`` split at its stages, with a span for each."""
    with T.span("rings.build"):
        rspec = parse_ring_spec(ring_text)
        ispec = parse_involution_spec(inv_text)
        R = build_ring(rspec)
    with T.span("rings.tables"):
        R.add_table  # builds the add, mul and neg tables together
    count_tables(R, T)
    with T.span("involutions.build"):
        inv = make_involution(R, ispec)
    return StarRing(R, inv, label=f"{spec_string(rspec)}/{involution_spec_string(ispec)}")


def count_tables(R, T) -> None:
    T.count("rings.size", R.size)
    T.count("rings.table_bytes", R.add_table.nbytes + R.mul_table.nbytes + R.neg_table.nbytes)


def decide_each(rings: list[StarRing], props, T) -> dict[str, dict]:
    out = {}
    for S in rings:
        row = out[S.label] = {}
        for prop in props:
            with _span(T, property_span(prop)):
                row[prop] = ring_property(S, prop)
    return out


def verdict_record(v) -> list:
    return [bool(v.value), None if v.witness is None else [int(i) for i in v.witness.ids]]


def check_verdicts(rings: list[StarRing], verdicts: dict, golden: dict) -> tuple[int, int]:
    """(attempted, failed) over golden (ring, property) verdicts.

    A verdict fails when its value or witness differs from the golden one,
    or when it is False and ``check_witness`` rejects its witness.
    """
    by_label = {S.label: S for S in rings}
    attempted = failed = 0
    for label, expected in golden.items():
        got = verdicts.get(label, {})
        for prop, record in expected.items():
            attempted += 1
            v = got.get(prop)
            ok = (
                v is not None
                and verdict_record(v) == record
                and (v.value or check_witness(by_label[label], prop, v.witness))
            )
            failed += not ok
    return attempted, failed


# -- element queries -------------------------------------------------------------

ELEMENT_CALLS = (
    ("elements.clean_certificates", lambda S, a: [clean_certificates(S, a, m) for m in CLEAN_MODES]),
    ("elements.spr_witness", lambda S, a: strongly_pi_regular_witness(S.ring, a)),
    ("elements.ssr_witness", strongly_star_regular_witness),
    ("elements.spsr_conditions", spsr_conditions),
    ("elements.sasr", unit_sasr_decomposition),
)


def sweeps(rng, n: int) -> np.ndarray:
    """REPEATS seeded permutations of range(n), one after another."""
    return np.concatenate([rng.permutation(n) for _ in range(REPEATS)])


def query_plan(seed: int, iteration: int, sizes) -> list[tuple[int, int]]:
    """Seeded sweeps over every (ring index, element) pair."""
    rng = np.random.default_rng([seed, iteration])
    pairs = np.array([(r, a) for r, n in enumerate(sizes) for a in range(n)])
    return [tuple(p) for p in pairs[sweeps(rng, len(pairs))].tolist()]


def repeat_medians(keys, latencies) -> list[float]:
    """The median latency of each distinct query key, in first-seen order."""
    by_key: dict = {}
    for key, latency in zip(keys, latencies):
        by_key.setdefault(key, []).append(latency)
    return [float(np.median(v)) for v in by_key.values()]


def scaled_stream(gauge):
    """Collects per-query latencies, scaled by the gauge stretch they fall in.

    ``add`` records one raw latency and closes the stretch once it is due;
    ``close`` closes the last one. Without a gauge latencies stay raw.
    """
    latencies, block = [], []

    def flush():
        factor = gauge.lap()[1]
        latencies.extend(x * factor for x in block)
        block.clear()

    def add(latency: float) -> None:
        if gauge is None:
            latencies.append(latency)
            return
        block.append(latency)
        if gauge.due():
            flush()

    def close() -> list[float]:
        if block:
            flush()
        return latencies

    return add, close


def element_queries(rings: list[StarRing], plan, T, gauge=None):
    """Answer every planned query (what ``starclean element`` computes); time each."""
    if T is None:
        calls = [fn for _, fn in ELEMENT_CALLS]
    else:
        calls = [T.wrap(name, fn) for name, fn in ELEMENT_CALLS]
    add, close = scaled_stream(gauge)
    answers = []
    for qid, (r, a) in enumerate(plan):
        S = rings[r]
        if T is not None:
            T.query = qid
        start = perf_counter()
        try:
            answer = [call(S, a) for call in calls]
        except Exception as exc:  # a failed query is counted, not fatal
            answer = exc
        add(perf_counter() - start)
        answers.append(answer)
    if T is not None:
        T.query = None
    return close(), answers


def element_digest(answer) -> str:
    clean, spr, ssr, spsr, sasr = answer
    payload = [
        [[[c.part, c.unit] for c in certs] for certs in clean],
        spr,
        ssr,
        [None if c is None else [c.tag, sorted(c.data.items())]
         for c in (spsr.c1, spsr.c2, spsr.c3, spsr.c4)],
        sasr,
    ]
    text = json.dumps(payload, default=int)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def answer_holds(S: StarRing, a: int, answer) -> bool:
    """Re-check every certificate and witness in one answer from its parts."""
    R = S.ring
    clean, spr, ssr, spsr, sasr = answer
    if not all(c.subject == a and c.holds(S) for certs in clean for c in certs):
        return False
    certs = [c for c in (spsr.c1, spsr.c2, spsr.c3, spsr.c4) if c is not None]
    if not spsr.consistent or not all(c.holds(S) for c in certs):
        return False
    if spr is not None:
        n, x, y = spr
        w = a
        for _ in range(n - 1):
            w = R.mul(w, a)
        nxt = R.mul(w, a)
        if R.mul(nxt, x) != w or R.mul(y, nxt) != w:
            return False
    if ssr is not None:
        p, u = ssr
        if not (S.projection_mask[p] and R.units_mask[u] and R.mul(p, u) == a == R.mul(u, p)):
            return False
    if sasr is not None:
        t, u = sasr
        if not (S.star(t) == t and R.mul(t, t) == R.one and R.units_mask[u] and R.add(t, u) == a):
            return False
    return True


def check_answers(rings, plan, answers, golden: dict) -> tuple[int, int]:
    failed = 0
    for (r, a), answer in zip(plan, answers):
        S = rings[r]
        digests = golden.get(S.label, ())
        ok = (
            not isinstance(answer, Exception)
            and a < len(digests)
            and element_digest(answer) == digests[a]
            and answer_holds(S, a, answer)
        )
        failed += not ok
    return len(plan), failed


# -- ring workloads ---------------------------------------------------------------


class RingWorkload:
    """Set-up builds the rings; work decides, then answers the element queries."""

    name = ""
    rings: tuple = ()

    def sizes(self):
        return [n for _, _, n in self.rings]

    def inputs(self, seed: int, iteration: int):
        return query_plan(seed, iteration, self.sizes())

    def setup(self, plan, T, gauge=None):
        rings = []
        for r, i, _ in self.rings:
            rings.append(build_star_ring(r, i) if T is None else build_traced(r, i, T))
            if gauge is not None:
                gauge.lap()
        self.check_sizes(rings)
        return rings

    def check_sizes(self, rings) -> None:
        sizes = [S.ring.size for S in rings]
        if sizes != self.sizes():
            raise RuntimeError(f"{self.name}: ring sizes {sizes} differ from {self.sizes()}")

    def work(self, rings, plan, T, gauge=None):
        result = self.decide(rings, T, gauge)
        latencies, answers = element_queries(rings, plan, T, gauge)
        return (result, answers), repeat_medians(plan, latencies)

    def check(self, rings, plan, outputs, golden) -> tuple[int, int]:
        result, answers = outputs
        attempted, failed = self.check_result(rings, result, golden)
        q_attempted, q_failed = check_answers(rings, plan, answers, golden["elements"])
        return attempted + q_attempted, failed + q_failed

    def golden(self) -> dict:
        rings = self.setup(None, None)
        plan = [(r, a) for r, n in enumerate(self.sizes()) for a in range(n)]
        result = self.decide(rings, None)
        _, answers = element_queries(rings, plan, None)
        elements = {S.label: [] for S in rings}
        for (r, _), answer in zip(plan, answers):
            elements[rings[r].label].append(element_digest(answer))
        return {**self.result_golden(rings, result), "elements": elements}


class CorpusSuites(RingWorkload):
    name = "corpus-suites"

    def sizes(self):
        return list(CORPUS_SIZES)

    def setup(self, plan, T, gauge=None):
        with _span(T, "corpus.default_corpus"):
            corpus = default_corpus()
        if T is not None:
            for S in corpus:
                count_tables(S.ring, T)
        self.check_sizes(corpus)
        return corpus

    def decide(self, corpus, T, gauge=None) -> str:
        # as `starclean suite --corpus default --suites all --jobs 1`
        if T is None:
            results = run_suites(corpus, None, jobs=1)
            return json_dumps(suites_to_dict(results, corpus))
        with T.span("corpus.warmup"):
            touch_caches(corpus, T)
            warmup(corpus)
        results = []
        for tag in SUITE_TAGS:
            with T.span(f"suites.{tag}"):
                results.append(run_suite(corpus, tag))
        with T.span("report.serialize"):
            return json_dumps(suites_to_dict(results, corpus))

    def check_result(self, corpus, text: str, golden) -> tuple[int, int]:
        """Each suite row must be consistent and equal its golden row."""
        expected = json.loads(golden["suite_json"])
        got = json.loads(text)
        attempted = failed = 0
        got_suites = {s["tag"]: s for s in got["suites"]}
        for suite in expected["suites"]:
            got_rows = got_suites.get(suite["tag"], {}).get("rings", [])
            for i, row in enumerate(suite["rings"]):
                attempted += 1
                ok = i < len(got_rows) and got_rows[i] == row and row["status"] == "consistent"
                failed += not ok
        if failed == 0 and text != golden["suite_json"]:
            failed = 1  # same rows, but the canonical bytes changed
        return attempted, failed

    def result_golden(self, corpus, text) -> dict:
        return {"suite_json": text}


class LadderMatrix(RingWorkload):
    name = "ladder-matrix"
    rings = LADDER

    def decide(self, rings, T, gauge=None):
        # as `starclean corpus-matrix --format json --jobs 1` on the ladder,
        # one ring at a time so that the gauge can lap between rings
        if T is None:
            reports = []
            for S in rings:
                warmup([S])
                reports += corpus_matrix([S], PROPERTIES, jobs=1)
                if gauge is not None:
                    gauge.lap()
            return reports, json_dumps(matrix_payload(reports))
        with T.span("corpus.warmup"):
            touch_caches(rings, T)
            warmup(rings)
        decide_each(rings, PROPERTIES, T)
        reports = corpus_matrix(rings, PROPERTIES, jobs=1)  # reads the verdict cache
        with T.span("report.serialize"):
            return reports, json_dumps(matrix_payload(reports))

    def check_result(self, rings, result, golden) -> tuple[int, int]:
        reports, text = result
        verdicts = {r.label: r.verdicts for r in reports}
        attempted, failed = check_verdicts(rings, verdicts, golden["verdicts"])
        same_bytes = hashlib.sha256(text.encode()).hexdigest() == golden["report_sha256"]
        return attempted + 1, failed + (not same_bytes)

    def result_golden(self, rings, result) -> dict:
        reports, text = result
        return {
            "verdicts": {r.label: {p: verdict_record(v) for p, v in r.verdicts.items()}
                         for r in reports},
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }


def matrix_payload(reports) -> dict:
    return {
        "command": "corpus-matrix",
        "properties": list(PROPERTIES),
        "rings": [r.to_dict() for r in reports],
    }


# -- numeric battery --------------------------------------------------------------

# The recipe of tests/matrixgen.py, kept here so that the benchmark's inputs
# do not move when the tests change.


def random_symmetric(rng, n):
    """Symmetric matrix with entries uniform on [-1, 1]."""
    M = rng.uniform(-1.0, 1.0, (n, n))
    return np.triu(M) + np.triu(M, 1).T


def random_split_nonorthogonal(rng, n, max_tries=500):
    """Similarity-conjugated block diag(C, N) whose core and null subspaces
    are decisively non-orthogonal under the transpose pairing."""
    for _ in range(max_tries):
        r = int(rng.integers(1, n))
        C = rng.uniform(-1.0, 1.0, (r, r))
        if np.linalg.svd(C, compute_uv=False)[-1] < 0.2:
            continue
        mag = rng.uniform(0.3, 1.0, (n - r, n - r))
        sign = rng.choice([-1.0, 1.0], (n - r, n - r))
        N = np.triu(mag * sign, 1)
        P = rng.uniform(-1.0, 1.0, (n, n))
        s = np.linalg.svd(P, compute_uv=False)
        if s[-1] < 0.15 or s[0] / s[-1] > 50:
            continue
        Q1 = np.linalg.qr(P[:, :r])[0]
        Q2 = np.linalg.qr(P[:, r:])[0]
        if np.linalg.norm(Q1.T @ Q2, 2) < 0.05:
            continue
        block = np.zeros((n, n))
        block[:r, :r] = C
        block[r:, r:] = N
        return P @ block @ np.linalg.inv(P)
    raise RuntimeError("failed to generate a decisive test matrix")


def numeric_inputs(rng, per_kind: int) -> list[tuple[np.ndarray, bool]]:
    """Alternating symmetric (expected true) and skewed-split (expected false) matrices."""
    out = []
    for _ in range(per_kind):
        out.append((random_symmetric(rng, int(rng.integers(2, 7))), True))
        out.append((random_split_nonorthogonal(rng, int(rng.integers(2, 7))), False))
    return out


def near_rank_threshold(A, tol: float = DEFAULT_TOL) -> bool:
    """Some singular value of A lies within 100x of the rank threshold."""
    s = np.linalg.svd(A, compute_uv=False)
    threshold = tol * float(s[0]) * len(s)
    return bool(((s > threshold / 100) & (s < threshold * 100)).any())


REFERENCE_SEED = 20150112
REFERENCE_PER_KIND = 50


def numeric_outcome(M) -> list | str:
    try:
        verdict, diag = is_spsr_matrix(M)
    except IllConditioned:
        return "ill-conditioned"
    return [bool(verdict), bool(diag["gram_verdict"]), int(diag["index"]), int(diag["rank"])]


class NumericBattery:
    """Set-up builds the DenseMatrix inputs; work decides each one REPEATS times.

    Inputs are the seeded matrices with their expected verdicts, and the
    seeded order of the queries: one query is one is_spsr_matrix call.
    """

    name = "numeric-battery"
    per_kind = 500

    def inputs(self, seed: int, iteration: int):
        rng = np.random.default_rng([seed, iteration])
        pairs = numeric_inputs(rng, self.per_kind)
        return pairs, sweeps(rng, len(pairs)).tolist()

    def setup(self, inputs, T, gauge=None):
        pairs, _ = inputs
        with _span(T, "matrixops.dense"):
            return [DenseMatrix(A) for A, _ in pairs]

    def work(self, matrices, inputs, T, gauge=None):
        decide = is_spsr_matrix
        original = matrixops.drazin_inverse
        if T is not None:
            decide = T.wrap("matrixops.is_spsr", is_spsr_matrix)
            # is_spsr_matrix looks drazin_inverse up in its module at each call
            matrixops.drazin_inverse = T.wrap("matrixops.drazin", original)
        _, order = inputs
        add, close = scaled_stream(gauge)
        answers = []
        try:
            for qid, i in enumerate(order):
                M = matrices[i]
                if T is not None:
                    T.query = qid
                start = perf_counter()
                try:
                    answer = decide(M)
                except Exception as exc:  # counted by check, not fatal
                    answer = exc
                add(perf_counter() - start)
                answers.append(answer)
        finally:
            matrixops.drazin_inverse = original
        latencies = close()
        if T is not None:
            T.query = None
            distinct = dict(zip(order, answers))
            T.count("matrixops.ill_conditioned",
                    sum(isinstance(a, IllConditioned) for a in distinct.values()))
        return answers, repeat_medians(order, latencies)

    def check(self, matrices, inputs, answers, golden) -> tuple[int, int]:
        """Each verdict must match its construction and its cross-gram verdict.

        An ill-conditioned answer is right only for a matrix that really has
        a singular value near the rank threshold; a random symmetric matrix
        can. The fixed reference battery must also reproduce its golden
        outcomes.
        """
        pairs, order = inputs
        failed = 0
        for i, answer in zip(order, answers):
            A, expected = pairs[i]
            if isinstance(answer, IllConditioned):
                ok = near_rank_threshold(A)
            else:
                ok = (
                    isinstance(answer, tuple)
                    and bool(answer[0]) == expected
                    and bool(answer[1]["gram_verdict"]) == expected
                )
            failed += not ok
        reference = golden["reference"]
        outcomes = self.reference_outcomes()
        failed += sum(o != g for o, g in zip(outcomes, reference)) + abs(len(outcomes) - len(reference))
        return len(order) + len(reference), failed

    def reference_outcomes(self) -> list:
        inputs = numeric_inputs(np.random.default_rng(REFERENCE_SEED), REFERENCE_PER_KIND)
        return [numeric_outcome(DenseMatrix(A)) for A, _ in inputs]

    def golden(self) -> dict:
        return {"reference": self.reference_outcomes()}


WORKLOADS = {w.name: w for w in (CorpusSuites(), LadderMatrix(), NumericBattery())}


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())
