"""Acceptance gate: each criterion prints one pass/fail line (run with -s)."""

import itertools
import time

import numpy as np
import pytest

from matrixgen import random_split_nonorthogonal, random_symmetric
from starclean.cli import main
from starclean.corpus import default_corpus
from starclean.elements import spsr_conditions, strongly_star_regular_witness
from starclean.errors import IllConditioned
from starclean.involutions import verify_involution
from starclean.matrixops import DenseMatrix, drazin_inverse, is_spsr_matrix
from starclean.properties import (
    PROPERTIES,
    check_stable_range_pair,
    check_witness,
    ring_property,
)
from starclean.specparse import build_star_ring
from starclean.suites import run_suites

REQUIRED_SUITES = (
    "ELEM-EQUIV",
    "RING-EQUIV",
    "JAC-EQUIV",
    "SPR-SPLIT",
    "MATRIX-NEG",
    "CORNER",
    "GROUPRING",
    "SRC-EQUIV",
    "SSC-PSR",
    "PSR-SC",
    "LOCAL-EQUIV",
    "TWO-UNIT",
    "BOOL",
    "QUOT",
    "PROPER-NIL",
    "IDPROJ-ABELIAN",
    "FINAL-EQUIV",
)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1a_boolean_swap():
    S = build_star_ring("Z2xZ2", "swap")
    ok = (
        ring_property(S, "clean").value is True
        and ring_property(S, "star-clean").value is False
    )
    _report("1a swap ring: clean but not star-clean (exact)", ok)


def test_criterion_1b_z4():
    S = build_star_ring("Z4", "id")
    ok = (
        ring_property(S, "strongly-pi-star-regular").value is True
        and strongly_star_regular_witness(S, 2) is None
        and all(spsr_conditions(S, 2).flags)
    )
    _report("1b Z4: ring property holds, element 2 not strongly star-regular", ok)


def test_criterion_1c_m2z2():
    S = build_star_ring("M2(Z2)", "tr(id)")
    R = S.ring
    expected = {
        R.from_value(v)
        for v in ([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 1]])
    }
    e11 = R.from_value([[1, 0], [0, 0]])
    e21 = R.from_value([[0, 0], [1, 0]])
    ok = (
        set(S.projections()) == expected
        and ring_property(S, "unit-regular").value is True
        and ring_property(S, "isr1").value is True
        and ring_property(S, "psr1").value is False
        and check_stable_range_pair(S, "psr1", e11, e21)
        and ring_property(S, "star-clean").value is True
    )
    _report("1c M2(Z2): four projections, unit-regular, isr1, psr1 fails, star-clean", ok)


def test_criterion_1d_m2z3():
    S = build_star_ring("M2(Z3)", "tr(id)")
    R = S.ring
    expected = {
        R.from_value(v)
        for v in (
            [[0, 0], [0, 0]],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 0]],
            [[0, 0], [0, 1]],
            [[2, 1], [1, 2]],
            [[2, 2], [2, 2]],
        )
    }
    # independent oracle for the idempotent count: plain-int enumeration of
    # trace-shape solutions y*z = x - x^2 plus the two trivial idempotents
    family = {
        ((x, y), (z, (1 - x) % 3))
        for x, y, z in itertools.product(range(3), repeat=3)
        if (y * z) % 3 == (x - x * x) % 3
    }
    oracle_count = len(family | {((0, 0), (0, 0)), ((1, 0), (0, 1))})
    ok = (
        set(S.projections()) == expected
        and ring_property(S, "strongly-star-clean").value is False
        and ring_property(S, "psr1").value is True
        and oracle_count == 14
        and len(R.idempotent_ids) == 14
    )
    _report("1d M2(Z3): six projections, not strongly star-clean, psr1, 14 idempotents", ok)


def test_criterion_2_suites(corpus):
    size_ok = len(corpus) >= 15 and max(S.ring.size for S in corpus) == 256
    start = time.monotonic()
    results = run_suites(corpus, list(REQUIRED_SUITES), jobs=1)
    elapsed = time.monotonic() - start
    failures = [
        (r.tag, row.label, row.note)
        for r in results
        for row in r.rows
        if not row.ok
    ]
    ok = size_ok and not failures and elapsed <= 300
    _report(
        "2 all seventeen suites PASS on the default corpus",
        ok,
        f"{len(corpus)} rings, {elapsed:.1f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_3_implication_chain(corpus):
    chain_ok = True
    for S in corpus:
        sr1, isr1, psr1 = (ring_property(S, p).value for p in ("sr1", "isr1", "psr1"))
        if psr1 and not isr1:
            chain_ok = False
        if isr1 and not sr1:
            chain_ok = False
    m2z2 = next(S for S in corpus if S.label == "M2(Z2)/tr(id)")
    m2z3 = next(S for S in corpus if S.label == "M2(Z3)/tr(id)")
    sep1 = (
        ring_property(m2z2, "isr1").value
        and not ring_property(m2z2, "psr1").value
    )
    sep2 = (
        ring_property(m2z3, "psr1").value
        and not ring_property(m2z3, "strongly-star-clean").value
    )
    _report("3 psr1 => isr1 => sr1 with both strictness witnesses", chain_ok and sep1 and sep2)


def test_criterion_4_numeric_batteries():
    tol = 1e-8
    rng = np.random.default_rng(2024)
    sym_ok = True
    residual_ok = True
    agree_ok = True
    ill = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        A = DenseMatrix(random_symmetric(rng, n))
        try:
            verdict, diag = is_spsr_matrix(A, tol)
            res = drazin_inverse(A, tol)
        except IllConditioned:
            ill += 1
            continue
        sym_ok = sym_ok and verdict
        agree_ok = agree_ok and verdict == diag["gram_verdict"]
        residual_ok = residual_ok and (
            res.residuals["commute"] <= 1e-8
            and res.residuals["inner"] <= 1e-8
            and res.residuals["nilpotent"] <= 1e-6
        )
    rng = np.random.default_rng(2025)
    split_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        A = DenseMatrix(random_split_nonorthogonal(rng, n))
        try:
            verdict, diag = is_spsr_matrix(A, tol)
            res = drazin_inverse(A, tol)
        except IllConditioned:
            ill += 1
            continue
        split_ok = split_ok and not verdict
        agree_ok = agree_ok and verdict == diag["gram_verdict"]
        residual_ok = residual_ok and (
            res.residuals["commute"] <= 1e-8
            and res.residuals["inner"] <= 1e-8
            and res.residuals["nilpotent"] <= 1e-6
        )
    _report(
        "4 numeric batteries: 1000 symmetric true, 1000 skewed splits false, "
        "residual bounds, verdict agreement",
        sym_ok and split_ok and residual_ok and agree_ok,
        f"{ill} ill-conditioned draws skipped",
    )


def test_criterion_5_property_suite(corpus):
    ok = True
    detail = ""
    for S in corpus:
        try:
            verify_involution(S.ring, S.star_table)
        except Exception:
            ok, detail = False, f"{S.label}: involution axioms"
            break
        if (S.projection_mask & ~S.ring.idempotent_mask).any():
            ok, detail = False, f"{S.label}: projections outside idempotents"
            break
        if not ring_property(S, "directly-finite").value:
            ok, detail = False, f"{S.label}: not directly finite"
            break
        if ring_property(S, "idempotents-are-projections").value:
            if not ring_property(S, "abelian").value:
                ok, detail = False, f"{S.label}: Id=P without abelian"
                break
        for prop in PROPERTIES:
            verdict = ring_property(S, prop)
            if not verdict.value:
                if verdict.witness is None or not check_witness(S, prop, verdict.witness):
                    ok, detail = False, f"{S.label}: {prop} witness fails revalidation"
                    break
        if not ok:
            break
    _report("5 axioms, subset inclusions, and witness revalidation over the corpus", ok, detail)


def test_criterion_6_determinism(capsys):
    argv = ["suite", "--corpus", "default", "--suites", "all", "--jobs", "8"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and out1.strip().startswith("{")
    with capsys.disabled():
        _report("6 suite runs with --jobs 8 are byte-identical", ok)
