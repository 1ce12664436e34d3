import time

import numpy as np
import pytest

from idealref import fixpoint_ideal_mask
from starclean import suites
from starclean.corpus import default_corpus
from starclean.properties import ring_property, stable_range_checks
from starclean.rings import Ideal
from starclean.specparse import build_star_ring
from starclean.suites import run_suite, run_suites


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def _by_label(corpus, label):
    return next(S for S in corpus if S.label == label)


def test_corpus_shape(corpus):
    assert len(corpus) >= 15
    assert max(S.ring.size for S in corpus) == 256
    labels = [S.label for S in corpus]
    assert len(labels) == len(set(labels))


def test_all_suites_pass(corpus):
    start = time.monotonic()
    results = run_suites(corpus, tags=None, jobs=1)
    elapsed = time.monotonic() - start
    for result in results:
        bad = [row for row in result.rows if not row.ok]
        assert result.passed, (result.tag, [(r.label, r.note) for r in bad])
    assert elapsed < 300, f"suites took {elapsed:.1f}s"


def test_unknown_tag(corpus):
    with pytest.raises(KeyError):
        run_suite(corpus, "NOPE")


def test_parallel_matches_serial(corpus):
    serial = run_suites(corpus, tags=["ELEM-EQUIV", "BOOL", "LOCAL-EQUIV"], jobs=1)
    parallel = run_suites(corpus, tags=["ELEM-EQUIV", "BOOL", "LOCAL-EQUIV"], jobs=4)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


def test_strictness_witnesses(corpus):
    m2z2 = _by_label(corpus, "M2(Z2)/tr(id)")
    checks = stable_range_checks(m2z2)
    assert checks["isr1"].value and not checks["psr1"].value

    m2z3 = _by_label(corpus, "M2(Z3)/tr(id)")
    assert stable_range_checks(m2z3)["psr1"].value
    assert not ring_property(m2z3, "strongly-star-clean").value


def test_swap_member_separates_star_cleanness(corpus):
    swap = _by_label(corpus, "Z2xZ2/swap")
    assert ring_property(swap, "clean").value
    assert not ring_property(swap, "star-clean").value


# -- QUOT: one ideal closure per two-sided unit orbit ------------------------------------


def _reference_quotient_ideals(R):
    """QUOT's ideals by one closure per element: principal ideals, then J(R)."""
    seen = {}
    for g in R.elements():
        mask = fixpoint_ideal_mask(R, [g])
        seen.setdefault(tuple(np.flatnonzero(mask)), mask)
    J = R.jacobson_radical()
    seen.setdefault(J.elements(), J.mask)
    return list(seen.values())


@pytest.fixture(scope="module")
def quot_corpus(corpus):
    return [*corpus, build_star_ring("M2(Z4)", "tr(id)")]


def test_quot_ideals_match_per_element_reference(quot_corpus, monkeypatch):
    for S in quot_corpus:
        got = [ideal.mask for ideal in suites._quotient_ideals(S.ring)]
        want = _reference_quotient_ideals(S.ring)
        assert len(got) == len(want), S.label
        for a, b in zip(got, want):
            assert (a == b).all(), S.label
    rows = suites._suite_quot(quot_corpus)
    monkeypatch.setattr(
        suites,
        "_quotient_ideals",
        lambda R: [Ideal(R, m, check=False) for m in _reference_quotient_ideals(R)],
    )
    reference = suites._suite_quot(quot_corpus)
    assert reference == rows
    assert [r.to_dict() for r in reference] == [r.to_dict() for r in rows]


@pytest.mark.parametrize(
    "label, closures",
    [("M2(Z3)/tr(id)", 3), ("Z16/id", 5), ("GR(Z4,C4)/grp(id)", 16)],
)
def test_quot_computes_one_closure_per_unit_orbit(corpus, monkeypatch, label, closures):
    calls = []
    real = suites.generated_ideal

    def counting(R, generators):
        calls.append(tuple(generators))
        return real(R, generators)

    monkeypatch.setattr(suites, "generated_ideal", counting)
    [row] = suites._suite_quot([_by_label(corpus, label)])
    assert row.ok
    assert len(calls) == closures


# -- CORNER at e = 1 and QUOT at I = {0} use S itself ------------------------------------


def test_corner_and_quot_rows_match_full_copies(quot_corpus, monkeypatch):
    S = quot_corpus[0]
    assert suites._corner(S, S.ring.one) is S
    assert suites._quotient(S, Ideal.from_elements(S.ring, [S.ring.zero])) is S
    rows = {"CORNER": suites._suite_corner(quot_corpus), "QUOT": suites._suite_quot(quot_corpus)}
    monkeypatch.setattr(suites, "_corner", suites.corner_star_ring)
    monkeypatch.setattr(
        suites, "_quotient", lambda S, ideal: suites.induce_quotient_involution(S, ideal)[0]
    )
    copies = {"CORNER": suites._suite_corner(quot_corpus), "QUOT": suites._suite_quot(quot_corpus)}
    for tag in rows:
        assert [r.to_dict() for r in rows[tag]] == [r.to_dict() for r in copies[tag]], tag
    # both suites reach e = 1 and I = {0} on some member
    assert any(r.note.endswith("corners verified") for r in rows["CORNER"])
    assert any(r.note.endswith("quotients verified") for r in rows["QUOT"])
