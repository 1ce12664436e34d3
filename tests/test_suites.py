import json
import time
from pathlib import Path

import numpy as np
import pytest

from idealref import fixpoint_ideal_mask
from ringref import (
    REFERENCE_SUITES,
    reference_corner,
    reference_elem_equiv,
    reference_proper_nil,
    reference_ring_equiv_c5,
    reference_src_c2,
    reference_src_c7,
)
import starclean.elements as elements
import starclean.rings as rings
from starclean import suites
from starclean.corpus import default_corpus
from starclean.errors import UnknownProperty
from starclean.properties import lifting_checks, ring_property
from starclean.report import json_dumps, suites_to_dict
from starclean.rings import FiniteRing, GroupRing, Ideal
from starclean.specparse import build_star_ring
from starclean.suites import SUITE_TAGS, run_suite, run_suites


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


def test_suite_json_matches_the_benchmark_golden(corpus):
    golden = Path(__file__).parents[1] / "perfbench" / "golden" / "corpus-suites.json"
    got = json_dumps(suites_to_dict(run_suites(corpus), corpus))
    assert got == json.loads(golden.read_text())["suite_json"]


def test_unknown_tag(corpus):
    with pytest.raises(UnknownProperty):
        run_suite(corpus, "NOPE")


def test_parallel_matches_serial(corpus):
    serial = run_suites(corpus, tags=["ELEM-EQUIV", "BOOL", "LOCAL-EQUIV"], jobs=1)
    parallel = run_suites(corpus, tags=["ELEM-EQUIV", "BOOL", "LOCAL-EQUIV"], jobs=4)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


def test_strictness_witnesses(corpus):
    m2z2 = _by_label(corpus, "M2(Z2)/tr(id)")
    assert ring_property(m2z2, "isr1").value and not ring_property(m2z2, "psr1").value

    m2z3 = _by_label(corpus, "M2(Z3)/tr(id)")
    assert ring_property(m2z3, "psr1").value
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
    rows = run_suite(quot_corpus, "QUOT").rows
    monkeypatch.setattr(
        suites,
        "_quotient_ideals",
        lambda R: [Ideal(R, m, check=False) for m in _reference_quotient_ideals(R)],
    )
    reference = run_suite(quot_corpus, "QUOT").rows
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
    [row] = run_suite([_by_label(corpus, label)], "QUOT").rows
    assert row.ok
    assert len(calls) == closures


# -- CORNER at e = 1 and QUOT at I = {0} use S itself ------------------------------------


def _corner_quot_jac(corpus):
    found = {
        tag: [r.to_dict() for r in run_suite(corpus, tag).rows]
        for tag in ("CORNER", "QUOT", "JAC-EQUIV")
    }
    found["lifting"] = [lifting_checks(S) for S in corpus]
    return found


def test_corner_and_quot_rows_match_full_copies(quot_corpus, monkeypatch):
    S = quot_corpus[0]
    assert suites._corner(S, S.ring.one) is S
    assert suites._quotient(S, Ideal.from_elements(S.ring, [S.ring.zero])) is S
    # R/J(R) is R itself on the members with J(R) = 0
    assert any(S.mod_jacobson()[0] is S for S in quot_corpus)
    rows = _corner_quot_jac(quot_corpus)
    monkeypatch.setattr(suites, "_corner", suites.corner_star_ring)
    monkeypatch.setattr(
        suites, "_quotient", lambda S, ideal: suites.induce_quotient_involution(S, ideal)[0]
    )
    for S in quot_corpus:
        full = suites.induce_quotient_involution(S, S.ring.jacobson_radical())
        monkeypatch.setitem(S.__dict__, "_mod_jacobson", full)
    copies = _corner_quot_jac(quot_corpus)
    for tag in rows:
        assert rows[tag] == copies[tag], tag
    # both suites reach e = 1 and I = {0} on some member
    assert any(r["note"].endswith("corners verified") for r in rows["CORNER"])
    assert any(r["note"].endswith("quotients verified") for r in rows["QUOT"])


# -- the suites that read element masks against their one-element loops ------------------

LADDER = (
    ("M2(Z4)", "tr(id)"),
    ("M3(Z2)", "tr(id)"),
    ("M2(Z5)", "tr(id)"),
    ("GR(Z3,C6)", "grp(id)"),
    ("TP(Z2,10)", "tp(id)"),
)


@pytest.fixture(scope="module")
def mask_rings(corpus):
    """The corpus, the ladder, and Z2^8/id, where every element is a projection."""
    ladder = [build_star_ring(ring, inv) for ring, inv in LADDER]
    return [*corpus, *ladder, build_star_ring("x".join(["Z2"] * 8), "id")]


def _same_row(got, want):
    assert got == want, (got, want)
    assert type(got.ok) is bool
    # plain json refuses numpy scalars, so every detail value is a Python int or bool
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_mask_suites_match_their_loop_references(mask_rings):
    group_rings = [S for S in mask_rings if isinstance(S.ring, GroupRing)]
    for tag, reference in REFERENCE_SUITES.items():
        members = mask_rings
        if tag == "GROUPRING":
            members = [*suites._INSTANCES[tag](mask_rings), *group_rings]
        for S in members:
            _same_row(suites.SUITES[tag](S), reference(S))
    for S in mask_rings:
        assert suites._src_c7(S) == reference_src_c7(S), S.label


def test_gathered_sides_match_their_loop_references(mask_rings, monkeypatch):
    """RING-EQUIV's c5 and SRC-EQUIV's c2, each in at least 3 row blocks."""
    extra = [build_star_ring("Z4xZ4", "swap"),
             build_star_ring("M2(Z2)xM2(Z2)", "prod(tr(id),tr(id))")]
    for S in [*mask_rings, *extra]:
        n, p = S.ring.size, len(S.projection_ids)
        sides = (
            (suites._ring_equiv_c5, p, reference_ring_equiv_c5(S)),
            (suites._src_c2, n * p, reference_src_c2(S)),
        )
        for side, row_len, want in sides:
            monkeypatch.setattr(rings, "_BLOCK_ENTRIES", max(1, n // 4) * row_len)
            assert len(rings._row_blocks(0, n, row_len)) >= min(3, n)
            assert side(S) is want, (S.label, side.__name__)


def test_gathered_sides_read_the_last_row_block(monkeypatch):
    # Z16/id, P = {0, 1}: c5 holds through p = 0 on the units and p = 1 on the
    # nilpotents, and c2 through a + b·0 or a + b·1 on every comaximal (a, b)
    S = build_star_ring("Z16", "id")
    R = S.ring
    assert suites._ring_equiv_c5(S) and suites._src_c2(S)

    # c5 in blocks of 2 elements and of 2 units: 14 planted as not nilpotent fails
    # a = 14 alone, then 1 planted as the inverse of 15 makes 15^-1·1·15 = 15
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 2 * 2)
    assert rings._row_blocks(0, 16, 2)[-1] == slice(14, 16)
    assert rings._row_blocks(0, 8, 2)[-1] == slice(6, 8) and R.unit_ids[7] == 15
    R.nilpotent_mask[14] = False
    assert suites._ring_equiv_c5(S) is False
    R.nilpotent_mask[14] = True
    R.inverse_ids[15] = 1
    assert suites._ring_equiv_c5(S) is reference_ring_equiv_c5(S) is False

    # c2 in blocks of 2 elements: (14, 2) planted as comaximal, and neither 14 + 0
    # nor 14 + 2 is a unit. 2R = 6R = 10R = 14R, so 2 and 14 each move to a class
    # of their own, copies of that class, and only the class of 14 is comaximal
    # with the class of 2
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 2 * 16 * 2)
    assert rings._row_blocks(0, 16, 16 * 2)[-1] == slice(14, 16)
    before = R.comaximal_pairs
    cls, reps = R.principal_right_ideal_classes
    assert np.flatnonzero(cls == cls[14]).tolist() == [2, 6, 10, 14]
    k = len(reps)
    copied = np.append(np.arange(k), [cls[14], cls[2]])
    planted = R.comaximal_classes[np.ix_(copied, copied)]
    planted[k, k + 1] = True
    moved = cls.copy()
    moved[[14, 2]] = k, k + 1
    vars(R)["comaximal_classes"] = planted
    vars(R)["principal_right_ideal_classes"] = moved, np.append(reps, [14, 2])
    assert np.argwhere(R.comaximal_pairs != before).tolist() == [[14, 2]]
    assert suites._src_c2(S) is reference_src_c2(S) is False


def test_mask_suites_report_the_planted_first_failure(monkeypatch):
    # ELEM-EQUIV: C3 planted false on two units of M2(Z4), in blocks 2 and 3 of 60 rows
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 60 * 256)
    S = build_star_ring("M2(Z4)", "tr(id)")
    units = S.ring.unit_ids
    planted = [int(units[units >= 120][0]), int(units[units >= 180][0])]
    assert 120 <= planted[0] < 180 <= planted[1] < 240
    c3 = S.arrays[elements._c3_blocks]
    c3.take(S, slice(0, S.ring.size))
    c3.values[planted] = -1
    row = suites.SUITES["ELEM-EQUIV"](S)
    assert row.detail == {"element": planted[0], "flags": [True, True, False, True]}
    _same_row(row, reference_elem_equiv(S))

    # CORNER: C2 planted false on two elements of a corner of Z2^8/id, in blocks 2
    # and 5 of 20 rows, and on one element of a later corner
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 20 * 128)
    S = build_star_ring("x".join(["Z2"] * 8), "id")
    corners, real = {}, suites._corner

    def corner(S, e):  # one corner ring per idempotent, so the planted entries stay
        if e not in corners:
            corners[e] = real(S, e)
        return corners[e]

    monkeypatch.setattr(suites, "_corner", corner)
    first, later = [e for e in S.ring.idempotent_ids.tolist() if corner(S, e).ring.size == 128][:2]
    assert len(rings._row_blocks(0, 128, 128)) == 7
    for e, xs in ((first, [50, 100]), (later, [3])):
        corner(S, e).arrays[elements.first_c2_witnesses][xs] = -1
    row = suites.SUITES["CORNER"](S)
    CS = corner(S, first)
    assert row.note == f"corner at {S.ring.render(first)} fails on {CS.ring.render(50)}"
    _same_row(row, reference_corner(S))

    # PROPER-NIL: 8 and 12 of Z16 planted as not nilpotent, in blocks 4 and 6 of 2 rows
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 2 * 16)
    S = build_star_ring("Z16", "id")
    assert ring_property(S, "strongly-pi-star-regular").value
    S.ring.nilpotent_mask[[8, 12]] = False
    row = suites.SUITES["PROPER-NIL"](S)
    assert row.note == f"x={S.ring.render(8)} breaks the rule"
    _same_row(row, reference_proper_nil(S))


def test_suites_build_no_verdict_certificate_or_power_walk(monkeypatch):
    """No suite walks powers for nilpotency; only RING-EQUIV's c3 and c4
    sides still walk each element's powers."""
    def refused(*args, **kwargs):
        raise AssertionError("a suite asked for a verdict, a certificate or a power walk")

    monkeypatch.setattr(elements, "spsr_verdict_block", refused)
    monkeypatch.setattr(elements, "clean_certificate_block", refused)
    monkeypatch.setattr(FiniteRing, "is_nilpotent", refused)
    walk = FiniteRing.distinct_powers
    monkeypatch.setattr(FiniteRing, "distinct_powers", refused)
    corpus = default_corpus()
    tags = [tag for tag in SUITE_TAGS if tag != "RING-EQUIV"]
    for result in run_suites(corpus, tags):
        assert result.passed, result.tag
    assert not any(elements._spsr_verdicts in S.arrays for S in corpus)
    with pytest.raises(AssertionError, match="power walk"):
        run_suite(corpus, "RING-EQUIV")
    monkeypatch.setattr(FiniteRing, "distinct_powers", walk)
    assert run_suite(corpus, "RING-EQUIV").passed
