"""Consistency suites replaying claimed equivalences over a corpus.

Each suite evaluates every side of an equivalence (or implication) through
its own code path and reports any ring where the sides disagree.  A PASS
asserts consistency on the given corpus, never a general proof.  Rings that
do not meet a suite's hypothesis are reported as consistent with a note.

A suite is a function of one star ring that returns that ring's row;
``run_suite`` is the one loop over the rings.  A suite runs over the corpus
unless ``_INSTANCES`` gives it its own ring list.

A side quantified over the elements reads a mask of its own per-ring array,
a row block of elements at a time (in one read where the array is built
whole): ELEM-EQUIV reads four columns, one per condition's array, and
reports the first element where they split.  Three loops over the elements
remain in Python: RING-EQUIV's c3 and c4, which walk each element's powers
in milliseconds on the default corpus (a block power walk for both came to
more code than the two loops), and QUOT's ideal search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import warmup
from .elements import spsr_holds, strongly_star_regular_witness, unit_sasr_holds
from .errors import UnknownProperty
from .involutions import StarRing, corner_star_ring, induce_quotient_involution
from .properties import (
    lifting_checks,
    psr_onesided_equiv,
    ring_property,
)
from .rings import MatrixSpec, _row_blocks, generated_ideal
from .specparse import build_star_ring


@dataclass(frozen=True)
class SuiteRow:
    label: str
    ok: bool
    note: str = ""
    detail: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "status": "consistent" if self.ok else "violation",
            "note": self.note,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SuiteResult:
    tag: str
    rows: tuple[SuiteRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "pass": bool(self.passed),
            "rings": [row.to_dict() for row in self.rows],
        }


def _flags_detail(**kwargs) -> dict:
    return {k: bool(v) for k, v in kwargs.items()}


# -- element-level equivalence ---------------------------------------------------


def _suite_elem_equiv(S: StarRing) -> SuiteRow:
    n = S.ring.size
    for rows in _row_blocks(0, n, n):
        flags = np.stack([spsr_holds(S, rows, tag) for tag in ("C1", "C2", "C3", "C4")], axis=1)
        split = flags.any(axis=1) & ~flags.all(axis=1)
        if split.any():
            i = int(split.argmax())
            return SuiteRow(
                S.label,
                False,
                f"conditions disagree on {S.ring.render(rows.start + i)}",
                {"element": rows.start + i, "flags": flags[i].tolist()},
            )
    return SuiteRow(S.label, True, "four conditions agree on every element")


# -- ring-level equivalence --------------------------------------------------------


def _ring_equiv_c3(S: StarRing) -> bool:
    R = S.ring
    cls, proj_class = R.principal_right_ideal_classes[0], S.projection_class_mask
    for a in R.elements():
        powers, _ = R.distinct_powers(a)
        if not proj_class[cls[powers]].any():
            return False
    return ring_property(S, "abelian").value


def _ring_equiv_c4(S: StarRing) -> bool:
    R = S.ring
    for a in R.elements():
        powers, _ = R.distinct_powers(a)
        if not any(strongly_star_regular_witness(S, w) is not None for w in powers):
            return False
    return True


def _ring_equiv_c5(S: StarRing) -> bool:
    """Every a has a projection p with a - p a unit and ap nilpotent, and
    every v^-1 q v (v a unit, q a projection) is a projection."""
    R = S.ring
    add, mul, P = R.add_table, R.mul_table, S.projection_ids
    neg_p = R.neg_table[P]
    for rows in _row_blocks(0, R.size, len(P)):
        if not (R.units_mask[add[rows, neg_p]] & R.nilpotent_mask[mul[rows, P]]).any(axis=1).all():
            return False
    units = R.unit_ids
    for rows in _row_blocks(0, len(units), len(P)):
        v = units[rows, None]
        if not S.projection_mask[mul[mul[R.inverse_ids[v], P], v]].all():
            return False
    return True


def _suite_ring_equiv(S: StarRing) -> SuiteRow:
    c1 = ring_property(S, "strongly-pi-star-regular").value
    c2 = (
        ring_property(S, "pi-regular").value
        and ring_property(S, "idempotents-are-projections").value
    )
    c3 = _ring_equiv_c3(S)
    c4 = _ring_equiv_c4(S)
    c5 = _ring_equiv_c5(S)
    detail = _flags_detail(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)
    ok = len({c1, c2, c3, c4, c5}) == 1
    return SuiteRow(S.label, ok, "five ring conditions compared", detail)


# -- radical factor equivalence -----------------------------------------------------


def _suite_jac_equiv(S: StarRing) -> SuiteRow:
    QS, _ = S.mod_jacobson()
    jnil = ring_property(S, "J-nil").value
    lift = lifting_checks(S)
    c1 = ring_property(S, "strongly-pi-star-regular").value
    c2 = (
        spsr_holds(QS, slice(0, QS.ring.size), "C2").all()
        and jnil
        and lift["projections_central"]
        and lift["projections_lift"]
    )
    c3 = (
        ring_property(QS, "strongly-star-regular").value
        and jnil
        and lift["idempotents_lift_to_central_projections"]
    )
    detail = _flags_detail(c1=c1, c2=c2, c3=c3)
    ok = len({c1, c2, c3}) == 1
    return SuiteRow(S.label, ok, "radical-factor conditions compared", detail)


def _suite_spr_split(S: StarRing) -> SuiteRow:
    lhs = (
        ring_property(S, "strongly-star-clean").value
        and ring_property(S, "pi-regular").value
    )
    rhs = ring_property(S, "strongly-pi-star-regular").value
    return SuiteRow(S.label, lhs == rhs, "", _flags_detail(split=lhs, direct=rhs))


# -- matrix rings are never strongly pi-star-regular ---------------------------------


def _is_matrix_transpose(S: StarRing) -> bool:
    return (
        isinstance(S.ring.spec, MatrixSpec)
        and S.ring.spec.k >= 2
        and S.involution.kind == "star-transpose"
    )


def _suite_matrix_neg(S: StarRing) -> SuiteRow:
    verdict = ring_property(S, "strongly-pi-star-regular")
    note = "matrix ring correctly fails" if not verdict.value else "matrix ring passes?!"
    detail = {}
    if verdict.witness is not None:
        detail["witness"] = verdict.witness.to_dict()
    return SuiteRow(S.label, not verdict.value, note, detail)


# -- corners inherit the property ------------------------------------------------------


def _corner(S: StarRing, e: int) -> StarRing:
    """The corner star ring at the projection e; 1·R·1 = R, so at 1 it is S."""
    return S if e == S.ring.one else corner_star_ring(S, e)


def _suite_corner(S: StarRing) -> SuiteRow:
    if not ring_property(S, "strongly-pi-star-regular").value:
        return SuiteRow(S.label, True, "hypothesis not met; skipped")
    R = S.ring
    tested = 0
    for e in R.idempotent_ids.tolist():
        if S.star(e) != e:
            return SuiteRow(S.label, False, f"idempotent {R.render(e)} is not a projection")
        CS = _corner(S, e)
        tested += 1
        ok = spsr_holds(CS, slice(0, CS.ring.size), "C2")
        if not ok.all():
            bad = int(ok.argmin())
            return SuiteRow(
                S.label, False, f"corner at {R.render(e)} fails on {CS.ring.render(bad)}"
            )
    return SuiteRow(S.label, True, f"{tested} corners verified")


# -- group rings over two-groups --------------------------------------------------------


def _suite_groupring(SG: StarRing) -> SuiteRow:
    # the base side is rebuilt from its recipe, apart from the group ring
    RG = SG.ring
    S = build_star_ring(f"Z{RG.base.size}", "id")
    base = S.ring
    two = base.add(base.one, base.one)
    hyp_two = bool(base.jacobson_mask[two])
    hyp_group = RG.group.is_two_group()
    lhs = ring_property(S, "strongly-pi-star-regular").value
    rhs = bool(spsr_holds(SG, slice(0, RG.size), "C2").all())
    ok = hyp_two and hyp_group and lhs == rhs
    return SuiteRow(
        SG.label,
        ok,
        "finite coefficient ring grants the artinian-prime-factor hypothesis",
        _flags_detail(
            two_in_radical=hyp_two,
            two_group=hyp_group,
            base=lhs,
            group_ring=rhs,
        ),
    )


# -- the seven stable-range / cleanness conditions ----------------------------------------


def _src_c2(S: StarRing) -> bool:
    """Comaximal pairs admit a commuting projection producing a unit."""
    R = S.ring
    add, mul, P = R.add_table, R.mul_table, S.projection_ids
    cls, comax = R.principal_right_ideal_classes[0], R.comaximal_classes
    bp = mul[:, P]
    for rows in _row_blocks(0, R.size, R.size * len(P)):
        commute = mul[rows, P] == mul[P, rows].T
        success = (R.units_mask[add[rows][:, bp]] & commute[:, None, :]).any(axis=2)
        if (comax[cls[rows]][:, cls] & ~success).any():
            return False
    return True


def _src_c7(S: StarRing) -> bool:
    """Every a has a projection p in aR with 1-p in (1-a)R."""
    R = S.ring
    masks, q, p = R.right_ideal_masks, R.one_minus_table, S.projection_ids
    for rows in _row_blocks(0, R.size, len(p)):
        a = np.arange(R.size)[rows]
        if not (masks[np.ix_(a, p)] & masks[np.ix_(q[a], q[p])]).any(axis=1).all():
            return False
    return True


def _suite_src_equiv(S: StarRing) -> SuiteRow:
    star_ab = ring_property(S, "star-abelian").value
    idproj = ring_property(S, "idempotents-are-projections").value
    flags = {
        "c1": ring_property(S, "psr1").value and star_ab,
        "c2": _src_c2(S),
        "c3": ring_property(S, "isr1").value and idproj,
        "c4_clean": ring_property(S, "clean").value and idproj,
        "c4_exchange": ring_property(S, "exchange").value and idproj,
        "c5": ring_property(S, "star-clean").value and star_ab,
        "c6": ring_property(S, "strongly-star-clean").value,
        "c7": _src_c7(S),
    }
    ok = len(set(flags.values())) == 1
    return SuiteRow(S.label, ok, "seven conditions compared", _flags_detail(**flags))


def _suite_ssc_psr(S: StarRing) -> SuiteRow:
    ssc = ring_property(S, "strongly-star-clean").value
    if not ssc:
        return SuiteRow(S.label, True, "hypothesis not met; skipped")
    psr = ring_property(S, "psr1").value
    return SuiteRow(S.label, psr, "", _flags_detail(ssc=ssc, psr1=psr))


def _suite_psr_sc(S: StarRing) -> SuiteRow:
    psr = ring_property(S, "psr1").value
    if not psr:
        return SuiteRow(S.label, True, "hypothesis not met; skipped")
    sc = ring_property(S, "star-clean").value
    return SuiteRow(S.label, sc, "", _flags_detail(psr1=psr, star_clean=sc))


# -- local rings ------------------------------------------------------------------------


def _suite_local_equiv(S: StarRing) -> SuiteRow:
    R = S.ring
    trivial = {R.zero, R.one}
    c1 = ring_property(S, "star-clean").value and set(S.projection_ids.tolist()) == trivial
    c2 = ring_property(S, "clean").value and set(R.idempotent_ids.tolist()) == trivial
    c3 = ring_property(S, "local").value
    ok = len({c1, c2, c3}) == 1
    return SuiteRow(S.label, ok, "", _flags_detail(c1=c1, c2=c2, c3=c3))


# -- rings where 2 is invertible -----------------------------------------------------------


def _suite_two_unit(S: StarRing) -> SuiteRow:
    R = S.ring
    two = R.add(R.one, R.one)
    if not R.units_mask[two]:
        return SuiteRow(S.label, True, "2 is not a unit; skipped")
    sqrt1 = R.mul_table.diagonal() == R.one
    lemma_lhs = bool(S.self_adjoint_mask[sqrt1].all())
    lemma_rhs = ring_property(S, "idempotents-are-projections").value
    thm_lhs = ring_property(S, "star-clean").value
    thm_rhs = bool(unit_sasr_holds(S, slice(0, R.size)).all())
    cor_lhs = ring_property(S, "clean").value and bool(S.self_adjoint_mask[R.unit_ids].all())
    cor_rhs = ring_property(S, "star-clean").value and S.is_identity_involution()
    ok = lemma_lhs == lemma_rhs and thm_lhs == thm_rhs and cor_lhs == cor_rhs
    return SuiteRow(
        S.label,
        ok,
        "square-root lemma, decomposition theorem, self-adjoint-unit corollary",
        _flags_detail(
            lemma_lhs=lemma_lhs,
            lemma_rhs=lemma_rhs,
            theorem_lhs=thm_lhs,
            theorem_rhs=thm_rhs,
            corollary_lhs=cor_lhs,
            corollary_rhs=cor_rhs,
        ),
    )


# -- boolean rings ---------------------------------------------------------------------------


def _suite_bool(S: StarRing) -> SuiteRow:
    if not ring_property(S, "boolean").value:
        return SuiteRow(S.label, True, "not boolean; skipped")
    lhs = ring_property(S, "star-clean").value
    rhs = S.is_identity_involution()
    return SuiteRow(S.label, lhs == rhs, "", _flags_detail(star_clean=lhs, identity=rhs))


# -- quotients of star-clean rings --------------------------------------------------------------


def _quotient_ideals(R) -> list[np.ndarray]:
    """The masks of the distinct principal ideals of R, then J(R) if it is new.

    Each ideal comes once, in the order of its least generator.  (u·g·v) =
    (g) for units u, v, so one closure per two-sided unit orbit finds them
    all; walking g in id order, the least generator of an ideal is the
    least id of its orbit, so the order is that of one closure per element.
    """
    mul, unit_ids = R.mul_table, R.unit_ids
    covered = np.zeros(R.size, dtype=bool)
    seen = {}
    for g in R.elements():
        if covered[g]:
            continue
        covered[mul[np.ix_(mul[unit_ids, g], unit_ids)]] = True
        ideal = generated_ideal(R, [g])
        seen.setdefault(ideal.tobytes(), ideal)
    seen.setdefault(R.jacobson_mask.tobytes(), R.jacobson_mask)
    return list(seen.values())


def _quotient(S: StarRing, ideal: np.ndarray) -> StarRing:
    """R/I with the induced involution; R/0 = R, so for I = {0} it is S."""
    return S if np.count_nonzero(ideal) == 1 else induce_quotient_involution(S, ideal)[0]


def _suite_quot(S: StarRing) -> SuiteRow:
    if not ring_property(S, "star-clean").value:
        return SuiteRow(S.label, True, "not star-clean; skipped")
    star = S.star_table
    tested = 0
    for ideal in _quotient_ideals(S.ring):
        if not ideal[star[ideal]].all():
            continue  # not star-invariant; the induced involution does not exist
        QS = _quotient(S, ideal)
        tested += 1
        if not ring_property(QS, "star-clean").value:
            return SuiteRow(
                S.label,
                False,
                f"quotient by ideal of size {np.count_nonzero(ideal)} not star-clean",
            )
    return SuiteRow(S.label, True, f"{tested} star-invariant quotients verified")


# -- properness up to nilpotents ------------------------------------------------------------------


def _suite_proper_nil(S: StarRing) -> SuiteRow:
    if not ring_property(S, "strongly-pi-star-regular").value:
        return SuiteRow(S.label, True, "hypothesis not met; skipped")
    R = S.ring
    x = np.arange(R.size)
    bad = np.flatnonzero((R.mul_table[S.star_table, x] == R.zero) & ~R.nilpotent_mask)
    if bad.size == 0:
        return SuiteRow(S.label, True, "x*x = 0 forces x nilpotent")
    return SuiteRow(S.label, False, f"x={R.render(int(bad[0]))} breaks the rule")


def _suite_idproj_abelian(S: StarRing) -> SuiteRow:
    if not ring_property(S, "idempotents-are-projections").value:
        return SuiteRow(S.label, True, "hypothesis not met; skipped")
    ab = ring_property(S, "abelian").value
    return SuiteRow(S.label, ab, "" if ab else "not abelian despite Id = P")


def _suite_final_equiv(S: StarRing) -> SuiteRow:
    if not ring_property(S, "idempotents-are-projections").value:
        return SuiteRow(S.label, True, "hypothesis not met; skipped")
    flags = {
        "clean": ring_property(S, "clean").value,
        "strongly_clean": ring_property(S, "strongly-clean").value,
        "exchange": ring_property(S, "exchange").value,
        "star_clean": ring_property(S, "star-clean").value,
        "strongly_star_clean": ring_property(S, "strongly-star-clean").value,
        "isr1": ring_property(S, "isr1").value,
        "psr1": ring_property(S, "psr1").value,
    }
    ok = len(set(flags.values())) == 1
    return SuiteRow(S.label, ok, "five-way equivalence", _flags_detail(**flags))


def _suite_psr_onesided(S: StarRing) -> SuiteRow:
    flags = psr_onesided_equiv(S)
    ok = flags["two_sided"] == flags["right"] == flags["left"] and flags["collapse_ok"]
    return SuiteRow(S.label, ok, "one-sided and two-sided variants agree", flags)


SUITES = {
    "ELEM-EQUIV": _suite_elem_equiv,
    "RING-EQUIV": _suite_ring_equiv,
    "JAC-EQUIV": _suite_jac_equiv,
    "SPR-SPLIT": _suite_spr_split,
    "MATRIX-NEG": _suite_matrix_neg,
    "CORNER": _suite_corner,
    "GROUPRING": _suite_groupring,
    "SRC-EQUIV": _suite_src_equiv,
    "SSC-PSR": _suite_ssc_psr,
    "PSR-SC": _suite_psr_sc,
    "LOCAL-EQUIV": _suite_local_equiv,
    "TWO-UNIT": _suite_two_unit,
    "BOOL": _suite_bool,
    "QUOT": _suite_quot,
    "PROPER-NIL": _suite_proper_nil,
    "IDPROJ-ABELIAN": _suite_idproj_abelian,
    "FINAL-EQUIV": _suite_final_equiv,
    "PSR-ONESIDED": _suite_psr_onesided,
}

SUITE_TAGS = tuple(SUITES)

# The suites with their own ring lists, each a function of the corpus.
_INSTANCES = {
    # the transpose matrix rings of the corpus, plus M2(Z4)
    "MATRIX-NEG": lambda corpus: [
        *filter(_is_matrix_transpose, corpus),
        build_star_ring("M2(Z4)", "tr(id)"),
    ],
    # fixed group rings over two-groups; the corpus is not used
    "GROUPRING": lambda corpus: [
        build_star_ring(f"GR(Z{b},C{g})", "grp(id)") for b, g in ((4, 2), (4, 4), (2, 2), (2, 4))
    ],
}


def run_suite(corpus: list[StarRing], tag: str) -> SuiteResult:
    if tag not in SUITES:
        raise UnknownProperty(f"unknown suite tag {tag!r}; known: {', '.join(SUITE_TAGS)}")
    suite = SUITES[tag]
    rings = _INSTANCES[tag](corpus) if tag in _INSTANCES else corpus
    return SuiteResult(tag, tuple(suite(S) for S in rings))


def run_suites(
    corpus: list[StarRing], tags: list[str] | None = None, jobs: int = 1
) -> list[SuiteResult]:
    """Run suites in canonical tag order; results are order-deterministic.

    tags=None runs every suite; an empty selection or an unknown tag raises
    UnknownProperty.

    ``jobs`` is accepted and ignored: suites run one after another.
    """
    selected = list(SUITE_TAGS) if tags is None else list(tags)
    if not selected:
        raise UnknownProperty(f"no suite tag selected; known: {', '.join(SUITE_TAGS)}")
    for tag in selected:
        if tag not in SUITES:
            raise UnknownProperty(f"unknown suite tag {tag!r}; known: {', '.join(SUITE_TAGS)}")
    warmup(corpus)
    return [run_suite(corpus, tag) for tag in selected]
