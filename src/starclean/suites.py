"""Consistency suites replaying claimed equivalences over a corpus.

Each suite evaluates every side of an equivalence (or implication) through
its own code path and reports any ring where the sides disagree.  A PASS
asserts consistency on the given corpus, never a general proof.  Rings that
do not meet a suite's hypothesis are reported as consistent with a note.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import warmup
from .elements import (
    spsr_c1,
    spsr_c2,
    spsr_conditions,
    strongly_star_regular_witness,
    unit_sasr_decomposition,
)
from .involutions import (
    StarRing,
    corner_star_ring,
    group_ring_involution,
    identity_involution,
    induce_quotient_involution,
    transpose_involution,
)
from .properties import (
    lifting_checks,
    psr_onesided_equiv,
    ring_property,
    stable_range_checks,
)
from .rings import Cyclic, GroupRingSpec, MatrixSpec, Zmod, build_ring, generated_ideal


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


def _suite_elem_equiv(corpus):
    rows = []
    for S in corpus:
        bad = None
        for a in S.ring.elements():
            v = spsr_conditions(S, a)
            if not v.consistent:
                bad = (a, v.flags)
                break
        if bad is None:
            rows.append(SuiteRow(S.label, True, "four conditions agree on every element"))
        else:
            a, flags = bad
            rows.append(
                SuiteRow(
                    S.label,
                    False,
                    f"conditions disagree on {S.ring.render(a)}",
                    {"element": int(a), "flags": list(flags)},
                )
            )
    return rows


# -- ring-level equivalence --------------------------------------------------------


def _ring_equiv_c3(S: StarRing) -> bool:
    R = S.ring
    proj = S.projections()
    for a in R.elements():
        powers, _ = R.distinct_powers(a)
        hit = False
        for w in powers:
            row = R.right_ideal(w)
            if any((R.right_ideal(p) == row).all() for p in proj):
                hit = True
                break
        if not hit:
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
    R = S.ring
    proj = S.projections()
    for a in R.elements():
        if not any(
            R.units_mask[R.sub(a, p)] and R.is_nilpotent(R.mul(a, p)) for p in proj
        ):
            return False
    for q in proj:
        for v in R.units():
            conj = R.mul(R.mul(R.inverse(v), q), v)
            if not S.projection_mask[conj]:
                return False
    return True


def _suite_ring_equiv(corpus):
    rows = []
    for S in corpus:
        c1 = all(spsr_c1(S, a) is not None for a in S.ring.elements())
        c2 = (
            ring_property(S, "pi-regular").value
            and ring_property(S, "idempotents-are-projections").value
        )
        c3 = _ring_equiv_c3(S)
        c4 = _ring_equiv_c4(S)
        c5 = _ring_equiv_c5(S)
        detail = _flags_detail(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)
        ok = len({c1, c2, c3, c4, c5}) == 1
        rows.append(SuiteRow(S.label, ok, "five ring conditions compared", detail))
    return rows


# -- radical factor equivalence -----------------------------------------------------


def _suite_jac_equiv(corpus):
    rows = []
    for S in corpus:
        QS, _ = S.mod_jacobson()
        jnil = ring_property(S, "J-nil").value
        lift = lifting_checks(S)
        c1 = ring_property(S, "strongly-pi-star-regular").value
        c2 = (
            all(spsr_c2(QS, x) is not None for x in QS.ring.elements())
            and jnil
            and lift.projections_central.value
            and lift.projections_lift.value
        )
        c3 = (
            ring_property(QS, "strongly-star-regular").value
            and jnil
            and lift.idempotents_lift_to_central_projections.value
        )
        detail = _flags_detail(c1=c1, c2=c2, c3=c3)
        ok = len({c1, c2, c3}) == 1
        rows.append(SuiteRow(S.label, ok, "radical-factor conditions compared", detail))
    return rows


def _suite_spr_split(corpus):
    rows = []
    for S in corpus:
        lhs = (
            ring_property(S, "strongly-star-clean").value
            and ring_property(S, "pi-regular").value
        )
        rhs = ring_property(S, "strongly-pi-star-regular").value
        rows.append(
            SuiteRow(S.label, lhs == rhs, "", _flags_detail(split=lhs, direct=rhs))
        )
    return rows


# -- matrix rings are never strongly pi-star-regular ---------------------------------


def _matrix_instances(corpus):
    instances = [
        (S.label, S)
        for S in corpus
        if isinstance(S.ring.spec, MatrixSpec)
        and S.ring.spec.k >= 2
        and S.involution.kind == "star-transpose"
    ]
    R = build_ring(MatrixSpec(2, Zmod(4)))
    S4 = StarRing(R, transpose_involution(R, identity_involution(R.base)))
    instances.append((S4.label, S4))
    return instances


def _suite_matrix_neg(corpus):
    rows = []
    for label, S in _matrix_instances(corpus):
        verdict = ring_property(S, "strongly-pi-star-regular")
        note = "matrix ring correctly fails" if not verdict.value else "matrix ring passes?!"
        detail = {}
        if verdict.witness is not None:
            detail["witness"] = verdict.witness.to_dict()
        rows.append(SuiteRow(label, not verdict.value, note, detail))
    return rows


# -- corners inherit the property ------------------------------------------------------


def _corner(S: StarRing, e: int) -> StarRing:
    """The corner star ring at the projection e; 1·R·1 = R, so at 1 it is S."""
    return S if e == S.ring.one else corner_star_ring(S, e)


def _suite_corner(corpus):
    rows = []
    for S in corpus:
        if not ring_property(S, "strongly-pi-star-regular").value:
            rows.append(SuiteRow(S.label, True, "hypothesis not met; skipped"))
            continue
        R = S.ring
        ok = True
        note = ""
        tested = 0
        for e in R.idempotents():
            if S.star(e) != e:
                ok = False
                note = f"idempotent {R.render(e)} is not a projection"
                break
            CS = _corner(S, e)
            tested += 1
            bad = next(
                (x for x in CS.ring.elements() if spsr_c2(CS, x) is None), None
            )
            if bad is not None:
                ok = False
                note = f"corner at {R.render(e)} fails on {CS.ring.render(bad)}"
                break
        rows.append(SuiteRow(S.label, ok, note or f"{tested} corners verified"))
    return rows


# -- group rings over two-groups --------------------------------------------------------


def _suite_groupring(corpus):
    del corpus  # fixed instances; the corpus members are rebuilt for independence
    rows = []
    for base_n, group_n in ((4, 2), (4, 4), (2, 2), (2, 4)):
        base = build_ring(Zmod(base_n))
        S = StarRing(base, identity_involution(base))
        two = base.add(base.one, base.one)
        hyp_two = base.jacobson_radical().contains(two)
        RG = build_ring(GroupRingSpec(Zmod(base_n), Cyclic(group_n)))
        SG = StarRing(RG, group_ring_involution(RG, identity_involution(RG.base)))
        hyp_group = RG.group.is_two_group()
        lhs = all(spsr_c1(S, a) is not None for a in base.elements())
        rhs = all(spsr_c2(SG, x) is not None for x in RG.elements())
        ok = hyp_two and hyp_group and lhs == rhs
        rows.append(
            SuiteRow(
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
        )
    return rows


# -- the seven stable-range / cleanness conditions ----------------------------------------


def _src_c2(S: StarRing) -> bool:
    """Comaximal pairs admit a commuting projection producing a unit."""
    R = S.ring
    n = R.size
    comax = R.comaximal_pairs
    proj = np.flatnonzero(S.projection_mask)
    for a in range(n):
        pcomm = proj[R.mul_table[a, proj] == R.mul_table[proj, a]]
        if pcomm.size == 0:
            if comax[a].any():
                return False
            continue
        bp = R.mul_table[:, pcomm]
        vals = R.add_table[a, bp]
        success = R.units_mask[vals].any(axis=1)
        if (comax[a] & ~success).any():
            return False
    return True


def _src_c7(S: StarRing) -> bool:
    """Every a has a projection p in aR with 1-p in (1-a)R."""
    R = S.ring
    proj = np.flatnonzero(S.projection_mask)
    for a in R.elements():
        in_aR = R.right_ideal(a)
        in_caR = R.right_ideal(R.one_minus(a))
        cand = proj[in_aR[proj]]
        if not in_caR[R.one_minus_table[cand]].any():
            return False
    return True


def _suite_src_equiv(corpus):
    rows = []
    for S in corpus:
        sr = stable_range_checks(S)
        star_ab = ring_property(S, "star-abelian").value
        idproj = ring_property(S, "idempotents-are-projections").value
        flags = {
            "c1": sr["psr1"].value and star_ab,
            "c2": _src_c2(S),
            "c3": sr["isr1"].value and idproj,
            "c4_clean": ring_property(S, "clean").value and idproj,
            "c4_exchange": ring_property(S, "exchange").value and idproj,
            "c5": ring_property(S, "star-clean").value and star_ab,
            "c6": ring_property(S, "strongly-star-clean").value,
            "c7": _src_c7(S),
        }
        ok = len(set(flags.values())) == 1
        rows.append(SuiteRow(S.label, ok, "seven conditions compared", _flags_detail(**flags)))
    return rows


def _suite_ssc_psr(corpus):
    rows = []
    for S in corpus:
        ssc = ring_property(S, "strongly-star-clean").value
        if not ssc:
            rows.append(SuiteRow(S.label, True, "hypothesis not met; skipped"))
            continue
        psr = stable_range_checks(S)["psr1"].value
        rows.append(SuiteRow(S.label, psr, "", _flags_detail(ssc=ssc, psr1=psr)))
    return rows


def _suite_psr_sc(corpus):
    rows = []
    for S in corpus:
        psr = stable_range_checks(S)["psr1"].value
        if not psr:
            rows.append(SuiteRow(S.label, True, "hypothesis not met; skipped"))
            continue
        sc = ring_property(S, "star-clean").value
        rows.append(SuiteRow(S.label, sc, "", _flags_detail(psr1=psr, star_clean=sc)))
    return rows


# -- local rings ------------------------------------------------------------------------


def _suite_local_equiv(corpus):
    rows = []
    for S in corpus:
        R = S.ring
        trivial = {R.zero, R.one}
        c1 = ring_property(S, "star-clean").value and set(S.projections()) == trivial
        c2 = ring_property(S, "clean").value and set(R.idempotents()) == trivial
        c3 = ring_property(S, "local").value
        ok = len({c1, c2, c3}) == 1
        rows.append(SuiteRow(S.label, ok, "", _flags_detail(c1=c1, c2=c2, c3=c3)))
    return rows


# -- rings where 2 is invertible -----------------------------------------------------------


def _suite_two_unit(corpus):
    rows = []
    for S in corpus:
        R = S.ring
        two = R.add(R.one, R.one)
        if not R.units_mask[two]:
            rows.append(SuiteRow(S.label, True, "2 is not a unit; skipped"))
            continue
        sqrt1 = [u for u in R.elements() if R.mul(u, u) == R.one]
        lemma_lhs = all(S.star(u) == u for u in sqrt1)
        lemma_rhs = ring_property(S, "idempotents-are-projections").value
        thm_lhs = ring_property(S, "star-clean").value
        thm_rhs = all(unit_sasr_decomposition(S, a) is not None for a in R.elements())
        cor_lhs = ring_property(S, "clean").value and all(
            S.star(u) == u for u in R.units()
        )
        cor_rhs = ring_property(S, "star-clean").value and S.is_identity_involution()
        ok = lemma_lhs == lemma_rhs and thm_lhs == thm_rhs and cor_lhs == cor_rhs
        rows.append(
            SuiteRow(
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
        )
    return rows


# -- boolean rings ---------------------------------------------------------------------------


def _suite_bool(corpus):
    rows = []
    for S in corpus:
        if not ring_property(S, "boolean").value:
            rows.append(SuiteRow(S.label, True, "not boolean; skipped"))
            continue
        lhs = ring_property(S, "star-clean").value
        rhs = S.is_identity_involution()
        rows.append(
            SuiteRow(S.label, lhs == rhs, "", _flags_detail(star_clean=lhs, identity=rhs))
        )
    return rows


# -- quotients of star-clean rings --------------------------------------------------------------


def _quotient_ideals(R) -> list:
    """The distinct principal ideals of R, then J(R) if it is new.

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
        seen.setdefault(ideal.mask.tobytes(), ideal)
    J = R.jacobson_radical()
    seen.setdefault(J.mask.tobytes(), J)
    return list(seen.values())


def _quotient(S: StarRing, ideal) -> StarRing:
    """R/I with the induced involution; R/0 = R, so for I = {0} it is S."""
    return S if ideal.size == 1 else induce_quotient_involution(S, ideal)[0]


def _suite_quot(corpus):
    rows = []
    for S in corpus:
        if not ring_property(S, "star-clean").value:
            rows.append(SuiteRow(S.label, True, "not star-clean; skipped"))
            continue
        star = S.star_table
        tested = 0
        bad = None
        for ideal in _quotient_ideals(S.ring):
            if not ideal.mask[star[ideal.elements_array]].all():
                continue  # not star-invariant; the induced involution does not exist
            QS = _quotient(S, ideal)
            tested += 1
            if not ring_property(QS, "star-clean").value:
                bad = ideal
                break
        if bad is None:
            rows.append(SuiteRow(S.label, True, f"{tested} star-invariant quotients verified"))
        else:
            rows.append(
                SuiteRow(S.label, False, f"quotient by ideal of size {bad.size} not star-clean")
            )
    return rows


# -- properness up to nilpotents ------------------------------------------------------------------


def _suite_proper_nil(corpus):
    rows = []
    for S in corpus:
        if not ring_property(S, "strongly-pi-star-regular").value:
            rows.append(SuiteRow(S.label, True, "hypothesis not met; skipped"))
            continue
        R = S.ring
        bad = next(
            (
                x
                for x in R.elements()
                if R.mul(S.star(x), x) == R.zero and not R.nilpotent_mask[x]
            ),
            None,
        )
        if bad is None:
            rows.append(SuiteRow(S.label, True, "x*x = 0 forces x nilpotent"))
        else:
            rows.append(SuiteRow(S.label, False, f"x={R.render(bad)} breaks the rule"))
    return rows


def _suite_idproj_abelian(corpus):
    rows = []
    for S in corpus:
        if not ring_property(S, "idempotents-are-projections").value:
            rows.append(SuiteRow(S.label, True, "hypothesis not met; skipped"))
            continue
        ab = ring_property(S, "abelian").value
        rows.append(SuiteRow(S.label, ab, "" if ab else "not abelian despite Id = P"))
    return rows


def _suite_final_equiv(corpus):
    rows = []
    for S in corpus:
        if not ring_property(S, "idempotents-are-projections").value:
            rows.append(SuiteRow(S.label, True, "hypothesis not met; skipped"))
            continue
        sr = stable_range_checks(S)
        flags = {
            "clean": ring_property(S, "clean").value,
            "strongly_clean": ring_property(S, "strongly-clean").value,
            "exchange": ring_property(S, "exchange").value,
            "star_clean": ring_property(S, "star-clean").value,
            "strongly_star_clean": ring_property(S, "strongly-star-clean").value,
            "isr1": sr["isr1"].value,
            "psr1": sr["psr1"].value,
        }
        ok = len(set(flags.values())) == 1
        rows.append(SuiteRow(S.label, ok, "five-way equivalence", _flags_detail(**flags)))
    return rows


def _suite_psr_onesided(corpus):
    rows = []
    for S in corpus:
        res = psr_onesided_equiv(S)
        rows.append(
            SuiteRow(
                S.label,
                res.consistent,
                "one-sided and two-sided variants agree",
                {
                    "two_sided": bool(res.two_sided.value),
                    "right": bool(res.right.value),
                    "left": bool(res.left.value),
                    "collapse_ok": bool(res.collapse_ok),
                },
            )
        )
    return rows


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


def run_suite(corpus: list[StarRing], tag: str) -> SuiteResult:
    if tag not in SUITES:
        raise KeyError(f"unknown suite tag {tag!r}; known: {', '.join(SUITE_TAGS)}")
    return SuiteResult(tag, tuple(SUITES[tag](corpus)))


def run_suites(
    corpus: list[StarRing], tags: list[str] | None = None, jobs: int = 1
) -> list[SuiteResult]:
    """Run suites in canonical tag order; results are order-deterministic.

    ``jobs`` is accepted and ignored: suites run one after another.
    """
    selected = list(SUITE_TAGS) if not tags else list(tags)
    for tag in selected:
        if tag not in SUITES:
            raise KeyError(f"unknown suite tag {tag!r}; known: {', '.join(SUITE_TAGS)}")
    warmup(corpus)
    return [run_suite(corpus, tag) for tag in selected]
