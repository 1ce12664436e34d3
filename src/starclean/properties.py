"""Ring-level property deciders with re-checkable witnesses.

Each property is one entry of ``_PROPERTY_TABLE``, its decider and its
checker side by side: ``ring_property`` runs the decider once per star
ring and caches the verdict, and ``check_witness`` hands a witness's ids
to the checker. A property quantified over elements is decided from
row-block masks: one kernel answers a whole block of
``_row_blocks(0, n, n)`` at once, the blocks run in ascending order, and
the first block with a failing element ends the scan. Set-shaped and pair
properties read ring-level caches: idempotents-are-projections and J-nil
name the least id of a mask (the idempotents that are not self-adjoint,
the radical elements that are not nilpotent), and directly-finite reads
the ring's one right-inverse scan. A False verdict always carries the
first counterexample in canonical element order, the same one a scan of
one element at a time finds. An element property's checker re-validates
its witness with a per-element predicate. Those of exchange, the five
regularities without "strongly-*-star" or "strongly-pi", boolean and local
share no kernel with their block deciders; the four clean modes,
strongly-pi-regular, strongly-pi-star-regular and strongly-star-regular
read the same first-witness arrays as their deciders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .elements import (
    CLEAN_MODES,
    clean_holds,
    is_clean_elem,
    regular_holds,
    spsr_holds,
    strongly_pi_regular_holds,
    strongly_pi_regular_witness,
    strongly_star_regular_holds,
    strongly_star_regular_witness,
)
from .errors import UnknownProperty
from .involutions import StarRing
from .rings import _row_blocks


@dataclass(frozen=True)
class Witness:
    kind: str  # "element" | "pair"
    ids: tuple[int, ...]
    text: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "ids": [int(i) for i in self.ids], "text": self.text}


@dataclass(frozen=True)
class Verdict:
    value: bool
    witness: Optional[Witness] = None

    def to_dict(self) -> dict:
        return {
            "value": bool(self.value),
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _elem_witness(S: StarRing, a: int) -> Witness:
    return Witness("element", (a,), S.ring.render(a))


def _pair_witness(S: StarRing, a: int, b: int) -> Witness:
    return Witness("pair", (a, b), f"a={S.ring.render(a)}, b={S.ring.render(b)}")


# -- per-element predicates, the re-checks of check_witness ---------------------


def elem_exchange(S, a):
    """Some idempotent e in aR with 1-e in (1-a)R."""
    R = S.ring
    in_aR = R.right_ideal_masks[a]
    in_caR = R.right_ideal_masks[R.one_minus(a)]
    for e in np.flatnonzero(R.idempotent_mask & in_aR).tolist():
        if in_caR[R.one_minus(e)]:
            return True
    return False


def elem_pi_regular(S, a):
    """Some power w = a^n satisfies w = w b w for some b."""
    R = S.ring
    powers, _ = R.distinct_powers(a)
    for w in powers:
        if (R.mul_table[R.mul_table[w], w] == w).any():
            return True
    return False


def elem_strongly_pi_regular(S, a):
    return strongly_pi_regular_witness(S.ring, a) is not None


def elem_spsr(S, a):
    return bool(spsr_holds(S, slice(a, a + 1), "C1")[0])


def elem_regular(S, a):
    R = S.ring
    return bool((R.mul_table[R.mul_table[a], a] == a).any())


def elem_strongly_regular(S, a):
    R = S.ring
    asq = R.mul(a, a)
    return bool(R.right_ideal_masks[asq][a])


def elem_unit_regular(S, a):
    R = S.ring
    return bool((R.mul_table[R.mul_table[a, R.unit_ids], a] == a).any())


def elem_star_regular(S, a):
    """xR = pR for some projection p: x and p share a principal right ideal class."""
    cls, _ = S.ring.principal_right_ideal_classes
    return bool((cls[S.projection_ids] == cls[a]).any())


def elem_strongly_star_regular(S, a):
    return strongly_star_regular_witness(S, a) is not None


def elem_boolean(S, a):
    return S.ring.mul(a, a) == a


def elem_local(S, a):
    R = S.ring
    return bool(R.units_mask[a] or R.units_mask[R.one_minus(a)])


# -- block kernels, the deciders -------------------------------------------------
#
# Each kernel answers, for every element of one row block, whether the
# property holds there. No temporary holds more than one block's entries:
# a block has at most _BLOCK_ENTRIES // n rows, and a kernel's widest
# array is those rows times a pool of at most n ids.


def _holds_exchange(S, rows):
    """Some idempotent e with e in aR and 1 - e in (1 - a)R."""
    R = S.ring
    masks, q, e = R.right_ideal_masks, R.one_minus_table, R.idempotent_ids
    elems = np.arange(R.size)[rows]
    return (masks[np.ix_(elems, e)] & masks[np.ix_(q[elems], q[e])]).any(axis=1)


def _holds_pi_regular(S, rows):
    """Some power of a is regular: the distinct powers of every element of
    the block are walked at once, each row until it meets a regular power
    or a repeat."""
    R = S.ring
    mul = R.mul_table
    elems = np.arange(R.size)[rows]
    out = np.zeros(len(elems), dtype=bool)
    seen = np.zeros((len(elems), R.size), dtype=bool)
    i, w = np.arange(len(elems)), elems  # rows still walking, and their new power
    while i.size:
        seen[i, w] = True
        hit = regular_holds(R, w)
        out[i[hit]] = True
        i, w = i[~hit], w[~hit]
        w = mul[w, elems[i]]
        new = ~seen[i, w]
        i, w = i[new], w[new]
    return out


def _holds_strongly_regular(S, rows):
    """a in a^2 R."""
    R = S.ring
    elems = np.arange(R.size)[rows]
    return R.right_ideal_masks[R.mul_table[elems, elems], elems]


def _holds_unit_regular(S, rows):
    """a = aua for some unit u, that is, av is idempotent for some unit v:
    aua = a makes au idempotent, and av = e idempotent gives a = e v^-1, so
    a v a = e e v^-1 = a."""
    R = S.ring
    return R.idempotent_mask[R.mul_table[rows][:, R.unit_ids]].any(axis=1)


def _holds_star_regular(S, rows):
    """xR = pR for some projection p: x is in a class of a projection."""
    return S.projection_class_mask[S.ring.principal_right_ideal_classes[0][rows]]


def _holds_local(S, rows):
    """a or 1 - a is a unit."""
    R = S.ring
    return R.units_mask[rows] | R.units_mask[R.one_minus_table[rows]]


# name: (block kernel of the decider, per-element predicate of check_witness)
_ELEMENT_TESTS: dict[str, tuple[Callable, Callable]] = {
    **{mode: (partial(clean_holds, mode=mode), partial(is_clean_elem, mode=mode))
       for mode in CLEAN_MODES},
    "exchange": (_holds_exchange, elem_exchange),
    "pi-regular": (_holds_pi_regular, elem_pi_regular),
    "strongly-pi-regular": (lambda S, rows: strongly_pi_regular_holds(S.ring, rows),
                            elem_strongly_pi_regular),
    "strongly-pi-star-regular": (partial(spsr_holds, tag="C1"), elem_spsr),
    "regular": (lambda S, rows: regular_holds(S.ring, rows), elem_regular),
    "strongly-regular": (_holds_strongly_regular, elem_strongly_regular),
    "unit-regular": (_holds_unit_regular, elem_unit_regular),
    "star-regular": (_holds_star_regular, elem_star_regular),
    "strongly-star-regular": (strongly_star_regular_holds, elem_strongly_star_regular),
    "boolean": (lambda S, rows: S.ring.idempotent_mask[rows], elem_boolean),
    "local": (_holds_local, elem_local),
}


def _forall_elements(S: StarRing, holds) -> Verdict:
    """The first element, by id, where the block kernel fails; blocks run
    in ascending order and the scan stops at the first that fails."""
    n = S.ring.size
    for rows in _row_blocks(0, n, n):
        ok = holds(S, rows)
        if not ok.all():
            return Verdict(False, _elem_witness(S, rows.start + int(ok.argmin())))
    return Verdict(True)


def _refutes_element(pred, S, a) -> bool:
    return not pred(S, a)


# -- set-shaped properties -------------------------------------------------------
#
# The deciders read ring-level masks, each named by a getter of the star
# ring; the checkers take the witness's ids.


def _central_verdict(S: StarRing, mask) -> Verdict:
    """True iff every element of mask(S) is central; witness (x, y), xy != yx."""
    witness = S.ring.first_noncentral(mask(S))
    return Verdict(True) if witness is None else Verdict(False, _pair_witness(S, *witness))


def _subset_verdict(S: StarRing, mask, within) -> Verdict:
    """True iff every element of mask(S) is in within(S); else the least
    id outside is the witness."""
    bad = np.flatnonzero(mask(S) & ~within(S))
    return Verdict(True) if bad.size == 0 else Verdict(False, _elem_witness(S, int(bad[0])))


def _directly_finite(S: StarRing) -> Verdict:
    witness = S.ring.directly_finite_witness()
    if witness is None:
        return Verdict(True)
    return Verdict(False, _pair_witness(S, *witness))


def _refutes_abelian(S, e, x) -> bool:
    R = S.ring
    return R.mul(e, e) == e and R.mul(e, x) != R.mul(x, e)


def _refutes_star_abelian(S, p, x) -> bool:
    R = S.ring
    return bool(S.projection_mask[p]) and R.mul(p, x) != R.mul(x, p)


def _refutes_idempotents_are_projections(S, e) -> bool:
    R = S.ring
    return R.mul(e, e) == e and S.star(e) != e


def _refutes_j_nil(S, a) -> bool:
    R = S.ring
    return bool(R.jacobson_mask[a]) and not R.is_nilpotent(a)


def _refutes_directly_finite(S, a, b) -> bool:
    R = S.ring
    return R.mul(a, b) == R.one and R.mul(b, a) != R.one


# -- stable range ---------------------------------------------------------------


def _stable_pool(S: StarRing, prop: str) -> np.ndarray:
    """The y range of a stable-range flavor: all of R, idempotents, projections."""
    R = S.ring
    if prop == "sr1":
        return np.arange(R.size)
    if prop == "isr1":
        return R.idempotent_ids
    if prop == "psr1":
        return S.projection_ids
    raise UnknownProperty(prop)


def _stable_range_verdict(S: StarRing, pool: np.ndarray, ok_mask: np.ndarray) -> Verdict:
    """First comaximal pair (a, b), row-major, with no y in the pool of
    distinct ids making a + b*y land in ok_mask.

    Every pool holds 0 (0 is in R, 0^2 = 0 and 0* = 0), so a row a in
    ok_mask succeeds with y = 0: only the rows N outside it are decided.
    shifted[v, j] = ok_mask[v + N[j]], and whether a = N[j] succeeds
    against b is the OR of shifted over the rows v = b*y of the pool.
    Comaximality depends only on the classes of aR and bR, and is read
    from ``comaximal_classes``. For the full pool (sr1) the rows b*y are
    bR, so success is held per class of b, and the least violating b is
    the first element of the least violating class, as classes are numbered
    by their first element. A subpool (isr1, psr1) takes one row gather per
    pool element y, the rows mul_table[:, y], into success[b, j]. Every
    gather runs in row blocks of at most _BLOCK_ENTRIES // n rows.
    """
    R = S.ring
    n = R.size
    cls, reps = R.principal_right_ideal_classes
    comax = R.comaximal_classes
    N = np.flatnonzero(~ok_mask)
    cls_n = cls[N]
    blocks = _row_blocks(0, n, n)
    shifted = np.empty((n, len(N)), dtype=bool)
    for rows in blocks:
        shifted[rows] = ok_mask[R.add_table[rows][:, N]]
    if len(pool) == n:
        success = np.zeros((len(reps), len(N)), dtype=bool)
        for k, b in enumerate(reps):
            bR = np.flatnonzero(R.right_ideal_masks[b])
            for part in _row_blocks(0, len(bR), n):
                success[k] |= shifted[bR[part]].any(axis=0)
        viol = ~success & comax[:, cls_n]  # [class of b, j]
        b_of = reps
    else:
        success = np.zeros((n, len(N)), dtype=bool)
        for y in pool.tolist():
            by = R.mul_table[:, y]
            for rows in blocks:
                success[rows] |= shifted[by[rows]]
        del shifted
        viol = np.logical_not(success, out=success)  # [b, j]
        for rows in blocks:
            viol[rows] &= comax[cls[rows]][:, cls_n]
        b_of = np.arange(n)
    hit = viol.any(axis=0)
    if not hit.any():
        return Verdict(True)
    j = int(hit.argmax())
    return Verdict(False, _pair_witness(S, int(N[j]), int(b_of[viol[:, j].argmax()])))


def check_stable_range_pair(S: StarRing, prop: str, a: int, b: int) -> bool:
    """True iff (a, b) really is a counterexample for the given stable-range flavor."""
    R = S.ring
    cls, _ = R.principal_right_ideal_classes
    if not R.comaximal_classes[cls[a], cls[b]]:
        return False
    for y in _stable_pool(S, prop).tolist():
        if R.units_mask[R.add(a, R.mul(b, y))]:
            return False
    return True


def _decide_stable_range(prop: str, S: StarRing) -> Verdict:
    return _stable_range_verdict(S, _stable_pool(S, prop), S.ring.units_mask)


def _refutes_stable_range(prop: str, S, a, b) -> bool:
    return check_stable_range_pair(S, prop, a, b)


# -- the property table -------------------------------------------------------------

STABLE_RANGE_PROPERTIES = ("sr1", "isr1", "psr1")

# name: (decider of the star ring, checker of a witness's ids); the key order
# is the order of PROPERTIES
_PROPERTY_TABLE: dict[str, tuple[Callable, Callable]] = {
    **{name: (partial(_forall_elements, holds=holds), partial(_refutes_element, pred))
       for name, (holds, pred) in _ELEMENT_TESTS.items()},
    "abelian": (partial(_central_verdict, mask=attrgetter("ring.idempotent_mask")),
                _refutes_abelian),
    "star-abelian": (partial(_central_verdict, mask=attrgetter("projection_mask")),
                     _refutes_star_abelian),
    "idempotents-are-projections": (
        partial(_subset_verdict, mask=attrgetter("ring.idempotent_mask"),
                within=attrgetter("self_adjoint_mask")),
        _refutes_idempotents_are_projections,
    ),
    "J-nil": (
        partial(_subset_verdict, mask=attrgetter("ring.jacobson_mask"),
                within=attrgetter("ring.nilpotent_mask")),
        _refutes_j_nil,
    ),
    "directly-finite": (_directly_finite, _refutes_directly_finite),
    **{prop: (partial(_decide_stable_range, prop), partial(_refutes_stable_range, prop))
       for prop in STABLE_RANGE_PROPERTIES},
}

PROPERTIES = tuple(_PROPERTY_TABLE)


def _entry(prop: str) -> tuple[Callable, Callable]:
    if prop not in _PROPERTY_TABLE:
        raise UnknownProperty(f"unknown property {prop!r}; known: {', '.join(PROPERTIES)}")
    return _PROPERTY_TABLE[prop]


def ring_property(S: StarRing, prop: str) -> Verdict:
    """Decide a named ring-level property; verdicts are cached per star ring."""
    cache = S._prop_cache
    if prop not in cache:
        cache[prop] = _entry(prop)[0](S)
    return cache[prop]


def check_witness(S: StarRing, prop: str, witness: Witness) -> bool:
    """Re-validate that a witness really refutes the property."""
    return _entry(prop)[1](S, *witness.ids)


# -- one-sided stable range comparison ---------------------------------------------


def psr_onesided_equiv(S: StarRing) -> dict[str, bool]:
    """Two-sided, right-invertible and left-invertible variants of the
    projection stable-range condition, and whether right- and
    left-invertible elements coincide with units; in a finite ring all
    three variants agree."""
    R = S.ring
    n = R.size
    rinv_mask = R.right_inverse_ids >= 0
    linv_mask = np.zeros(n, dtype=bool)  # b with ab = 1 for some a
    for rows in _row_blocks(0, n, n):
        linv_mask |= (R.mul_table[rows] == R.one).any(axis=0)
    pool = _stable_pool(S, "psr1")
    return {
        "two_sided": ring_property(S, "psr1").value,
        "right": _stable_range_verdict(S, pool, rinv_mask).value,
        "left": _stable_range_verdict(S, pool, linv_mask).value,
        "collapse_ok": bool(
            (rinv_mask == R.units_mask).all() and (linv_mask == R.units_mask).all()
        ),
    }


# -- lifting ----------------------------------------------------------------------


def _every_coset_meets(targets: np.ndarray, pi: np.ndarray, mask: np.ndarray, size: int) -> bool:
    """Whether every target id of the quotient has a preimage under pi in mask."""
    hit = np.zeros(size, dtype=bool)
    hit[pi[mask]] = True
    return bool(hit[targets].all())


def lifting_checks(S: StarRing) -> dict[str, bool]:
    """Whether idempotents of R/J(R) lift to central projections of R, whether
    projections of R/J(R) lift to projections, and whether projections are
    central."""
    QS, pi = S.mod_jacobson()
    R = S.ring
    proj = S.projection_mask
    size = QS.ring.size
    return {
        "idempotents_lift_to_central_projections": _every_coset_meets(
            QS.ring.idempotent_ids, pi, proj & R.center_mask, size
        ),
        "projections_lift": _every_coset_meets(QS.projection_ids, pi, proj, size),
        "projections_central": ring_property(S, "star-abelian").value,
    }
