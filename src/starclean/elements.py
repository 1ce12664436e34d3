"""Element-level classifiers with checkable certificates.

Everything here is decided by exhaustive search over the finite ring and
returns witnesses that can be re-validated independently: clean and star-clean
decompositions, strong pi-regularity with its invertibility witnesses, the
projection-times-unit factorization, the four equivalent power/decomposition
conditions bundled in ``spsr_conditions``, and the unit plus self-adjoint
square root of 1 decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .involutions import StarRing
from .rings import FiniteRing

CLEAN_MODES = ("clean", "strongly-clean", "star-clean", "strongly-star-clean")


@dataclass(frozen=True)
class CleanCertificate:
    """A decomposition a = e + u with e idempotent and u a unit."""

    subject: int
    part: int
    unit: int
    projection: bool
    commuting: bool

    def holds(self, S: StarRing) -> bool:
        R = S.ring
        if R.add(self.part, self.unit) != self.subject:
            return False
        if R.mul(self.part, self.part) != self.part:
            return False
        if not R.units_mask[self.unit]:
            return False
        if self.projection and S.star(self.part) != self.part:
            return False
        if self.commuting and R.mul(self.part, self.unit) != R.mul(self.unit, self.part):
            return False
        return True


def clean_certificates(S: StarRing, a: int, mode: str) -> list[CleanCertificate]:
    """All decompositions of a in the given mode, ordered by the idempotent id."""
    if mode not in CLEAN_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {CLEAN_MODES}")
    R = S.ring
    needs_projection = mode in ("star-clean", "strongly-star-clean")
    needs_commuting = mode in ("strongly-clean", "strongly-star-clean")
    pool = S.projections() if needs_projection else R.idempotents()
    out = []
    for e in pool:
        u = R.sub(a, e)
        if not R.units_mask[u]:
            continue
        if needs_commuting and R.mul(e, u) != R.mul(u, e):
            continue
        out.append(
            CleanCertificate(
                subject=a,
                part=e,
                unit=u,
                projection=needs_projection,
                commuting=needs_commuting,
            )
        )
    return out


def is_clean_elem(S: StarRing, a: int, mode: str) -> bool:
    R = S.ring
    needs_projection = mode in ("star-clean", "strongly-star-clean")
    needs_commuting = mode in ("strongly-clean", "strongly-star-clean")
    pool = S.projections() if needs_projection else R.idempotents()
    for e in pool:
        u = R.sub(a, e)
        if not R.units_mask[u]:
            continue
        if needs_commuting and R.mul(e, u) != R.mul(u, e):
            continue
        return True
    return False


# -- strong pi-regularity -------------------------------------------------------


def strongly_pi_regular_witness(
    R: FiniteRing, a: int
) -> Optional[tuple[int, int, int]]:
    """First (n, x, y) with a^n = a^(n+1) x = y a^(n+1), searching along powers."""
    powers, nxt = R.distinct_powers(a)
    for n in range(1, len(powers) + 1):
        w = powers[n - 1]
        wnext = powers[n] if n < len(powers) else nxt
        right = np.flatnonzero(R.mul_table[wnext] == w)
        if right.size == 0:
            continue
        left = np.flatnonzero(R.mul_table[:, wnext] == w)
        if left.size == 0:
            continue
        return n, int(right[0]), int(left[0])
    return None


def strongly_star_regular_witness(S: StarRing, a: int) -> Optional[tuple[int, int]]:
    """First (p, u) with a = p u = u p, p a projection and u a unit."""
    R = S.ring
    for p in S.projections():
        cand = np.flatnonzero(R.units_mask & (R.mul_table[p] == a) & (R.mul_table[:, p] == a))
        if cand.size:
            return p, int(cand[0])
    return None


# -- the four equivalent conditions ---------------------------------------------


@dataclass(frozen=True)
class PiStarCertificate:
    """Witness for one of the four conditions; fields depend on the tag."""

    subject: int
    tag: str  # C1 | C2 | C3 | C4
    data: dict = field(compare=False)

    def holds(self, S: StarRing) -> bool:
        R = S.ring
        a = self.subject
        d = self.data
        if self.tag == "C1":
            m, e, u = d["m"], d["e"], d["u"]
            if not (S.projection_mask[e] and R.units_mask[u]) or m < 1:
                return False
            w = a
            for _ in range(m - 1):
                w = R.mul(w, a)
            return (
                w == R.mul(e, u)
                and R.mul(a, e) == R.mul(e, a)
                and R.mul(a, u) == R.mul(u, a)
                and R.mul(e, u) == R.mul(u, e)
            )
        if self.tag == "C2":
            f, v = d["f"], d["v"]
            return (
                S.projection_mask[f]
                and R.units_mask[v]
                and R.add(f, v) == a
                and R.mul(f, v) == R.mul(v, f)
                and R.is_nilpotent(R.mul(a, f))
            )
        if self.tag == "C3":
            p, w = d["p"], d["w"]
            ap = R.mul(a, p)
            return (
                S.projection_mask[p]
                and R.mul(a, p) == R.mul(p, a)
                and R.mul(R.mul(p, w), p) == w
                and R.mul(ap, w) == p
                and R.mul(w, ap) == p
                and R.is_nilpotent(R.mul(a, R.one_minus(p)))
            )
        if self.tag == "C4":
            b = d["b"]
            ab = R.mul(a, b)
            return (
                R.mul(a, b) == R.mul(b, a)
                and S.star(ab) == ab
                and R.mul(R.mul(b, a), b) == b
                and R.is_nilpotent(R.sub(a, R.mul(R.mul(a, a), b)))
            )
        return False


def spsr_c1(S: StarRing, a: int) -> Optional[PiStarCertificate]:
    """Some power of a equals e*u with a, e, u pairwise commuting, e a projection."""
    R = S.ring
    comm = R.commutant(a)
    comm_mask = np.zeros(R.size, dtype=bool)
    comm_mask[comm] = True
    proj_comm = [p for p in S.projections() if comm_mask[p]]
    unit_comm = np.flatnonzero(R.units_mask & comm_mask)
    if unit_comm.size == 0 or not proj_comm:
        return None
    powers, _ = R.distinct_powers(a)
    for m, w in enumerate(powers, start=1):
        for e in proj_comm:
            eu = R.mul_table[e, unit_comm]
            ue = R.mul_table[unit_comm, e]
            hits = np.flatnonzero((eu == w) & (ue == w))
            if hits.size:
                u = int(unit_comm[hits[0]])
                return PiStarCertificate(a, "C1", {"m": m, "e": e, "u": u})
    return None


def spsr_c2(S: StarRing, a: int) -> Optional[PiStarCertificate]:
    """a = f + v with f a projection, v a unit, fv = vf, and a*f nilpotent."""
    R = S.ring
    for f in S.projections():
        v = R.sub(a, f)
        if not R.units_mask[v]:
            continue
        if R.mul(f, v) != R.mul(v, f):
            continue
        if R.is_nilpotent(R.mul(a, f)):
            return PiStarCertificate(a, "C2", {"f": f, "v": v})
    return None


def spsr_c3(S: StarRing, a: int) -> Optional[PiStarCertificate]:
    """Commuting projection p with a*p invertible in pRp and a(1-p) nilpotent."""
    R = S.ring
    for p in S.projections():
        if R.mul(a, p) != R.mul(p, a):
            continue
        if not R.is_nilpotent(R.mul(a, R.one_minus(p))):
            continue
        ap = R.mul(a, p)
        # invertibility inside the corner: the unity there is p
        corner_elems = np.unique(R.mul_table[R.mul_table[p, :], p])
        hits = np.flatnonzero(
            (R.mul_table[ap, corner_elems] == p) & (R.mul_table[corner_elems, ap] == p)
        )
        if hits.size:
            w = int(corner_elems[hits[0]])
            return PiStarCertificate(a, "C3", {"p": p, "w": w})
    return None


def spsr_c4(S: StarRing, a: int) -> Optional[PiStarCertificate]:
    """Commuting b with (ab)* = ab, b = bab, and a - a^2 b nilpotent."""
    R = S.ring
    cand = R.commutant(a)
    ab = R.mul_table[a, cand]
    cond_star = S.star_table[ab] == ab
    ba = R.mul_table[cand, a]
    bab = R.mul_table[ba, cand]
    cond_inner = bab == cand
    asq = R.mul(a, a)
    asq_b = R.mul_table[asq, cand]
    diff = R.add_table[a, R.neg_table[asq_b]]
    cond_nil = R.nilpotent_mask[diff]
    hits = np.flatnonzero(cond_star & cond_inner & cond_nil)
    if hits.size:
        return PiStarCertificate(a, "C4", {"b": int(cand[hits[0]])})
    return None


@dataclass(frozen=True)
class SpsrVerdict:
    subject: int
    c1: Optional[PiStarCertificate]
    c2: Optional[PiStarCertificate]
    c3: Optional[PiStarCertificate]
    c4: Optional[PiStarCertificate]

    @property
    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.c1 is not None, self.c2 is not None, self.c3 is not None, self.c4 is not None)

    @property
    def consistent(self) -> bool:
        f = self.flags
        return all(f) or not any(f)

    @property
    def holds(self) -> bool:
        return self.c1 is not None


def spsr_conditions(S: StarRing, a: int) -> SpsrVerdict:
    """Evaluate the four conditions independently by exhaustive search."""
    return SpsrVerdict(a, spsr_c1(S, a), spsr_c2(S, a), spsr_c3(S, a), spsr_c4(S, a))


def unit_sasr_decomposition(S: StarRing, a: int) -> Optional[tuple[int, int]]:
    """First (t, u) with a = t + u, t a self-adjoint square root of 1, u a unit."""
    R = S.ring
    for t in S.sasr_units:
        u = R.sub(a, t)
        if R.units_mask[u]:
            return t, u
    return None
