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
from typing import NamedTuple, Optional

import numpy as np

from .involutions import StarRing
from .rings import FiniteRing

CLEAN_MODES = ("clean", "strongly-clean", "star-clean", "strongly-star-clean")
_PROJECTION_MODES = ("star-clean", "strongly-star-clean")
_COMMUTING_MODES = ("strongly-clean", "strongly-star-clean")


class CleanCertificate(NamedTuple):
    """A decomposition a = e + u with e idempotent and u a unit.

    A named tuple: an element query builds one per decomposition, and a
    tuple is about three times cheaper to build than a frozen dataclass.
    """

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


def _clean_decompositions(S: StarRing, a: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(parts e, units a - e) of every decomposition of a in the mode, by e."""
    if mode not in CLEAN_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {CLEAN_MODES}")
    R = S.ring
    pool = S.projection_ids if mode in _PROJECTION_MODES else R.idempotent_ids
    units = R.add_table[a, R.neg_table[pool]]
    ok = R.units_mask[units]
    if mode in _COMMUTING_MODES:
        ok &= R.mul_table[pool, units] == R.mul_table[units, pool]
    return pool[ok], units[ok]


def clean_certificates(S: StarRing, a: int, mode: str) -> list[CleanCertificate]:
    """All decompositions of a in the given mode, ordered by the idempotent id."""
    parts, units = _clean_decompositions(S, a, mode)
    projection, commuting = mode in _PROJECTION_MODES, mode in _COMMUTING_MODES
    return [
        CleanCertificate(a, e, u, projection, commuting)
        for e, u in zip(parts.tolist(), units.tolist())
    ]


def is_clean_elem(S: StarRing, a: int, mode: str) -> bool:
    return bool(_clean_decompositions(S, a, mode)[0].size)


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
    units = R.unit_ids
    # a = pu forces p = a u^-1, so each unit u has one candidate p
    proj = R.mul_table[a][R.unit_inverse_ids]
    hits = np.flatnonzero(S.projection_mask[proj] & (R.mul_table[units, proj] == a))
    if hits.size == 0:
        return None
    k = hits[proj[hits].argmin()]  # the least p, then the least u
    return int(proj[k]), int(units[k])


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
    mul = R.mul_table
    comm_mask = mul[a] == mul[:, a]
    proj_comm = S.projection_ids[comm_mask[S.projection_ids]]
    unit_comm = R.unit_ids[comm_mask[R.unit_ids]]
    if unit_comm.size == 0 or proj_comm.size == 0:
        return None
    powers, _ = R.distinct_powers(a)
    miss = len(powers)
    rank = np.full(R.size, miss)  # position of x among the powers of a, or miss
    rank[powers] = np.arange(miss)
    eu = mul[proj_comm[:, None], unit_comm]
    ue = mul[unit_comm[:, None], proj_comm].T
    ranks = np.where(eu == ue, rank[eu], miss)
    first = int(ranks.argmin())  # row-major: lowest power, then by e, then by u
    m = int(ranks.flat[first])
    if m == miss:
        return None
    i, j = divmod(first, unit_comm.size)
    return PiStarCertificate(
        a, "C1", {"m": m + 1, "e": int(proj_comm[i]), "u": int(unit_comm[j])}
    )


def spsr_c2(S: StarRing, a: int) -> Optional[PiStarCertificate]:
    """a = f + v with f a projection, v a unit, fv = vf, and a*f nilpotent."""
    R = S.ring
    mul = R.mul_table
    f = S.projection_ids
    v = R.add_table[a, R.neg_table[f]]
    ok = R.units_mask[v] & (mul[f, v] == mul[v, f]) & R.nilpotent_mask[mul[a, f]]
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    k = hits[0]
    return PiStarCertificate(a, "C2", {"f": int(f[k]), "v": int(v[k])})


def spsr_c3(S: StarRing, a: int) -> Optional[PiStarCertificate]:
    """Commuting projection p with a*p invertible in pRp and a(1-p) nilpotent."""
    R = S.ring
    mul = R.mul_table
    proj = S.projection_ids
    ap = mul[a, proj]
    ok = (ap == mul[proj, a]) & R.nilpotent_mask[mul[a, R.one_minus_table[proj]]]
    for p, x in zip(proj[ok].tolist(), ap[ok].tolist()):
        # x = ap must be invertible inside the corner, whose unity is p
        corner = R.corner_ids(p)
        hits = np.flatnonzero((mul[x, corner] == p) & (mul[corner, x] == p))
        if hits.size:
            return PiStarCertificate(a, "C3", {"p": p, "w": int(corner[hits[0]])})
    return None


def spsr_c4(S: StarRing, a: int) -> Optional[PiStarCertificate]:
    """Commuting b with (ab)* = ab, b = bab, and a - a^2 b nilpotent."""
    R = S.ring
    cand = R.commutant(a)
    cand = cand[R.mul_table[R.mul_table[cand, a], cand] == cand]  # b = bab
    ab = R.mul_table[a, cand]
    cond_star = S.star_table[ab] == ab
    asq_b = R.mul_table[R.mul(a, a), cand]
    cond_nil = R.nilpotent_mask[R.add_table[a, R.neg_table[asq_b]]]
    hits = np.flatnonzero(cond_star & cond_nil)
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
    roots = S.sasr_unit_ids
    units = R.add_table[a, R.neg_table[roots]]
    hits = np.flatnonzero(R.units_mask[units])
    if hits.size == 0:
        return None
    k = hits[0]
    return int(roots[k]), int(units[k])
