"""Involutions on finite rings: construction, validation, and transport.

An involution is stored as a permutation of element ids and is always
verified exhaustively against its three axioms: additivity, reversal of
products, and self-inverseness.  ``StarRing`` pairs a ring with a validated
involution and caches the projection and self-adjoint subsets.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    AxiomViolation,
    IdentityOnNoncommutative,
    NotAProjection,
    NotStarInvariant,
    SwapShapeMismatch,
    ValidationError,
)
from .rings import (
    FiniteRing,
    GroupRing,
    Ideal,
    MatrixRing,
    ProductRing,
    QuotientRing,
    TruncatedPolyRing,
    corner,
    quotient,
)

INVOLUTION_KINDS = (
    "identity",
    "swap",
    "star-transpose",
    "group-ring",
    "truncated-poly",
    "product",
    "induced-quotient",
    "corner-restriction",
    "table",
)


# rows of the n x n axiom checks gathered at once in ``verify_involution``
_VERIFY_ROWS = 256


def _raise_first(R: FiniteRing, axiom: str, bad: np.ndarray, row0: int) -> None:
    """Raise AxiomViolation at the first True of bad, whose row 0 is element row0."""
    if bad.any():
        x, y = map(int, np.argwhere(bad)[0])
        x += row0
        raise AxiomViolation(axiom, (x, y), f"x={R.render(x)}, y={R.render(y)}")


def verify_involution(R: FiniteRing, star: np.ndarray) -> None:
    """Raise AxiomViolation unless star is an involution on R."""
    n = R.size
    star = np.asarray(star)
    if star.shape != (n,) or not (np.sort(star) == np.arange(n)).all():
        raise AxiomViolation("bijectivity", (), "star is not a permutation of the elements")
    add, mul = R.add_table, R.mul_table
    # each axiom is checked over blocks of rows x in order, so the first
    # violation found is the row-major first and memory stays O(block * n)
    blocks = [slice(start, start + _VERIFY_ROWS) for start in range(0, n, _VERIFY_ROWS)]
    for x in blocks:
        _raise_first(R, "additivity", star[add[x]] != add[np.ix_(star[x], star)], x.start)
    for x in blocks:
        bad = star[mul[x]] != mul[np.ix_(star, star[x])].T
        _raise_first(R, "anti-multiplicativity", bad, x.start)
    if not (star[star] == np.arange(n)).all():
        x = int(np.flatnonzero(star[star] != np.arange(n))[0])
        raise AxiomViolation("involutivity", (x,), f"x={R.render(x)}")
    if int(star[R.zero]) != R.zero:
        raise AxiomViolation("fixes-zero", (R.zero,), "0* != 0")
    if int(star[R.one]) != R.one:
        raise AxiomViolation("fixes-one", (R.one,), "1* != 1")


class Involution:
    """A validated self-inverse anti-automorphism on a finite ring."""

    def __init__(self, ring: FiniteRing, table: np.ndarray, kind: str, label: str):
        if kind not in INVOLUTION_KINDS:
            raise ValidationError(f"unknown involution kind {kind!r}")
        verify_involution(ring, table)
        self.ring = ring
        self.table = np.ascontiguousarray(table, dtype=np.int64)
        self.kind = kind
        self.label = label

    def __call__(self, a: int) -> int:
        return int(self.table[a])

    def __repr__(self):
        return f"<Involution {self.label} on {self.ring.describe()}>"


# -- constructors -------------------------------------------------------------


def identity_involution(R: FiniteRing) -> Involution:
    if not R.is_commutative:
        a = int(np.flatnonzero(~R.center_mask)[0])
        b = int(np.flatnonzero(R.mul_table[a] != R.mul_table[:, a])[0])
        raise IdentityOnNoncommutative((a, b), f"x={R.render(a)}, y={R.render(b)}")
    return Involution(R, np.arange(R.size), "identity", "id")


def swap_involution(R: FiniteRing) -> Involution:
    if not isinstance(R, ProductRing) or R.spec.left != R.spec.right:
        raise SwapShapeMismatch(
            f"swap needs a product of two copies of the same ring, got {R.describe()}"
        )
    idx = np.arange(R.size)
    l, r = np.divmod(idx, R.right.size)
    star = r * R.right.size + l
    return Involution(R, star, "swap", "swap")


def transpose_involution(R: FiniteRing, base_inv: Involution) -> Involution:
    if not isinstance(R, MatrixRing):
        raise ValidationError(f"star-transpose needs a matrix ring, got {R.describe()}")
    if base_inv.ring is not R.base:
        raise ValidationError("base involution is not on the coefficient ring")
    k = R.k
    d = R.digits
    sd = np.empty_like(d)
    bstar = base_inv.table
    for i in range(k):
        for j in range(k):
            sd[:, i * k + j] = bstar[d[:, j * k + i]]
    star = sd.astype(np.int64) @ R._weights
    return Involution(R, star, "star-transpose", f"tr({base_inv.label})")


def group_ring_involution(R: FiniteRing, base_inv: Involution) -> Involution:
    if not isinstance(R, GroupRing):
        raise ValidationError(f"group-ring involution needs a group ring, got {R.describe()}")
    if base_inv.ring is not R.base:
        raise ValidationError("base involution is not on the coefficient ring")
    d = R.digits
    sd = np.empty_like(d)
    bstar = base_inv.table
    for g in range(R.width):
        sd[:, g] = bstar[d[:, int(R.group.inv_table[g])]]
    star = sd.astype(np.int64) @ R._weights
    return Involution(R, star, "group-ring", f"grp({base_inv.label})")


def truncated_poly_involution(R: FiniteRing, base_inv: Involution) -> Involution:
    """Coefficientwise involution fixing the indeterminate."""
    if not isinstance(R, TruncatedPolyRing):
        raise ValidationError(f"needs a truncated polynomial ring, got {R.describe()}")
    if base_inv.ring is not R.base:
        raise ValidationError("base involution is not on the coefficient ring")
    sd = base_inv.table[R.digits]
    star = sd.astype(np.int64) @ R._weights
    return Involution(R, star, "truncated-poly", f"tp({base_inv.label})")


def product_involution(R: FiniteRing, left_inv: Involution, right_inv: Involution) -> Involution:
    if not isinstance(R, ProductRing):
        raise ValidationError(f"componentwise involution needs a product ring, got {R.describe()}")
    if left_inv.ring is not R.left or right_inv.ring is not R.right:
        raise ValidationError("component involutions do not match the factors")
    idx = np.arange(R.size)
    l, r = np.divmod(idx, R.right.size)
    star = left_inv.table[l] * R.right.size + right_inv.table[r]
    return Involution(R, star, "product", f"prod({left_inv.label},{right_inv.label})")


def table_involution(R: FiniteRing, mapping: Iterable[int], label: str = "table") -> Involution:
    star = np.asarray(list(mapping), dtype=np.int64)
    return Involution(R, star, "table", label)


# -- star rings ---------------------------------------------------------------


class StarRing:
    """A finite ring together with a validated involution."""

    def __init__(self, ring: FiniteRing, involution: Involution, label: str | None = None):
        if involution.ring is not ring:
            raise ValidationError("involution was built for a different ring")
        self.ring = ring
        self.involution = involution
        self.label = label or f"{ring.describe()}/{involution.label}"
        self._prop_cache: dict = {}

    @property
    def star_table(self) -> np.ndarray:
        return self.involution.table

    def star(self, a: int) -> int:
        return int(self.involution.table[a])

    @cached_property
    def self_adjoint_mask(self) -> np.ndarray:
        return self.involution.table == np.arange(self.ring.size)

    def self_adjoint(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.self_adjoint_mask))

    @cached_property
    def projection_mask(self) -> np.ndarray:
        return self.ring.idempotent_mask & self.self_adjoint_mask

    @cached_property
    def projection_ids(self) -> np.ndarray:
        """Ids of the projections, ascending."""
        return np.flatnonzero(self.projection_mask)

    @cached_property
    def _projections(self) -> tuple[int, ...]:
        return tuple(self.projection_ids.tolist())

    def projections(self) -> tuple[int, ...]:
        return self._projections

    @cached_property
    def sasr_unit_ids(self) -> np.ndarray:
        """Ids of the self-adjoint square roots of 1, ascending."""
        R = self.ring
        sa = np.flatnonzero(self.self_adjoint_mask)
        return sa[R.mul_table[sa, sa] == R.one]

    @cached_property
    def sasr_units(self) -> tuple[int, ...]:
        """Self-adjoint square roots of 1."""
        return tuple(self.sasr_unit_ids.tolist())

    def is_identity_involution(self) -> bool:
        return bool(self.self_adjoint_mask.all())

    @cached_property
    def _mod_jacobson(self) -> tuple["StarRing", np.ndarray]:
        J = self.ring.jacobson_radical()
        return induce_quotient_involution(self, J)

    def mod_jacobson(self) -> tuple["StarRing", np.ndarray]:
        """Quotient by the Jacobson radical with the induced involution."""
        return self._mod_jacobson

    def __repr__(self):
        return f"<StarRing {self.label} size={self.ring.size}>"


def quotient_involution(Q: QuotientRing, base_inv: Involution, label: str) -> Involution:
    """The involution that base_inv, on Q.base, induces on Q; the ideal must
    be star-invariant."""
    star, ideal = base_inv.table, Q.ideal
    members = ideal.elements_array
    bad = ~ideal.mask[star[members]]
    if bad.any():
        x = int(members[np.flatnonzero(bad)[0]])
        raise NotStarInvariant(
            f"ideal is not star-invariant: {Q.base.render(x)} is inside, "
            f"{Q.base.render(int(star[x]))} is not",
            x,
        )
    return Involution(Q, Q.surjection[star[Q.reps]], "induced-quotient", label)


def induce_quotient_involution(S: StarRing, ideal: Ideal) -> tuple[StarRing, np.ndarray]:
    """Quotient star ring for a star-invariant ideal, plus the surjection."""
    Q = quotient(S.ring, ideal)
    inv = quotient_involution(Q, S.involution, f"{S.involution.label}~mod-ideal")
    return StarRing(Q, inv, label=f"{S.label} mod ideal({ideal.size})"), Q.surjection


def corner_star_ring(S: StarRing, e: int) -> StarRing:
    """Restrict the involution to the corner at a projection e."""
    if S.star(e) != e or S.ring.mul(e, e) != e:
        raise NotAProjection(
            f"corner restriction needs a projection; {S.ring.render(e)} fails p*=p=p^2"
        )
    C = corner(S.ring, e)
    cstar = C._pos[S.star_table[C.parent_elements]]
    inv = Involution(C, cstar, "corner-restriction", f"{S.involution.label}|corner")
    return StarRing(C, inv, label=f"corner({S.label},{S.ring.render(e)})")


# -- star diagnostics -----------------------------------------------------------


def is_proper(S: StarRing) -> tuple[bool, int | None]:
    """True iff x*x = 0 forces x = 0; witness element on failure."""
    R = S.ring
    idx = np.arange(R.size)
    vals = R.mul_table[S.star_table[idx], idx]
    bad = np.flatnonzero((vals == R.zero) & (idx != R.zero))
    return (True, None) if bad.size == 0 else (False, int(bad[0]))


def is_star_abelian(S: StarRing) -> tuple[bool, tuple[int, int] | None]:
    """True iff every projection is central; witness (p, x) on failure."""
    R = S.ring
    for p in S.projections():
        diff = np.flatnonzero(R.mul_table[p] != R.mul_table[:, p])
        if diff.size:
            return False, (p, int(diff[0]))
    return True, None
