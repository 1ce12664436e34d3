"""Involutions on finite rings: construction, validation, and transport.

An involution is stored as a permutation of element ids and is always
verified exactly against its three axioms: additivity, reversal of products,
and self-inverseness. It is enough to check them on the additive generators
G of the ring: (x + g)* = x* + g* for all x and all g in G gives additivity
by induction on sums of generators, and then (ab)* - b*a* is additive in a
and in b, so it vanishes once it does on G x G.  ``StarRing`` pairs a ring
with a validated involution and caches the projection and self-adjoint
subsets and the principal right ideal classes that hold a projection; its
``arrays`` store holds the per-ring arrays of the element kernels, which
``elements`` builds.
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
    ArrayStore,
    CornerRing,
    FiniteRing,
    GroupRing,
    MatrixRing,
    ProductRing,
    QuotientRing,
    TruncatedPolyRing,
    _row_blocks,
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


def _raise_first(R: FiniteRing, axiom: str, bad_rows) -> None:
    """Scan every pair for axiom: bad_rows(x) marks the violations in the rows
    of the block x, and the blocks go in order, so the first violation found
    is the row-major first and memory stays O(block * n). Raise
    AxiomViolation at it."""
    for x in _row_blocks(0, R.size, R.size):
        bad = bad_rows(x)
        if bad.any():
            row, y = map(int, np.argwhere(bad)[0])
            row += x.start
            raise AxiomViolation(axiom, (row, y), f"x={R.render(row)}, y={R.render(y)}")


def verify_involution(R: FiniteRing, star: np.ndarray) -> None:
    """Raise AxiomViolation unless star is an involution on R.

    Each axiom is decided on the additive generators G of R (see the module
    docstring): additivity on n x |G| pairs, then reversal of products on
    G x G. Both checks are exact, so only an axiom that fails on them is
    scanned on every pair, to raise at its row-major first violation.
    """
    n = R.size
    star = np.asarray(star)
    if star.shape != (n,) or not (np.sort(star) == np.arange(n)).all():
        raise AxiomViolation("bijectivity", (), "star is not a permutation of the elements")
    add, mul, G = R.add_table, R.mul_table, R.additive_generators
    sG = star[G]
    if not (star[add[:, G]] == add[np.ix_(star, sG)]).all():
        _raise_first(R, "additivity", lambda x: star[add[x]] != add[np.ix_(star[x], star)])
    if not (star[mul[np.ix_(G, G)]] == mul[np.ix_(sG, sG)].T).all():
        _raise_first(
            R, "anti-multiplicativity", lambda x: star[mul[x]] != mul[np.ix_(star, star[x])].T
        )
    if not (star[star] == np.arange(n)).all():
        x = int(np.flatnonzero(star[star] != np.arange(n))[0])
        raise AxiomViolation("involutivity", (x,), f"x={R.render(x)}")
    # 0* = 1* = 1 follow and are not checked: additivity gives 0* = 0* + 0*,
    # so 0* = 0; anti-multiplicativity gives x* = (x 1)* = 1* x* for every
    # x, so by bijectivity 1* is a left identity, and 1* = 1* 1 = 1


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

    def __repr__(self):
        return f"<Involution {self.label} on {self.ring.describe()}>"


# -- constructors -------------------------------------------------------------


def identity_involution(R: FiniteRing) -> Involution:
    # with x* = x only the reversal of products can fail, and on G x G that
    # is commutativity; the full scan names the least non-central x and the
    # least y it does not commute with, as ``first_noncentral`` would
    try:
        return Involution(R, np.arange(R.size), "identity", "id")
    except AxiomViolation as err:
        x, y = err.witness
        raise IdentityOnNoncommutative((x, y), f"x={R.render(x)}, y={R.render(y)}") from err


def swap_involution(R: FiniteRing) -> Involution:
    if not isinstance(R, ProductRing) or R.spec.left != R.spec.right:
        raise SwapShapeMismatch(
            f"swap needs a product of two copies of the same ring, got {R.describe()}"
        )
    idx = np.arange(R.size)
    l, r = np.divmod(idx, R.right.size)
    star = r * R.right.size + l
    return Involution(R, star, "swap", "swap")


def _digitwise(R, base_inv: Involution, positions, kind: str, label: str) -> Involution:
    """The involution starring each coefficient and moving the coefficient at
    position positions[p] to position p: base involution on the coefficients,
    a basis anti-automorphism on the positions."""
    if base_inv.ring is not R.base:
        raise ValidationError("base involution is not on the coefficient ring")
    star = base_inv.table[R.digits[:, positions]] @ R._weights
    return Involution(R, star, kind, label)


def transpose_involution(R: FiniteRing, base_inv: Involution) -> Involution:
    if not isinstance(R, MatrixRing):
        raise ValidationError(f"star-transpose needs a matrix ring, got {R.describe()}")
    positions = np.arange(R.width).reshape(R.k, R.k).T.ravel()
    return _digitwise(R, base_inv, positions, "star-transpose", f"tr({base_inv.label})")


def group_ring_involution(R: FiniteRing, base_inv: Involution) -> Involution:
    if not isinstance(R, GroupRing):
        raise ValidationError(f"group-ring involution needs a group ring, got {R.describe()}")
    return _digitwise(R, base_inv, R.group.inv_table, "group-ring", f"grp({base_inv.label})")


def truncated_poly_involution(R: FiniteRing, base_inv: Involution) -> Involution:
    """Coefficientwise involution fixing the indeterminate."""
    if not isinstance(R, TruncatedPolyRing):
        raise ValidationError(f"needs a truncated polynomial ring, got {R.describe()}")
    return _digitwise(R, base_inv, np.arange(R.width), "truncated-poly", f"tp({base_inv.label})")


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
        self.arrays = ArrayStore(self)  # the element kernels' arrays; see ``elements``

    @property
    def star_table(self) -> np.ndarray:
        return self.involution.table

    def star(self, a: int) -> int:
        return int(self.involution.table[a])

    @cached_property
    def self_adjoint_mask(self) -> np.ndarray:
        return self.involution.table == np.arange(self.ring.size)

    @cached_property
    def projection_mask(self) -> np.ndarray:
        return self.ring.idempotent_mask & self.self_adjoint_mask

    @cached_property
    def projection_ids(self) -> np.ndarray:
        """Ids of the projections, ascending."""
        return np.flatnonzero(self.projection_mask)

    def projections(self) -> tuple[int, ...]:
        return tuple(self.projection_ids.tolist())

    @cached_property
    def projection_class_mask(self) -> np.ndarray:
        """Per class of the ring's ``principal_right_ideal_classes``, whether
        it holds a projection: xR = pR for a projection p iff the class of x
        is marked."""
        cls, reps = self.ring.principal_right_ideal_classes
        mask = np.zeros(len(reps), dtype=bool)
        mask[cls[self.projection_ids]] = True
        return mask

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
    def _mod_jacobson(self) -> tuple[StarRing | None, np.ndarray]:
        # None for R/0 = R: a cached reference to self would be a cycle
        J = self.ring.jacobson_mask
        if np.count_nonzero(J) == 1:
            return None, np.arange(self.ring.size)
        return induce_quotient_involution(self, J)

    def mod_jacobson(self) -> tuple["StarRing", np.ndarray]:
        """Quotient by the Jacobson radical with the induced involution, plus
        the surjection; R/0 = R, so when J(R) = 0 it is this ring itself."""
        QS, pi = self._mod_jacobson
        return (self if QS is None else QS), pi

    def __repr__(self):
        return f"<StarRing {self.label} size={self.ring.size}>"


def quotient_involution(Q: QuotientRing, base_inv: Involution, label: str) -> Involution:
    """The involution that base_inv, on Q.base, induces on Q; the ideal must
    be star-invariant."""
    star, ideal = base_inv.table, Q.ideal
    members = np.flatnonzero(ideal)
    bad = ~ideal[star[members]]
    if bad.any():
        x = int(members[np.flatnonzero(bad)[0]])
        raise NotStarInvariant(
            f"ideal is not star-invariant: {Q.base.render(x)} is inside, "
            f"{Q.base.render(int(star[x]))} is not",
            x,
        )
    return Involution(Q, Q.surjection[star[Q.reps]], "induced-quotient", label)


def induce_quotient_involution(S: StarRing, ideal: np.ndarray) -> tuple[StarRing, np.ndarray]:
    """Quotient star ring for a star-invariant ideal, a bool mask over S's
    ring, plus the surjection."""
    Q = QuotientRing(S.ring, ideal)
    inv = quotient_involution(Q, S.involution, f"{S.involution.label}~mod-ideal")
    label = f"{S.label} mod ideal({np.count_nonzero(ideal)})"
    return StarRing(Q, inv, label=label), Q.surjection


def corner_star_ring(S: StarRing, e: int) -> StarRing:
    """Restrict the involution to the corner at a projection e."""
    if S.star(e) != e or S.ring.mul(e, e) != e:
        raise NotAProjection(
            f"corner restriction needs a projection; {S.ring.render(e)} fails p*=p=p^2"
        )
    C = CornerRing(S.ring, e)
    cstar = C._pos[S.star_table[C.parent_elements]]
    inv = Involution(C, cstar, "corner-restriction", f"{S.involution.label}|corner")
    return StarRing(C, inv, label=f"corner({S.label},{S.ring.render(e)})")

