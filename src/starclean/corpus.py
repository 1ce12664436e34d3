"""The default corpus of star rings used by the verification suites."""

from __future__ import annotations

from .involutions import (
    StarRing,
    corner_star_ring,
    group_ring_involution,
    identity_involution,
    swap_involution,
    transpose_involution,
    truncated_poly_involution,
)
from .rings import (
    Cyclic,
    GroupRingSpec,
    MatrixSpec,
    ProductSpec,
    TruncatedPolySpec,
    Zmod,
    build_ring,
)


def _ident(spec):
    R = build_ring(spec)
    return StarRing(R, identity_involution(R))


def _m2_transpose(n: int) -> StarRing:
    R = build_ring(MatrixSpec(2, Zmod(n)))
    return StarRing(R, transpose_involution(R, identity_involution(R.base)))


def _group_ring(base_n: int, group_n: int) -> StarRing:
    R = build_ring(GroupRingSpec(Zmod(base_n), Cyclic(group_n)))
    return StarRing(R, group_ring_involution(R, identity_involution(R.base)))


def default_corpus() -> list[StarRing]:
    """Eighteen star rings covering the worked examples plus hypothesis variations."""
    members: list[StarRing] = []
    for n in (2, 3, 4, 5, 6, 8, 9, 16):
        members.append(_ident(Zmod(n)))
    swap_base = build_ring(ProductSpec(Zmod(2), Zmod(2)))
    members.append(StarRing(swap_base, swap_involution(swap_base)))
    members.append(_ident(ProductSpec(Zmod(2), Zmod(2))))
    members.append(_m2_transpose(2))
    members.append(_m2_transpose(3))
    members.append(_group_ring(4, 2))
    members.append(_group_ring(2, 2))
    members.append(_group_ring(4, 4))
    tp = build_ring(TruncatedPolySpec(Zmod(2), 3))
    members.append(StarRing(tp, truncated_poly_involution(tp, identity_involution(tp.base))))
    for n in (2, 3):
        S = _m2_transpose(n)
        e11 = S.ring.from_value([[1, 0], [0, 0]])
        members.append(corner_star_ring(S, e11))
    return members


def warmup(corpus: list[StarRing]) -> None:
    """Populate every shared cache of each ring in the corpus."""
    for S in corpus:
        R = S.ring
        R.units_mask
        R.idempotent_mask
        R.nilpotent_mask
        R.center_mask
        R.jacobson_radical()
        R.right_ideal_masks
        R.comaximal_pairs
        S.projection_mask
        S.self_adjoint_mask
        S.sasr_units
        S.mod_jacobson()
