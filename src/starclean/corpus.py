"""The default corpus of star rings used by the verification suites."""

from __future__ import annotations

from .involutions import StarRing, corner_star_ring
from .specparse import build_star_ring

# (ring recipe, involution recipe) of every member but the two corners
_RECIPES = (
    ("Z2", "id"),
    ("Z3", "id"),
    ("Z4", "id"),
    ("Z5", "id"),
    ("Z6", "id"),
    ("Z8", "id"),
    ("Z9", "id"),
    ("Z16", "id"),
    ("Z2xZ2", "swap"),
    ("Z2xZ2", "id"),
    ("M2(Z2)", "tr(id)"),
    ("M2(Z3)", "tr(id)"),
    ("GR(Z4,C2)", "grp(id)"),
    ("GR(Z2,C2)", "grp(id)"),
    ("GR(Z4,C4)", "grp(id)"),
    ("TP(Z2,3)", "tp(id)"),
)


def default_corpus() -> list[StarRing]:
    """Eighteen star rings covering the worked examples plus hypothesis variations.

    The sixteen recipe members come first, then the corners of M2(Z2) and
    M2(Z3) at e11.
    """
    members = [build_star_ring(ring, inv) for ring, inv in _RECIPES]
    for ring in ("M2(Z2)", "M2(Z3)"):
        S = build_star_ring(ring, "tr(id)")
        members.append(corner_star_ring(S, S.ring.from_value([[1, 0], [0, 0]])))
    return members


def warmup(corpus: list[StarRing]) -> None:
    """Populate the shared caches of each ring in the corpus that both
    ``suite`` and ``corpus-matrix`` read.

    The rest are left to their first reader: the comaximal classes to the
    stable-range deciders or SRC-EQUIV, R/J(R) and the self-adjoint square
    roots of 1 to JAC-EQUIV, ``lifting_checks`` and the sasr queries.
    """
    for S in corpus:
        R = S.ring
        R.units_mask
        R.idempotent_mask
        R.nilpotent_mask
        R.center_mask
        R.jacobson_mask
        R.right_ideal_masks
        S.projection_mask
