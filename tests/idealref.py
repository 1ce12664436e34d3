"""Test-only reference for ideals, shared by the ring and suite tests.

An ideal is a bool mask over its ring; these helpers build one from a list of
ids, generate one as a fixpoint, and check the closure conditions that the
code under test relies on but never checks itself.
"""

import numpy as np


def mask_of(R, elems):
    """The bool mask over R marking the given ids."""
    mask = np.zeros(R.size, dtype=bool)
    mask[list(elems)] = True
    return mask


def ideal_violation(R, mask):
    """The first two-sided ideal closure condition that the mask fails, or None."""
    if mask.dtype != bool or mask.shape != (R.size,):
        return "not a bool mask over the ring"
    if not mask[R.zero]:
        return "0 is missing"
    idx = np.flatnonzero(mask)
    if not mask[R.add_table[np.ix_(idx, idx)]].all():
        return "not closed under addition"
    if not mask[R.mul_table[:, idx]].all():
        return "not closed under left multiplication"
    if not mask[R.mul_table[idx, :]].all():
        return "not closed under right multiplication"
    return None


def fixpoint_ideal_mask(R, generators):
    """The generated ideal as a fixpoint of both multiplications and addition."""
    mask = np.zeros(R.size, dtype=bool)
    mask[R.zero] = True
    mask[list(generators)] = True
    while True:
        idx = np.flatnonzero(mask)
        new = mask.copy()
        new[R.mul_table[:, idx].ravel()] = True
        new[R.mul_table[idx, :].ravel()] = True
        idx2 = np.flatnonzero(new)
        new[R.add_table[np.ix_(idx2, idx2)].ravel()] = True
        if (new == mask).all():
            return mask
        mask = new
