"""Test-only reference for ideal generation, shared by the ring and suite tests."""

import numpy as np


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
