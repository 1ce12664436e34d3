"""Each ring fact from its one source, against a reference written apart.

Units, inverses and direct finiteness all come from the one scan for least
right inverses, ``FiniteRing.right_inverse_ids``; which principal right
ideal classes hold a projection comes from ``StarRing.projection_class_mask``.
"""

import numpy as np
import pytest
from ringref import reference_directly_finite_witness, reference_inverse_ids

from starclean.corpus import default_corpus
from starclean.rings import ID_DTYPE, FiniteRing, build_ring
from starclean.specparse import parse_ring_spec

LADDER = ("M2(Z4)", "M3(Z2)", "M2(Z5)", "GR(Z3,C6)", "TP(Z2,10)")
CAP = ("M2(Z8)", "TP(Z2,12)", "GR(Z4,C6)", "GR(Z2,C12)")


def _rings(recipes):
    return [build_ring(parse_ring_spec(text)) for text in recipes]


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


class _OneSidedTable(FiniteRing):
    """Not a ring: a mul table on six ids with unity 1 in which 3 has the
    right inverses 0 and 4 but no left inverse, and 5 is its own inverse."""

    size, one = 6, 1

    def _tables(self):
        mul = np.zeros((6, 6), dtype=ID_DTYPE)
        mul[1] = mul[:, 1] = np.arange(6)
        mul[3, 0] = mul[3, 4] = mul[5, 5] = 1
        mul[4, 3] = 2
        return None, mul, None


def _assert_units_match(label, R):
    expected = reference_inverse_ids(R)
    assert R.inverse_ids.tolist() == expected.tolist(), label
    assert R.units() == tuple(np.flatnonzero(expected >= 0).tolist()), label
    for a in np.flatnonzero(expected >= 0)[:64].tolist():
        assert R.inverse(a) == expected[a], (label, a)
    for a in np.flatnonzero(expected < 0)[:64].tolist():
        with pytest.raises(ValueError):
            R.inverse(a)


def test_units_and_inverses_match_the_reference(corpus):
    for S in corpus:
        _assert_units_match(S.label, S.ring)
    for R in _rings(LADDER + ("M2(Z8)",)):
        _assert_units_match(R.describe(), R)


def test_directly_finite_witness_matches_the_reference(corpus):
    rings = [S.ring for S in corpus] + _rings(LADDER)
    for R in rings:
        assert R.directly_finite_witness() is None, R.describe()
        assert reference_directly_finite_witness(R) is None, R.describe()
    for text in CAP:  # one at a time: each holds two 32 MB tables
        (R,) = _rings([text])
        assert R.directly_finite_witness() is None, text
        assert reference_directly_finite_witness(R) is None, text


def test_a_right_invertible_non_unit_is_the_witness():
    R = _OneSidedTable()
    assert R.right_inverse_ids.tolist() == [-1, 1, -1, 0, -1, 5]
    assert R.inverse_ids.tolist() == reference_inverse_ids(R).tolist() == [-1, 1, -1, -1, -1, 5]
    assert R.units() == (1, 5)
    assert R.directly_finite_witness() == reference_directly_finite_witness(R) == (3, 0)


def test_projection_class_mask_matches_each_class(corpus):
    marked = unmarked = 0
    for S in corpus:
        R = S.ring
        _, reps = R.principal_right_ideal_classes
        projections = [p for p in R.elements() if R.mul(p, p) == p and S.star(p) == p]
        ideals = [set(R.mul_table[p].tolist()) for p in projections]  # pR
        expected = [set(R.mul_table[r].tolist()) in ideals for r in reps.tolist()]
        assert S.projection_class_mask.tolist() == expected, S.label
        marked += sum(expected)
        unmarked += len(expected) - sum(expected)
    assert marked and unmarked
