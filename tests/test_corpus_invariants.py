"""Corpus-wide invariants that every member must satisfy."""

import itertools

import numpy as np
import pytest
from idealref import ideal_violation
from ringref import check_ring_axioms

from starclean.corpus import default_corpus
from starclean.elements import is_clean_elem, spsr_conditions, strongly_star_regular_witness
from starclean.involutions import StarRing, identity_involution, transpose_involution
from starclean.matrixops import DenseMatrix, is_spsr_matrix
from starclean.properties import ring_property
from starclean.rings import MatrixSpec, QuotientRing, Zmod, build_ring


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def test_ring_axioms_exhaustive_on_corpus(corpus):
    for S in corpus:
        assert check_ring_axioms(S.ring) == [], S.label
        assert S.ring.directly_finite_witness() is None, S.label


def test_special_elements_are_star_clean(corpus):
    # units, radical members, and nilpotents always decompose with a projection
    for S in corpus:
        R = S.ring
        special = R.units_mask | R.nilpotent_mask | R.jacobson_mask
        for a in np.flatnonzero(special).tolist():
            assert is_clean_elem(S, a, "star-clean"), (S.label, R.render(a))


def test_star_regular_members_have_star_clean_idempotents(corpus):
    for S in corpus:
        if not ring_property(S, "star-regular").value:
            continue
        for e in S.ring.idempotent_ids.tolist():
            assert is_clean_elem(S, e, "star-clean"), (S.label, S.ring.render(e))


def test_elementwise_implication_chain(corpus):
    # strongly star-regular -> all four power conditions -> strongly star-clean
    for S in corpus:
        for a in S.ring.elements():
            verdict = spsr_conditions(S, a)
            assert verdict.consistent, (S.label, S.ring.render(a))
            if strongly_star_regular_witness(S, a) is not None:
                assert all(verdict.flags), (S.label, S.ring.render(a))
            if all(verdict.flags):
                assert is_clean_elem(S, a, "strongly-star-clean"), (S.label, S.ring.render(a))


def test_radical_is_nil_and_factor_is_semisimple(corpus):
    for S in corpus:
        assert ring_property(S, "J-nil").value, S.label
        R = S.ring
        J = R.jacobson_mask
        assert ideal_violation(R, J) is None, S.label  # J(R) is never checked where it is built
        Q = QuotientRing(R, J)
        assert Q.jacobson_mask.sum() == 1, S.label
        assert Q.size * J.sum() == R.size, S.label


def test_star_fixes_units_and_commutes_with_inversion(corpus):
    for S in corpus:
        R = S.ring
        for u in R.units():
            su = S.star(u)
            assert R.units_mask[su], (S.label, R.render(u))
            assert S.star(int(R.inverse_ids[u])) == R.inverse_ids[su], (S.label, R.render(u))


def test_clean_equals_exchange_on_abelian_members(corpus):
    hit = 0
    for S in corpus:
        if not ring_property(S, "abelian").value:
            continue
        hit += 1
        assert ring_property(S, "clean").value == ring_property(S, "exchange").value, S.label
    assert hit >= 10  # the corpus is mostly commutative


def test_numeric_agrees_with_exact_on_faithful_lifts():
    # 0/1 matrices idempotent over the reals are idempotent mod p as well;
    # on these the numeric verdict and the exact element classification of
    # the corresponding 2x2 matrix ring member must coincide
    exact_rings = {}
    for p in (2, 3):
        R = build_ring(MatrixSpec(2, Zmod(p)))
        exact_rings[p] = StarRing(R, transpose_involution(R, identity_involution(R.base)))
    checked = 0
    for bits in itertools.product((0, 1), repeat=4):
        M = np.array([[bits[0], bits[1]], [bits[2], bits[3]]], dtype=float)
        if not np.array_equal(M @ M, M):
            continue
        numeric, _ = is_spsr_matrix(DenseMatrix(M.astype(complex)))
        for p, S in exact_rings.items():
            a = S.ring.from_value([[int(v) for v in row] for row in M.astype(int)])
            exact = all(spsr_conditions(S, a).flags)
            assert numeric == exact, (p, M.tolist())
        checked += 1
    assert checked == 8  # zero, identity, and the six rank-one 0/1 idempotents
