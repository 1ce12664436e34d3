import itertools

import numpy as np
import pytest

import starclean.rings as rings
from idealref import fixpoint_ideal_mask
from ringref import check_ring_axioms, scalar_add, scalar_mul, scalar_neg
from starclean.corpus import default_corpus
from starclean.errors import MalformedSpec, NotAnIdeal, NotIdempotent, SpecTooLarge
from starclean.rings import (
    ID_DTYPE,
    CornerRing,
    Cyclic,
    GroupProduct,
    GroupRingSpec,
    Ideal,
    MatrixSpec,
    ProductSpec,
    QuotientRing,
    QuotientSpec,
    TruncatedPolySpec,
    Zmod,
    build_ring,
    generated_ideal,
    spec_string,
)

# ---------------------------------------------------------------------------
# independent oracles: plain-int matrix arithmetic mod n, no package machinery


def _mats(n, k=2):
    return [
        tuple(tuple(row) for row in rows)
        for rows in itertools.product(itertools.product(range(n), repeat=k), repeat=k)
    ]


def _mmul(A, B, n):
    k = len(A)
    return tuple(
        tuple(sum(A[i][l] * B[l][j] for l in range(k)) % n for j in range(k)) for i in range(k)
    )


def _meye(n, k=2):
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def oracle_unit_count_m2(n):
    mats = _mats(n)
    eye = _meye(n)
    count = 0
    for A in mats:
        if any(_mmul(A, B, n) == eye and _mmul(B, A, n) == eye for B in mats):
            count += 1
    return count


def oracle_idempotent_count_m2(n):
    return sum(1 for A in _mats(n) if _mmul(A, A, n) == A)


def oracle_idempotent_count_m2_parametric(n):
    # O and the identity, plus all [[x, y], [z, 1-x]] with y*z = x - x^2
    nontrivial = sum(
        1
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (y * z) % n == (x - x * x) % n and ((x, y), (z, (1 - x) % n)) not in (None,)
    )
    # the parametric family double counts nothing but does include O-like and
    # I-like members only when they fit the trace-1 shape, which they do not
    # for n > 2; count exactly as stated: family + O + I, minus family members
    # equal to O or I.
    family = set()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (y * z) % n == (x - x * x) % n:
                    family.add(((x, y), (z, (1 - x) % n)))
    zero = ((0, 0), (0, 0))
    eye = ((1, 0), (0, 1))
    return len(family | {zero, eye})


def oracle_jacobson_zmod(n):
    units = {x for x in range(n) if any((x * y) % n == 1 for y in range(n))}
    return {a for a in range(n) if all((1 - r * a) % n in units for r in range(n))}


def oracle_jacobson_m2(n):
    mats = _mats(n)
    eye = _meye(n)
    units = {
        A
        for A in mats
        if any(_mmul(A, B, n) == eye and _mmul(B, A, n) == eye for B in mats)
    }

    def one_minus(M):
        return tuple(
            tuple(((1 if i == j else 0) - M[i][j]) % n for j in range(2)) for i in range(2)
        )

    return [A for A in mats if all(one_minus(_mmul(R, A, n)) in units for R in mats)]


# ---------------------------------------------------------------------------


def test_zmod_basics():
    R = build_ring(Zmod(4))
    assert R.size == 4
    assert R.add(1, 3) == 0
    assert R.mul(2, 3) == 2
    assert set(R.units()) == {1, 3}
    assert set(R.idempotent_ids.tolist()) == {0, 1}
    assert set(np.flatnonzero(R.nilpotent_mask).tolist()) == {0, 2}
    assert R.inverse_ids[3] == 3


def test_zmod_jacobson_matches_oracle():
    for n in (4, 6, 8, 9, 12):
        R = build_ring(Zmod(n))
        assert set(R.jacobson_radical().elements()) == oracle_jacobson_zmod(n)


def test_matrix_ring_m2z2():
    R = build_ring(MatrixSpec(2, Zmod(2)))
    assert R.size == 16
    assert oracle_unit_count_m2(2) == 6
    assert len(R.units()) == 6
    a = R.from_value([[0, 1], [0, 0]])
    assert R.is_nilpotent(a)
    assert R.mul(a, a) == R.zero
    assert oracle_idempotent_count_m2(2) == len(R.idempotent_ids)


def test_matrix_ring_m2z3_idempotents():
    R = build_ring(MatrixSpec(2, Zmod(3)))
    assert R.size == 81
    assert oracle_idempotent_count_m2(3) == 14
    assert oracle_idempotent_count_m2_parametric(3) == 14
    assert len(R.idempotent_ids) == 14
    assert len(R.units()) == 48  # order of the 2x2 general linear group over F3


def test_jacobson_m2z2_is_zero():
    R = build_ring(MatrixSpec(2, Zmod(2)))
    assert oracle_jacobson_m2(2) == [((0, 0), (0, 0))]
    assert R.jacobson_radical().elements() == (0,)


def test_jacobson_product_is_zero():
    R = build_ring(ProductSpec(Zmod(2), Zmod(2)))
    assert R.jacobson_radical().elements() == (R.zero,)
    assert set(R.units()) == {R.from_value((1, 1))}
    assert len(R.idempotent_ids) == 4


def test_group_ring_build_and_axioms():
    R = build_ring(GroupRingSpec(Zmod(4), Cyclic(2)))
    assert R.size == 16
    assert check_ring_axioms(R) == []
    # (1 + g)^2 = 1 + 2g + g^2 = 2 + 2g in Z4[C2]
    x = R.from_value([1, 1])
    assert R.mul(x, x) == R.from_value([2, 2])


def test_truncated_poly():
    R = build_ring(TruncatedPolySpec(Zmod(2), 3))
    assert R.size == 8
    x = R.from_value([0, 1, 0])
    assert R.mul(R.mul(x, x), x) == R.zero
    assert R.is_nilpotent(x)
    assert check_ring_axioms(R) == []


def test_nilpotents_squarefree_modulus():
    R = build_ring(Zmod(6))
    assert np.flatnonzero(R.nilpotent_mask).tolist() == [0]


def test_quotient_z4():
    R = build_ring(Zmod(4))
    I = Ideal.from_elements(R, [0, 2])
    Q = QuotientRing(R, I)
    assert Q.size == 2
    assert Q.add(1, 1) == 0
    assert Q.mul(1, 1) == 1
    assert Q.size * I.size == R.size


def test_quotient_by_zero_is_identity():
    R = build_ring(Zmod(6))
    Q = QuotientRing(R, Ideal.from_elements(R, [0]))
    assert Q.size == R.size
    assert all(Q.add(a, b) == R.add(a, b) for a in range(6) for b in range(6))


def test_quotient_m2z4_by_two_eye():
    R = build_ring(MatrixSpec(2, Zmod(4)))
    two_eye = R.from_value([[2, 0], [0, 2]])
    I = generated_ideal(R, [two_eye])
    # oracle: the ideal generated by 2*I consists of the matrices with all
    # entries even, 2^4 of them
    assert I.size == 16
    Q = QuotientRing(R, I)
    assert Q.size == 16
    assert Q.size * I.size == R.size
    # surjection maps each element onto its coset id
    for x in (0, 5, R.one, two_eye):
        assert 0 <= Q.surjection[x] < Q.size
    assert Q.surjection[two_eye] == Q.zero


def test_quotient_rejects_non_ideal():
    R = build_ring(Zmod(4))
    with pytest.raises(NotAnIdeal):
        Ideal.from_elements(R, [0, 1])


def test_quotient_spec_in_tree():
    Q = build_ring(QuotientSpec(Zmod(4), (2,)))
    assert Q.size == 2
    assert spec_string(Q.spec) == "Q(Z4,[2])"


def test_corner_identity_and_zero():
    R = build_ring(MatrixSpec(2, Zmod(2)))
    C1 = CornerRing(R, R.one)
    assert C1.size == R.size
    C0 = CornerRing(R, R.zero)
    assert C0.size == 1
    assert C0.one == C0.zero


def test_corner_e11():
    R = build_ring(MatrixSpec(2, Zmod(2)))
    e11 = R.from_value([[1, 0], [0, 0]])
    C = CornerRing(R, e11)
    assert C.size == 2
    assert C.embed(C.one) == e11
    assert C.mul(C.one, C.one) == C.one
    assert C.add(C.one, C.one) == C.zero  # characteristic 2


def test_corner_rejects_non_idempotent():
    R = build_ring(Zmod(4))
    with pytest.raises(NotIdempotent):
        CornerRing(R, 2)


def test_directly_finite():
    for spec in (Zmod(8), MatrixSpec(2, Zmod(2)), GroupRingSpec(Zmod(2), Cyclic(2))):
        R = build_ring(spec)
        assert R.directly_finite_witness() is None


def test_inverse_map_is_involution():
    R = build_ring(MatrixSpec(2, Zmod(3)))
    for u in R.units():
        v = int(R.inverse_ids[u])
        assert R.inverse_ids[v] == u
        assert R.mul(u, v) == R.one and R.mul(v, u) == R.one


def test_unit_and_nilpotent_caches_match_brute_force(monkeypatch):
    def check(label, R):
        mul = R.mul_table
        assert R.nilpotent_mask.tolist() == [R.is_nilpotent(a) for a in R.elements()], label
        units = []
        for a in R.elements():
            two_sided = [b for b in R.elements() if mul[a, b] == R.one and mul[b, a] == R.one]
            if two_sided:
                assert two_sided == [int(R.inverse_ids[a])], (label, a)
                units.append(a)
            else:
                assert R.inverse_ids[a] == -1, (label, a)
        assert R.units() == tuple(units), label
        assert R.units_mask.tolist() == [a in units for a in R.elements()], label

    for S in default_corpus():
        check(S.label, S.ring)
    # the unit search runs over row blocks of elements: 7 rows each here
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 7 * 256)
    R = build_ring(MatrixSpec(2, Zmod(4)))
    assert len(rings._row_blocks(0, R.size, R.size)) == 37
    check(R.describe(), R)


def test_scalar_matches_tables():
    # the structural reference in ringref against every table entry; digit
    # rings multiply only single-digit pairs, through their basis table
    # _target, and extend by additivity
    M2 = build_ring(MatrixSpec(2, Zmod(2)))
    rings = [
        build_ring(spec)
        for spec in (
            Zmod(6),
            ProductSpec(Zmod(2), Zmod(3)),
            MatrixSpec(2, Zmod(2)),
            MatrixSpec(2, ProductSpec(Zmod(2), Zmod(2))),
            GroupRingSpec(Zmod(2), Cyclic(3)),
            GroupRingSpec(Zmod(2), GroupProduct(Cyclic(2), Cyclic(2))),
            TruncatedPolySpec(Zmod(3), 2),
            TruncatedPolySpec(Zmod(4), 3),
            QuotientSpec(MatrixSpec(2, Zmod(2)), (5,)),
            QuotientSpec(MatrixSpec(2, Zmod(4)), (130,)),  # M2(Z4) mod 2*I
            # noncommutative or nested bases: c*d and d*c differ here
            TruncatedPolySpec(MatrixSpec(2, Zmod(2)), 2),
            GroupRingSpec(MatrixSpec(2, Zmod(2)), Cyclic(2)),
            MatrixSpec(2, TruncatedPolySpec(Zmod(2), 2)),
        )
    ]
    rings.append(CornerRing(M2, M2.from_value([[1, 0], [0, 0]])))
    rings.append(QuotientRing(M2, generated_ideal(M2, [M2.from_value([[0, 1], [0, 0]])])))
    for R in rings:
        for a in range(R.size):
            assert scalar_neg(R, a) == int(R.neg_table[a]), (R, a)
            for b in range(R.size):
                assert scalar_add(R, a, b) == int(R.add_table[a, b]), (R, a, b)
                assert scalar_mul(R, a, b) == int(R.mul_table[a, b]), (R, a, b)


def _tables(R):
    return R.add_table, R.mul_table, R.neg_table


def test_every_table_is_uint16():
    assert ID_DTYPE == np.uint16
    for S in default_corpus():
        R = S.ring
        e = int(R.idempotent_ids[len(R.idempotent_ids) // 2])
        J = R.jacobson_radical()
        g = J.elements()[-1] if J.size > 1 else R.zero
        for ring in (R, CornerRing(R, e), QuotientRing(R, generated_ideal(R, [g]))):
            assert [t.dtype for t in _tables(ring)] == [np.uint16] * 3, (S.label, ring)
            assert all(t.flags.c_contiguous for t in _tables(ring)), (S.label, ring)


def test_axioms_on_small_corpus():
    for spec in (
        Zmod(5),
        Zmod(16),
        ProductSpec(Zmod(2), Zmod(2)),
        MatrixSpec(2, Zmod(3)),
        GroupRingSpec(Zmod(4), Cyclic(4)),
    ):
        assert check_ring_axioms(build_ring(spec)) == []


def test_spec_validation():
    with pytest.raises(MalformedSpec):
        build_ring(Zmod(1))
    with pytest.raises(MalformedSpec):
        build_ring(MatrixSpec(0, Zmod(2)))
    with pytest.raises(SpecTooLarge):
        build_ring(Zmod(5000))
    with pytest.raises(SpecTooLarge):
        build_ring(MatrixSpec(3, Zmod(4)))  # 4^9 far beyond the default cap
    with pytest.raises(MalformedSpec):
        build_ring(QuotientSpec(Zmod(4), (9,)))
    assert build_ring(Zmod(5000), cap=10000).size == 5000


def test_render_structural():
    R = build_ring(MatrixSpec(2, Zmod(2)))
    assert R.render(R.one) == "[[1,0],[0,1]]"
    P = build_ring(ProductSpec(Zmod(2), Zmod(2)))
    assert P.render(P.from_value((1, 0))) == "(1,0)"
    G = build_ring(GroupRingSpec(Zmod(4), Cyclic(2)))
    assert G.render(G.from_value([1, 3])) == "1 + 3*g"
    T = build_ring(TruncatedPolySpec(Zmod(2), 3))
    assert T.render(T.from_value([1, 1, 1])) == "1 + 1*x + 1*x^2"


def test_power_sequence():
    R = build_ring(Zmod(8))
    powers, nxt = R.distinct_powers(2)
    assert powers == [2, 4, 0]
    assert nxt == 0


def test_quotient_mod_radical_is_semisimple():
    for spec in (Zmod(8), Zmod(9), GroupRingSpec(Zmod(2), Cyclic(2))):
        R = build_ring(spec)
        J = R.jacobson_radical()
        Q = QuotientRing(R, J)
        assert Q.jacobson_radical().elements() == (Q.zero,)


def test_generated_ideal_matches_fixpoint_reference():
    for S in default_corpus():
        R = S.ring
        for g in R.elements():
            ideal = generated_ideal(R, [g])
            assert (ideal.mask == fixpoint_ideal_mask(R, [g])).all(), (S.label, g)
    R = build_ring(MatrixSpec(2, Zmod(2)))
    for pair in itertools.product(R.elements(), repeat=2):
        ideal = generated_ideal(R, pair)
        assert (ideal.mask == fixpoint_ideal_mask(R, pair)).all(), pair
        ideal.validate()
