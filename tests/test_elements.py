from starclean.elements import (
    CLEAN_MODES,
    clean_certificates,
    is_clean_elem,
    spsr_conditions,
    strongly_pi_regular_witness,
    strongly_star_regular_witness,
    unit_sasr_decomposition,
)
from starclean.involutions import (
    StarRing,
    identity_involution,
    swap_involution,
    transpose_involution,
)
from starclean.rings import MatrixSpec, ProductSpec, Zmod, build_ring


def ident(spec):
    R = build_ring(spec)
    return StarRing(R, identity_involution(R))


def m2(n):
    R = build_ring(MatrixSpec(2, Zmod(n)))
    return StarRing(R, transpose_involution(R, identity_involution(R.base)))


def swap_ring():
    R = build_ring(ProductSpec(Zmod(2), Zmod(2)))
    return StarRing(R, swap_involution(R))


def test_zero_is_clean_via_one_minus_one():
    S = ident(Zmod(4))
    certs = clean_certificates(S, 0, "clean")
    assert any(c.part == 1 and c.unit == 3 for c in certs)  # 0 = 1 + (-1)
    assert all(c.holds(S) for c in certs)


def test_swap_ring_element_not_star_clean():
    S = swap_ring()
    a = S.ring.from_value((1, 0))
    assert clean_certificates(S, a, "star-clean") == []
    assert clean_certificates(S, a, "clean") != []


def test_m2z2_every_element_star_clean():
    S = m2(2)
    for a in S.ring.elements():
        certs = clean_certificates(S, a, "star-clean")
        assert certs, S.ring.render(a)
        assert all(c.holds(S) for c in certs)


def test_certificates_ordered_and_revalidate():
    S = m2(3)
    for a in (0, 5, 40):
        for mode in CLEAN_MODES:
            certs = clean_certificates(S, a, mode)
            assert [c.part for c in certs] == sorted(c.part for c in certs)
            assert all(c.holds(S) for c in certs)
            assert bool(certs) == is_clean_elem(S, a, mode)


def test_strongly_pi_regular_nilpotent_and_unit():
    S = ident(Zmod(8))
    R = S.ring
    got = strongly_pi_regular_witness(R, 2)  # nilpotent: 2^3 = 0
    assert got is not None
    n, x, y = got
    w = 2
    for _ in range(n - 1):
        w = R.mul(w, 2)
    wnext = R.mul(w, 2)
    assert w == R.mul(wnext, x) == R.mul(y, wnext)
    got = strongly_pi_regular_witness(R, 3)  # unit
    assert got is not None and got[0] == 1


def test_strongly_pi_regular_all_of_m2z2():
    S = m2(2)
    for a in S.ring.elements():
        assert strongly_pi_regular_witness(S.ring, a) is not None


def test_strongly_star_regular():
    S = ident(Zmod(4))
    assert strongly_star_regular_witness(S, S.ring.one) == (1, 1)
    assert strongly_star_regular_witness(S, 2) is None
    p, u = strongly_star_regular_witness(S, 0)
    assert p == 0 and S.ring.units_mask[u]


def test_spsr_z4_element_two_all_four():
    S = ident(Zmod(4))
    v = spsr_conditions(S, 2)
    assert v.flags == (True, True, True, True)
    assert v.c2.data["f"] == 1 and v.c2.data["v"] == 1
    for cert in (v.c1, v.c2, v.c3, v.c4):
        assert cert.holds(S)


def test_spsr_m2z2_counterexample_all_four_false():
    S = m2(2)
    a = S.ring.from_value([[1, 1], [0, 0]])
    v = spsr_conditions(S, a)
    assert v.flags == (False, False, False, False)
    assert v.consistent


def test_spsr_units_all_four_true():
    S = m2(3)
    R = S.ring
    for u in list(R.units())[:8]:
        v = spsr_conditions(S, u)
        assert v.flags == (True, True, True, True)
        for cert in (v.c1, v.c2, v.c3, v.c4):
            assert cert.holds(S)


def test_spsr_consistency_over_small_rings():
    for S in (ident(Zmod(6)), ident(Zmod(9)), swap_ring(), m2(2)):
        for a in S.ring.elements():
            assert spsr_conditions(S, a).consistent, (S.label, S.ring.render(a))


def test_unit_sasr_z3():
    S = ident(Zmod(3))
    assert unit_sasr_decomposition(S, 2) == (1, 1)
    for a in S.ring.elements():
        got = unit_sasr_decomposition(S, a)
        assert got is not None
        t, u = got
        R = S.ring
        assert R.add(t, u) == a and R.mul(t, t) == R.one and R.units_mask[u]


def test_unit_sasr_z4_exhaustive():
    # 2 is not invertible in Z4, and indeed the identity element has no
    # decomposition: candidates t in {1,3} give u in {0,2}, not units
    S = ident(Zmod(4))
    assert set(S.sasr_units) == {1, 3}
    assert unit_sasr_decomposition(S, S.ring.one) is None
    assert unit_sasr_decomposition(S, 0) is not None  # 0 = 1 + 3


def test_units_radical_nilpotents_are_star_clean():
    for S in (ident(Zmod(8)), m2(2), m2(3), swap_ring()):
        R = S.ring
        special = set(R.units()) | set(R.nilpotents()) | set(
            R.jacobson_radical().elements()
        )
        for a in special:
            assert is_clean_elem(S, a, "star-clean"), (S.label, R.render(a))
