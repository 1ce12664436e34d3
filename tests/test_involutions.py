import itertools

import numpy as np
import pytest
from ringref import reference_digit_involution

from starclean.errors import (
    AxiomViolation,
    IdentityOnNoncommutative,
    NotAProjection,
    NotStarInvariant,
    SwapShapeMismatch,
)
from starclean.involutions import (
    StarRing,
    corner_star_ring,
    group_ring_involution,
    identity_involution,
    induce_quotient_involution,
    is_proper,
    product_involution,
    swap_involution,
    table_involution,
    transpose_involution,
    truncated_poly_involution,
)
from starclean.properties import Verdict, ring_property
from starclean.rings import (
    Cyclic,
    GroupRingSpec,
    Ideal,
    MatrixSpec,
    ProductSpec,
    TruncatedPolySpec,
    Zmod,
    build_ring,
)
from starclean.specparse import build_star_ring, parse_ring_spec


def _star(ring_spec, make_inv):
    R = build_ring(ring_spec)
    return StarRing(R, make_inv(R))


def m2(n):
    R = build_ring(MatrixSpec(2, Zmod(n)))
    return StarRing(R, transpose_involution(R, identity_involution(R.base)))


def test_identity_on_z4():
    S = _star(Zmod(4), identity_involution)
    assert S.projections() == (0, 1)
    assert np.flatnonzero(S.self_adjoint_mask).tolist() == [0, 1, 2, 3]


def test_identity_rejected_on_matrix_ring():
    R = build_ring(MatrixSpec(2, Zmod(2)))
    with pytest.raises(IdentityOnNoncommutative):
        identity_involution(R)


NONCOMMUTATIVE = (
    "M2(Z2)", "M2(Z3)", "M2(Z4)", "M3(Z2)", "Z2xM2(Z2)", "M2(Z2)xZ3",
    "TP(M2(Z2),2)", "GR(M2(Z2),C2)",
)


@pytest.mark.parametrize("recipe", NONCOMMUTATIVE)
def test_identity_refusal_names_the_first_noncentral_pair(recipe):
    R = build_ring(parse_ring_spec(recipe))
    with pytest.raises(IdentityOnNoncommutative) as err:
        identity_involution(R)
    a, b = R.first_noncentral(np.ones(R.size, dtype=bool))
    assert type(err.value) is IdentityOnNoncommutative
    assert err.value.witness == (a, b)
    assert str(err.value) == (
        "identity involution requires a commutative ring; "
        f"x={R.render(a)}, y={R.render(b)} do not commute"
    )


@pytest.mark.parametrize("recipe", ["Z6", "Z2xZ2xZ4", "GR(Z2,C4)", "TP(Z4,3)"])
def test_identity_on_a_commutative_ring_builds_no_center_mask(recipe):
    R = build_ring(parse_ring_spec(recipe))
    assert (identity_involution(R).table == np.arange(R.size)).all()
    assert "center_mask" not in R.__dict__


def test_swap_on_z2xz2():
    S = _star(ProductSpec(Zmod(2), Zmod(2)), swap_involution)
    R = S.ring
    a = R.from_value((1, 0))
    assert S.star(a) == R.from_value((0, 1))
    assert set(S.projections()) == {R.from_value((0, 0)), R.from_value((1, 1))}


def test_swap_shape_mismatch():
    with pytest.raises(SwapShapeMismatch):
        swap_involution(build_ring(Zmod(4)))
    with pytest.raises(SwapShapeMismatch):
        swap_involution(build_ring(ProductSpec(Zmod(2), Zmod(3))))


def test_transpose_projections_m2z2():
    S = m2(2)
    R = S.ring
    expected = {
        R.from_value([[0, 0], [0, 0]]),
        R.from_value([[1, 0], [0, 1]]),
        R.from_value([[1, 0], [0, 0]]),
        R.from_value([[0, 0], [0, 1]]),
    }
    assert set(S.projections()) == expected


def test_transpose_projections_m2z3():
    S = m2(3)
    R = S.ring
    expected = {
        R.from_value([[0, 0], [0, 0]]),
        R.from_value([[1, 0], [0, 1]]),
        R.from_value([[1, 0], [0, 0]]),
        R.from_value([[0, 0], [0, 1]]),
        R.from_value([[2, 1], [1, 2]]),
        R.from_value([[2, 2], [2, 2]]),
    }
    assert set(S.projections()) == expected


def test_boolean_identity_all_projections():
    S = _star(ProductSpec(Zmod(2), Zmod(2)), identity_involution)
    assert len(S.projections()) == 4


def test_group_ring_involution():
    R = build_ring(GroupRingSpec(Zmod(4), Cyclic(4)))
    inv = group_ring_involution(R, identity_involution(R.base))
    # (a0 + a1 g + a2 g^2 + a3 g^3)* = a0 + a3 g + a2 g^2 + a1 g^3
    x = R.from_value([1, 2, 3, 0])
    assert inv(x) == R.from_value([1, 0, 3, 2])


def test_truncated_poly_involution_fixes_x():
    R = build_ring(TruncatedPolySpec(Zmod(2), 3))
    inv = truncated_poly_involution(R, identity_involution(R.base))
    assert (inv.table == np.arange(R.size)).all()


@pytest.mark.parametrize(
    "ring, inv, base_ring, base_inv",
    [
        ("M2(GR(Z2,C2))", "tr(grp(id))", "GR(Z2,C2)", "grp(id)"),
        ("GR(M2(Z2),C2)", "grp(tr(id))", "M2(Z2)", "tr(id)"),
        ("TP(M2(Z2),2)", "tp(tr(id))", "M2(Z2)", "tr(id)"),
        ("GR(Z3,C2*C3)", "grp(id)", "Z3", "id"),
    ],
)
def test_digit_involutions_match_the_elementwise_definition(ring, inv, base_ring, base_inv):
    S = build_star_ring(ring, inv)
    base_star = build_star_ring(base_ring, base_inv).star_table
    expected = [reference_digit_involution(S.ring, base_star, a) for a in range(S.ring.size)]
    assert S.star_table.tolist() == expected


def test_product_involution():
    R = build_ring(ProductSpec(Zmod(2), Zmod(3)))
    inv = product_involution(
        R, identity_involution(R.left), identity_involution(R.right)
    )
    assert (inv.table == np.arange(R.size)).all()


def test_table_involution_validation():
    R = build_ring(Zmod(4))
    ok = table_involution(R, [0, 1, 2, 3])
    assert ok.kind == "table"
    with pytest.raises(AxiomViolation):
        table_involution(R, [0, 3, 2, 1])  # additive but not multiplicative: 3*3=1 -> 1* must be 1
    with pytest.raises(AxiomViolation):
        table_involution(R, [1, 0, 2, 3])


def test_axiom_violation_reports_witness():
    R = build_ring(ProductSpec(Zmod(2), Zmod(2)))
    with pytest.raises(AxiomViolation) as err:
        table_involution(R, [0, 1, 3, 2])  # swaps (1,0) with (1,1): breaks additivity
    assert err.value.axiom in ("additivity", "anti-multiplicativity", "fixes-one")


def test_induced_quotient_on_z4():
    S = _star(Zmod(4), identity_involution)
    J = S.ring.jacobson_radical()
    assert set(J.elements()) == {0, 2}
    Q, pi = induce_quotient_involution(S, J)
    assert Q.ring.size == 2
    assert Q.projections() == (0, 1)
    assert pi[2] == 0


def test_mod_jacobson_always_succeeds():
    for S in (
        _star(Zmod(8), identity_involution),
        m2(2),
        _star(ProductSpec(Zmod(2), Zmod(2)), swap_involution),
    ):
        Q, _ = S.mod_jacobson()
        assert Q.ring.size * S.ring.jacobson_radical().size == S.ring.size
    # J(M2(Z2)) = 0, and R/0 = R: no copy is built
    S = m2(2)
    Q, pi = S.mod_jacobson()
    assert Q is S
    assert (pi == np.arange(S.ring.size)).all()


def test_induced_quotient_rejects_non_invariant_ideal():
    S = _star(ProductSpec(Zmod(2), Zmod(2)), swap_involution)
    R = S.ring
    I = Ideal.from_elements(R, [R.from_value((0, 0)), R.from_value((1, 0))])
    with pytest.raises(NotStarInvariant) as err:
        induce_quotient_involution(S, I)
    assert err.value.witness == R.from_value((1, 0))


def test_corner_star_ring():
    S = m2(2)
    e11 = S.ring.from_value([[1, 0], [0, 0]])
    C = corner_star_ring(S, e11)
    assert C.ring.size == 2
    assert C.projections() == (0, 1)


def test_corner_star_requires_projection():
    S = m2(2)
    e = S.ring.from_value([[1, 1], [0, 0]])  # idempotent, not self-adjoint
    assert S.ring.mul(e, e) == e
    with pytest.raises(NotAProjection):
        corner_star_ring(S, e)


def test_is_proper():
    S = _star(Zmod(4), identity_involution)
    assert is_proper(S) == (False, 2)
    S2 = _star(Zmod(2), identity_involution)
    assert is_proper(S2) == (True, None)


def _oracle_transpose_proper(n):
    # exhaustive search over plain-int matrices for A != 0 with A^T A = 0
    mats = itertools.product(range(n), repeat=4)
    for a, b, c, d in mats:
        if (a, b, c, d) == (0, 0, 0, 0):
            continue
        # A^T A for A = [[a,b],[c,d]]
        e11 = (a * a + c * c) % n
        e12 = (a * b + c * d) % n
        e21 = (b * a + d * c) % n
        e22 = (b * b + d * d) % n
        if e11 == e12 == e21 == e22 == 0:
            return (a, b, c, d)
    return None


def test_is_proper_matrix_rings_match_oracle():
    for n in (2, 3):
        S = m2(n)
        witness = _oracle_transpose_proper(n)
        proper, found = is_proper(S)
        assert proper == (witness is None)
        if not proper:
            x = found
            assert S.ring.mul(S.star(x), x) == S.ring.zero and x != S.ring.zero


def test_is_star_abelian():
    S = _star(Zmod(9), identity_involution)
    assert ring_property(S, "star-abelian") == Verdict(True)
    S2 = m2(2)
    verdict = ring_property(S2, "star-abelian")
    assert not verdict.value
    p, x = verdict.witness.ids
    R = S2.ring
    assert R.mul(p, x) != R.mul(x, p)
    assert S2.projection_mask[p]
    assert not ring_property(m2(3), "star-abelian").value


def test_star_respects_units():
    for S in (m2(3), _star(ProductSpec(Zmod(2), Zmod(2)), swap_involution)):
        R = S.ring
        for u in R.units():
            su = S.star(u)
            assert R.units_mask[su]
            assert S.star(int(R.inverse_ids[u])) == R.inverse_ids[su]


def test_projection_subsets():
    for S in (m2(2), m2(3), _star(Zmod(16), identity_involution)):
        pm = S.projection_mask
        assert not (pm & ~S.ring.idempotent_mask).any()
        assert not (pm & ~S.self_adjoint_mask).any()
        assert pm[S.ring.zero] and pm[S.ring.one]


def test_two_unit_lemma_on_corpus_members():
    # with 2 invertible: all square roots of 1 self-adjoint iff Id(R) = P(R)
    for spec, make in (
        (Zmod(3), identity_involution),
        (Zmod(5), identity_involution),
        (Zmod(9), identity_involution),
    ):
        S = _star(spec, make)
        R = S.ring
        two = R.add(R.one, R.one)
        assert R.units_mask[two]
        sqrt1 = [u for u in R.elements() if R.mul(u, u) == R.one]
        lhs = all(S.star(u) == u for u in sqrt1)
        rhs = set(R.idempotent_ids.tolist()) == set(S.projections())
        assert lhs == rhs

    # the swap ring shows the hypothesis matters: 2 is not invertible there
    S = _star(ProductSpec(Zmod(2), Zmod(2)), swap_involution)
    R = S.ring
    two = R.add(R.one, R.one)
    assert not R.units_mask[two]
    sqrt1 = [u for u in R.elements() if R.mul(u, u) == R.one]
    lhs = all(S.star(u) == u for u in sqrt1)
    rhs = set(R.idempotent_ids.tolist()) == set(S.projections())
    assert lhs != rhs


def _first_violation(R, star):
    """The (axiom, witness) that checking whole n x n arrays finds first."""
    add, mul = R.add_table, R.mul_table
    for axiom, bad in (
        ("additivity", star[add] != add[np.ix_(star, star)]),
        ("anti-multiplicativity", star[mul] != mul[np.ix_(star, star)].T),
    ):
        if bad.any():
            return axiom, tuple(int(i) for i in np.argwhere(bad)[0])
    return None


@pytest.mark.parametrize("rows", [1, 3, 256])
def test_blocked_axiom_check_finds_the_row_major_first_violation(monkeypatch, rows):
    import starclean.involutions as inv
    import starclean.rings as rings

    rng = np.random.default_rng(0)
    cases = []
    for spec in (Zmod(9), MatrixSpec(2, Zmod(2))):
        R = build_ring(spec)
        cases.append((R, np.arange(R.size)))  # the identity: not anti-multiplicative on M2
        for _ in range(3):
            star = np.arange(R.size)
            star[2:] = rng.permutation(star[2:])
            cases.append((R, star))
    for R, star in cases:
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", rows * R.size)
        assert len(rings._row_blocks(0, R.size, R.size)) == -(-R.size // rows)
        expected = _first_violation(R, star)
        if expected is None:
            inv.verify_involution(R, star)
            continue
        with pytest.raises(AxiomViolation) as err:
            inv.verify_involution(R, star)
        assert (err.value.axiom, err.value.witness) == expected
