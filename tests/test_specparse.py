import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringref import check_ring_axioms, scalar_add, scalar_mul, scalar_neg
from starclean.errors import (
    IdentityOnNoncommutative,
    NotStarInvariant,
    ParseError,
    SpecTooLarge,
    SwapShapeMismatch,
    ValidationError,
)
from starclean.rings import (
    Cyclic,
    GroupProduct,
    GroupRingSpec,
    MatrixSpec,
    ProductSpec,
    QuotientSpec,
    TruncatedPolySpec,
    Zmod,
    build_ring,
    spec_string,
)
from starclean.specparse import (
    build_star_ring,
    involution_spec_string,
    parse_involution_spec,
    parse_ring_spec,
)


def test_parse_examples():
    assert parse_ring_spec("Z4") == Zmod(4)
    assert parse_ring_spec("M2(Z3)") == MatrixSpec(2, Zmod(3))
    assert parse_ring_spec("Z2xZ2") == ProductSpec(Zmod(2), Zmod(2))
    assert parse_ring_spec("GR(Z4,C2)") == GroupRingSpec(Zmod(4), Cyclic(2))
    assert parse_ring_spec("TP(Z2,3)") == TruncatedPolySpec(Zmod(2), 3)
    assert parse_ring_spec("Q(M2(Z4),[130])") == QuotientSpec(MatrixSpec(2, Zmod(4)), (130,))
    assert parse_ring_spec(" GR( Z2 x Z2 , C2 * C2 ) ") == GroupRingSpec(
        ProductSpec(Zmod(2), Zmod(2)), GroupProduct(Cyclic(2), Cyclic(2))
    )


def test_products_left_associative():
    assert parse_ring_spec("Z2xZ3xZ5") == ProductSpec(ProductSpec(Zmod(2), Zmod(3)), Zmod(5))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_ring_spec("M2(Z3")
    assert err.value.pos == 5  # zero-based offset of the missing ")"
    with pytest.raises(ParseError):
        parse_ring_spec("Z4 junk")
    with pytest.raises(ParseError):
        parse_ring_spec("W7")
    with pytest.raises(ParseError):
        parse_involution_spec("tr(")


def test_involution_parse_roundtrip():
    for text in ("id", "swap", "tr(id)", "grp(id)", "prod(id,swap)", "tp(id)", "table:inv.json"):
        spec = parse_involution_spec(text)
        assert involution_spec_string(spec) == text
        assert parse_involution_spec(involution_spec_string(spec)) == spec


@pytest.mark.parametrize(
    "ring, inv, error",
    [
        ("Z4", "tr(id)", "tr(...) needs a matrix ring, got Z4"),
        ("Z4", "grp(id)", "grp(...) needs a group ring, got Z4"),
        ("Z4", "tp(id)", "tp(...) needs a truncated polynomial ring, got Z4"),
        ("Z4", "prod(id,id)", "prod(...) needs a product ring, got Z4"),
        ("Z4", "swap", "swap needs a product of two copies of the same ring, got Z4"),
        ("M2(Z2)", "tr(tr(id))", "tr(...) needs a matrix ring, got Z2"),
    ],
)
def test_recipe_round_trip_and_shape_refusal(ring, inv, error):
    spec = parse_involution_spec(inv)
    assert involution_spec_string(spec) == inv
    assert parse_involution_spec(involution_spec_string(spec)) == spec
    with pytest.raises((ValidationError, SwapShapeMismatch)) as err:
        build_star_ring(ring, inv)
    assert str(err.value) == error


def test_build_star_ring_examples():
    S = build_star_ring("M2(Z3)", "tr(id)")
    assert S.ring.size == 81 and len(S.projections()) == 6
    S = build_star_ring("Z2xZ2", "swap")
    assert len(S.projections()) == 2
    S = build_star_ring("GR(Z4,C2)", "grp(id)")
    assert S.ring.size == 16
    S = build_star_ring("TP(Z2,3)", "tp(id)")
    assert S.ring.size == 8


def test_build_star_ring_validation():
    with pytest.raises(IdentityOnNoncommutative):
        build_star_ring("M2(Z2)", "id")
    with pytest.raises(ValidationError):
        build_star_ring("Z4", "tr(id)")
    with pytest.raises(SwapShapeMismatch):
        build_star_ring("Z4", "swap")
    with pytest.raises(SpecTooLarge):
        build_star_ring("Z9999", "id")


def test_quotient_involution_induced():
    # the ideal generated by 2*I2 inside the 2x2 ring over Z4 is transpose
    # invariant, so the recipe pushes through the surjection
    R = build_ring(parse_ring_spec("M2(Z4)"))
    two_eye = R.from_value([[2, 0], [0, 2]])
    S = build_star_ring(f"Q(M2(Z4),[{two_eye}])", "tr(id)")
    assert S.ring.size == 16
    assert S.involution.kind == "induced-quotient"


def test_quotient_involution_rejects_non_invariant():
    # inside Z2 x Z2 the ideal {(0,0),(1,0)} is not swap invariant
    R = build_ring(parse_ring_spec("Z2xZ2"))
    gen = R.from_value((1, 0))
    with pytest.raises(NotStarInvariant):
        build_star_ring(f"Q(Z2xZ2,[{gen}])", "swap")


def test_table_involution_from_file(tmp_path):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps([0, 1, 2, 3]))
    S = build_star_ring("Z4", f"table:{path}")
    assert S.involution.kind == "table"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 0, 2, 3]))
    from starclean.errors import AxiomViolation

    with pytest.raises(AxiomViolation):
        build_star_ring("Z4", f"table:{bad}")


# -- canonical round trip ----------------------------------------------------------

_base = st.sampled_from([Zmod(2), Zmod(3), Zmod(4), Zmod(5), Zmod(6)])
_group = st.one_of(
    st.sampled_from([Cyclic(2), Cyclic(3), Cyclic(4)]),
    st.builds(GroupProduct, st.sampled_from([Cyclic(2), Cyclic(3)]), st.just(Cyclic(2))),
)


def _extend(children):
    # keep products left-associative so trees match the grammar's canonical shape
    return st.one_of(
        st.builds(ProductSpec, children, _base),
        st.builds(MatrixSpec, st.just(2), _base),
        st.builds(GroupRingSpec, _base, _group),
        st.builds(TruncatedPolySpec, _base, st.integers(1, 3)),
    )


_spec = st.recursive(_base, _extend, max_leaves=3)


@given(_spec)
@settings(max_examples=120, deadline=None)
def test_spec_string_roundtrip(spec):
    assert parse_ring_spec(spec_string(spec)) == spec


def _rings_within(cap):
    """The rings of the random specs that have at most cap elements."""

    def build(spec):
        try:
            return build_ring(spec, cap)
        except SpecTooLarge:
            return None

    return _spec.map(build).filter(lambda R: R is not None)


@given(_rings_within(128).filter(lambda R: R.size > 1))
@settings(max_examples=25, deadline=None)
def test_random_specs_build_valid_rings(R):
    assert check_ring_axioms(R) == []
    assert R.directly_finite_witness() is None


@given(_rings_within(64))
@settings(max_examples=25, deadline=None)
def test_random_spec_tables_match_reference(R):
    spec = R.spec
    for a in R.elements():
        assert scalar_neg(R, a) == int(R.neg_table[a]), (spec, a)
        for b in R.elements():
            assert scalar_add(R, a, b) == int(R.add_table[a, b]), (spec, a, b)
            assert scalar_mul(R, a, b) == int(R.mul_table[a, b]), (spec, a, b)
