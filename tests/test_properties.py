import itertools

import numpy as np
import pytest
from idealref import fixpoint_ideal_mask
from ringref import (
    reference_lifting_flags,
    reference_refutations,
    reference_stable_range_witness,
    reference_stable_success,
)

import starclean.elements as elements
import starclean.properties as properties
import starclean.rings as rings
from starclean.corpus import default_corpus
from starclean.elements import is_clean_elem
from starclean.errors import IdentityOnNoncommutative, UnknownProperty
from starclean.involutions import (
    StarRing,
    identity_involution,
    swap_involution,
    transpose_involution,
)
from starclean.properties import (
    _ELEMENT_TESTS,
    PROPERTIES,
    STABLE_RANGE_PROPERTIES,
    Verdict,
    Witness,
    _elem_witness,
    _forall_elements,
    check_stable_range_pair,
    check_witness,
    elem_star_regular,
    lifting_checks,
    psr_onesided_equiv,
    ring_property,
)
from starclean.rings import MatrixSpec, ProductSpec, Zmod, build_ring, generated_ideal
from starclean.specparse import build_star_ring
from starclean.suites import _ring_equiv_c3


def ident(spec):
    R = build_ring(spec)
    return StarRing(R, identity_involution(R))


def m2(n):
    R = build_ring(MatrixSpec(2, Zmod(n)))
    return StarRing(R, transpose_involution(R, identity_involution(R.base)))


def swap_ring():
    R = build_ring(ProductSpec(Zmod(2), Zmod(2)))
    return StarRing(R, swap_involution(R))


def test_swap_ring_clean_but_not_star_clean():
    S = swap_ring()
    assert ring_property(S, "clean").value is True
    verdict = ring_property(S, "star-clean")
    assert verdict.value is False
    assert verdict.witness is not None
    assert check_witness(S, "star-clean", verdict.witness)


def test_m2z3_not_strongly_star_clean():
    S = m2(3)
    verdict = ring_property(S, "strongly-star-clean")
    assert verdict.value is False
    assert check_witness(S, "strongly-star-clean", verdict.witness)


def test_m2z2_unit_regular_and_regular():
    S = m2(2)
    assert ring_property(S, "unit-regular").value is True
    assert ring_property(S, "regular").value is True
    assert ring_property(S, "pi-regular").value is True
    assert ring_property(S, "strongly-regular").value is False


def test_star_regular_matrix_rings():
    # every principal right ideal of the 2x2 ring over Z3 is generated by a
    # symmetric idempotent; over Z2 the column space spanned by (1,1) is not
    assert ring_property(m2(3), "star-regular").value is True
    verdict = ring_property(m2(2), "star-regular")
    assert verdict.value is False
    assert check_witness(m2(2), "star-regular", verdict.witness)


def test_star_regular_rings_have_star_clean_idempotents():
    S = m2(3)
    assert ring_property(S, "star-regular").value
    for e in S.ring.idempotent_ids.tolist():
        assert is_clean_elem(S, e, "star-clean")


def test_boolean_and_local_verdicts():
    assert ring_property(swap_ring(), "boolean").value is True
    assert ring_property(ident(Zmod(4)), "boolean").value is False
    assert ring_property(ident(Zmod(4)), "local").value is True
    z6_local = ring_property(ident(Zmod(6)), "local")
    assert z6_local.value is False and z6_local.witness is not None
    assert ring_property(m2(2), "local").value is False


def test_j_nil_and_directly_finite_hold():
    for S in (ident(Zmod(8)), m2(2), m2(3), swap_ring()):
        assert ring_property(S, "J-nil").value is True
        assert ring_property(S, "directly-finite").value is True


def test_spsr_ring_level():
    assert ring_property(ident(Zmod(4)), "strongly-pi-star-regular").value is True
    verdict = ring_property(m2(2), "strongly-pi-star-regular")
    assert verdict.value is False
    assert check_witness(m2(2), "strongly-pi-star-regular", verdict.witness)


def test_stable_range_m2z2():
    S = m2(2)
    assert ring_property(S, "sr1").value is True
    assert ring_property(S, "isr1").value is True
    assert ring_property(S, "psr1").value is False
    a, b = ring_property(S, "psr1").witness.ids
    assert check_stable_range_pair(S, "psr1", a, b)
    # the canonical counterexample pair is accepted among valid witnesses
    R = S.ring
    e11 = R.from_value([[1, 0], [0, 0]])
    e21 = R.from_value([[0, 0], [1, 0]])
    assert check_stable_range_pair(S, "psr1", e11, e21)


def test_stable_range_m2z3_and_local():
    assert ring_property(m2(3), "psr1").value is True
    assert ring_property(ident(Zmod(4)), "psr1").value is True


def test_stable_range_swap_ring():
    S = swap_ring()
    assert ring_property(S, "isr1").value is True
    assert ring_property(S, "psr1").value is False


def test_implication_chain_psr_isr_sr():
    for S in (m2(2), m2(3), ident(Zmod(6)), swap_ring(), ident(Zmod(16))):
        if ring_property(S, "psr1").value:
            assert ring_property(S, "isr1").value
        if ring_property(S, "isr1").value:
            assert ring_property(S, "sr1").value


def _reference_comaximal(R):
    """aR + bR = R, pair by pair: some u in aR has 1 - u in bR."""
    masks = R.right_ideal_masks
    flipped = masks[:, R.one_minus_table]  # row b marks {u : 1 - u in bR}
    return np.array(
        [[(masks[a] & flipped[b]).any() for b in R.elements()] for a in R.elements()]
    )


def _reference_success(R, pool):
    """a + b*y is a unit for some y in the pool, pair by pair."""
    out = np.zeros((R.size, R.size), dtype=bool)
    for b in R.elements():
        products = R.mul_table[b, pool]
        for a in R.elements():
            out[a, b] = R.units_mask[R.add_table[a, products]].any()
    return out


def _pairwise_witness(comax, success):
    """The row-major first pair (a, b) with comax[a, b] and not success[a, b]."""
    violations = np.argwhere(comax & ~success)
    return None if violations.size == 0 else tuple(violations[0].tolist())


def _witness_ids(verdict):
    return None if verdict.value else verdict.witness.ids


def test_stable_range_matches_pairwise_reference():
    pools = {
        "sr1": lambda S: np.arange(S.ring.size),
        "isr1": lambda S: np.flatnonzero(S.ring.idempotent_mask),
        "psr1": lambda S: np.flatnonzero(S.projection_mask),
    }
    for S in default_corpus() + [m2(4)]:
        R = S.ring
        comax = _reference_comaximal(R)
        cls, _ = R.principal_right_ideal_classes
        assert (R.comaximal_classes[cls][:, cls] == comax).all(), S.label
        assert (R.comaximal_classes == R.comaximal_classes.T).all(), S.label
        assert "comaximal_pairs" not in vars(R), S.label
        for prop, pool in pools.items():
            success = _reference_success(R, pool(S))
            got = reference_stable_success(S, pool(S), R.units_mask)
            assert (got == success).all(), (S.label, prop)
            want = _pairwise_witness(comax, success)
            assert _witness_ids(ring_property(S, prop)) == want, (S.label, prop)


def test_blocked_stable_success_matches_pairwise_reference(monkeypatch):
    # the decider and the class matrix in blocks of 1 and 3 rows
    for S in (m2(2), m2(3), m2(4)):
        R = S.ring
        comax = _reference_comaximal(R)
        cls, _ = R.principal_right_ideal_classes
        pools = (np.arange(R.size), R.idempotent_ids, S.projection_ids)
        want = [_pairwise_witness(comax, _reference_success(R, pool)) for pool in pools]
        for rows in (1, 3):
            monkeypatch.setattr(rings, "_BLOCK_ENTRIES", rows * R.size)
            assert len(rings._row_blocks(0, R.size, R.size)) == -(-R.size // rows)
            vars(R).pop("comaximal_classes", None)
            assert (R.comaximal_classes[cls][:, cls] == comax).all(), (S.label, rows)
            for pool, w in zip(pools, want):
                got = properties._stable_range_verdict(S, pool, R.units_mask)
                assert _witness_ids(got) == w, (S.label, rows, len(pool))


def _stable_range_cases(S):
    """(pool, ok mask) pairs: the three flavors over the units, PSR-ONESIDED's
    right- and left-invertible masks, and a seeded mask of no meaning, which
    leaves rows in ok_mask and outside it in every ring."""
    R = S.ring
    n = R.size
    full, idem, proj = np.arange(n), R.idempotent_ids, S.projection_ids
    rinv = R.right_inverse_ids >= 0
    linv = (R.mul_table == R.one).any(axis=0)
    noise = np.random.default_rng(n).random(n) < 0.5
    return [(full, R.units_mask), (idem, R.units_mask), (proj, R.units_mask),
            (proj, rinv), (proj, linv), (full, noise), (idem, noise), (proj, noise)]


def test_stable_range_verdicts_match_the_whole_array_reference(monkeypatch):
    extra = (("Z4xZ4", "swap"), ("M2(Z2)xM2(Z2)", "prod(tr(id),tr(id))"))
    stars = default_corpus() + [build_star_ring(r, i) for r, i in _LADDER + extra]
    want = {
        S.label: [reference_stable_range_witness(S, pool, ok) for pool, ok in _stable_range_cases(S)]
        for S in stars
    }
    assert sum(w is not None for ws in want.values() for w in ws) >= 40
    for rows in (None, 1, 3):
        for S in stars:
            R = S.ring
            vars(R).pop("comaximal_classes", None)
            if rows is not None:
                monkeypatch.setattr(rings, "_BLOCK_ENTRIES", rows * R.size)
            for case, (pool, ok) in enumerate(_stable_range_cases(S)):
                got = properties._stable_range_verdict(S, pool, ok)
                assert _witness_ids(got) == want[S.label][case], (S.label, rows, case)
                if not got.value:
                    a, b = got.witness.ids
                    assert not ok[a] and R.comaximal_pairs[a, b], (S.label, rows, case)


def test_psr_onesided(monkeypatch):
    flags = dict(two_sided=False, right=False, left=False, collapse_ok=True)
    assert psr_onesided_equiv(m2(2)) == flags
    flags = dict(two_sided=True, right=True, left=True, collapse_ok=True)
    assert psr_onesided_equiv(m2(3)) == flags
    assert psr_onesided_equiv(ident(Zmod(4))) == flags
    # the left-invertible scan over many row blocks, three rows each
    S = m2(3)
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 3 * S.ring.size)
    assert psr_onesided_equiv(S) == flags


def test_lifting_z4():
    assert lifting_checks(ident(Zmod(4))) == {
        "idempotents_lift_to_central_projections": True,
        "projections_lift": True,
        "projections_central": True,
    }


def test_lifting_m2z2_projections_not_central():
    assert lifting_checks(m2(2))["projections_central"] is False


def test_lifting_swap_ring():
    assert lifting_checks(swap_ring()) == {
        "idempotents_lift_to_central_projections": False,
        "projections_lift": True,
        "projections_central": True,
    }


def test_psr_onesided_reads_the_cached_two_sided_verdict(monkeypatch):
    S = m2(2)
    ring_property(S, "psr1")
    masks = []
    real = properties._stable_range_verdict

    def counted(S, pool, ok_mask):
        masks.append(ok_mask)
        return real(S, pool, ok_mask)

    monkeypatch.setattr(properties, "_stable_range_verdict", counted)
    flags = psr_onesided_equiv(S)
    # the right- and left-invertible sides; the two-sided one is psr1's verdict
    assert len(masks) == 2
    assert flags["two_sided"] is False
    assert all(mask is not S.ring.units_mask for mask in masks)


def test_lifting_flags_match_the_coset_loop(reference_rings):
    seen = set()
    for S in reference_rings:
        flags = lifting_checks(S)
        assert flags == reference_lifting_flags(S), S.label
        seen |= set(flags.items())
    assert len(seen) == 5  # every flag holds somewhere, and all but projections_lift fail


def test_properties_keep_their_names_and_order():
    assert PROPERTIES == (
        "clean", "strongly-clean", "star-clean", "strongly-star-clean", "exchange",
        "pi-regular", "strongly-pi-regular", "strongly-pi-star-regular", "regular",
        "strongly-regular", "unit-regular", "star-regular", "strongly-star-regular",
        "boolean", "local", "abelian", "star-abelian", "idempotents-are-projections",
        "J-nil", "directly-finite", "sr1", "isr1", "psr1",
    )
    assert PROPERTIES[-3:] == STABLE_RANGE_PROPERTIES


_PAIR_PROPERTIES = ("abelian", "star-abelian", "directly-finite", *STABLE_RANGE_PROPERTIES)


def test_checkers_reject_the_witnesses_that_do_not_refute():
    rejected = set()
    for S in default_corpus():
        R = S.ring
        n = R.size
        if n > 16:
            continue
        refutes = reference_refutations(S)
        for prop in PROPERTIES:
            if prop in _ELEMENT_TESTS:
                holds = _ELEMENT_TESTS[prop][0]
                fails = ~np.concatenate([holds(S, rows) for rows in rings._row_blocks(0, n, n)])
                cases = [((a,), bool(fails[a])) for a in range(n)]
            else:
                arity = 2 if prop in _PAIR_PROPERTIES else 1
                cases = [(ids, refutes[prop](*ids))
                         for ids in itertools.product(range(n), repeat=arity)]
            for ids, want in cases:
                witness = Witness("pair" if len(ids) == 2 else "element", ids, "")
                assert check_witness(S, prop, witness) == want, (S.label, prop, ids)
                if not want:
                    rejected.add(prop)
    assert rejected == set(PROPERTIES)


def test_all_false_verdicts_revalidate():
    for S in (m2(2), m2(3), swap_ring(), ident(Zmod(6))):
        for prop in PROPERTIES:
            verdict = ring_property(S, prop)
            if not verdict.value:
                assert verdict.witness is not None, (S.label, prop)
                assert check_witness(S, prop, verdict.witness), (S.label, prop)


def test_unknown_property():
    S = ident(Zmod(4))
    with pytest.raises(UnknownProperty) as decided:
        ring_property(S, "frobnicated")
    with pytest.raises(UnknownProperty) as checked:
        check_witness(S, "frobnicated", Witness("element", (0,), "0"))
    assert str(checked.value) == str(decided.value)
    assert str(decided.value).startswith("unknown property 'frobnicated'; known: clean, ")


# -- centrality, aR = pR and J(R) against the row-by-row loops they replaced ------


def _loop_first_noncentral(R, ids):
    """First (a, b) with ab != ba, a walking ids and b all of R in id order."""
    for a in ids:
        bad = np.flatnonzero(R.mul_table[a] != R.mul_table[:, a])
        if bad.size:
            return a, int(bad[0])
    return None


def _loop_star_regular(S, a):
    R = S.ring
    return any((R.right_ideal(p) == R.right_ideal(a)).all() for p in S.projections())


def _loop_ring_equiv_c3(S):
    R = S.ring
    for a in R.elements():
        powers, _ = R.distinct_powers(a)
        if not any(_loop_star_regular(S, w) for w in powers):
            return False
    return ring_property(S, "abelian").value


_LADDER = (("M2(Z4)", "tr(id)"), ("M3(Z2)", "tr(id)"), ("M2(Z5)", "tr(id)"),
           ("GR(Z3,C6)", "grp(id)"), ("TP(Z2,10)", "tp(id)"))


@pytest.fixture(scope="module")
def reference_rings():
    ladder = [build_star_ring(ring, inv) for ring, inv in _LADDER]
    return default_corpus() + [build_star_ring("x".join(["Z2"] * 8), "id")] + ladder


def test_centrality_witnesses_match_the_row_loops(reference_rings):
    noncommutative = 0
    for S in reference_rings:
        R = S.ring
        for prop, ids in (("abelian", R.idempotent_ids.tolist()), ("star-abelian", S.projections())):
            verdict = ring_property(S, prop)
            want = _loop_first_noncentral(R, ids)
            assert (None if verdict.value else verdict.witness.ids) == want, (S.label, prop)
        want = _loop_first_noncentral(R, R.elements())
        if want is None:
            assert identity_involution(R).kind == "identity"
            continue
        noncommutative += 1
        with pytest.raises(IdentityOnNoncommutative) as err:
            identity_involution(R)
        assert err.value.witness == want, S.label
    assert noncommutative >= 5


def test_star_regular_and_c3_match_the_row_compares(reference_rings):
    for S in reference_rings:
        for a in S.ring.elements():
            assert elem_star_regular(S, a) == _loop_star_regular(S, a), (S.label, a)
        assert _ring_equiv_c3(S) == _loop_ring_equiv_c3(S), S.label


def test_j_nil_reads_the_radical(reference_rings):
    for S in reference_rings:
        R = S.ring
        J = R.jacobson_radical()
        J.validate()
        assert J.mask is R.jacobson_mask
        bad = [a for a in J.elements() if not R.nilpotent_mask[a]]
        assert ring_property(S, "J-nil").value == (not bad), S.label


# -- element properties against the one-element-at-a-time scan they replaced -----


def _loop_forall_elements(S, pred):
    for a in S.ring.elements():
        if not pred(S, a):
            return Verdict(False, _elem_witness(S, a))
    return Verdict(True)


def test_block_kernels_match_the_element_predicates(reference_rings):
    for S in reference_rings:
        n = S.ring.size
        for prop, (holds, pred) in _ELEMENT_TESTS.items():
            got = np.concatenate([holds(S, rows) for rows in rings._row_blocks(0, n, n)])
            assert got.dtype == bool and got.shape == (n,), (S.label, prop)
            assert got.tolist() == [bool(pred(S, a)) for a in S.ring.elements()], (S.label, prop)


def test_element_verdicts_match_the_element_loop(reference_rings):
    failed = 0
    for S in reference_rings:
        for prop, (_, pred) in _ELEMENT_TESTS.items():
            verdict = ring_property(S, prop)
            assert verdict == _loop_forall_elements(S, pred), (S.label, prop)
            failed += not verdict.value
    assert failed >= 50


def test_first_failure_in_a_later_block_stops_the_scan(monkeypatch):
    rows = 2  # the first failures on these rings are at ids 1 to 9
    later = set()
    for ring, inv in _LADDER[:2] + (("M2(Z2)", "tr(id)"), ("Z2xZ4", "id")):
        S = build_star_ring(ring, inv)
        n = S.ring.size
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", rows * n)
        assert len(rings._row_blocks(0, n, n)) == -(-n // rows)
        for prop, (holds, pred) in _ELEMENT_TESTS.items():
            asked = []

            def counted(S, block, holds=holds):
                asked.append(block.start)
                return holds(S, block)

            verdict = _forall_elements(S, counted)
            assert verdict == _loop_forall_elements(S, pred), (S.label, prop)
            last = n - 1 if verdict.value else verdict.witness.ids[0]
            # every block up to the one of the first failure, and no other
            assert asked == list(range(0, last // rows * rows + 1, rows)), (S.label, prop)
            if last // rows:
                later.add(prop)
        regular = S.ring.arrays[elements._regular_blocks]
        assert len(regular.blocks) == -(-n // rows), S.label
    assert {"regular", "unit-regular", "strongly-regular", "star-regular", "boolean",
            "strongly-star-regular", "strongly-star-clean", "strongly-pi-star-regular"} <= later


def test_regular_fills_only_the_blocks_before_its_first_failure(monkeypatch):
    S = build_star_ring("M2(Z4)", "tr(id)")
    n = S.ring.size
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", n)  # one element per block
    verdict = ring_property(S, "regular")
    a = verdict.witness.ids[0]
    assert a > 0 and not verdict.value
    filled = S.ring.arrays[elements._regular_blocks].filled
    assert np.flatnonzero(filled).tolist() == list(range(a + 1))


def test_generated_ideal_of_a_unit_is_the_closure(reference_rings):
    for S in reference_rings[:20]:
        R = S.ring
        units = R.unit_ids[:3].tolist()
        nonunit = int(np.flatnonzero(~R.units_mask)[-1])
        for gens in [[u] for u in units] + [[nonunit, units[-1]]]:
            ideal = generated_ideal(R, gens)
            assert ideal.mask.all(), (S.label, gens)
            assert (ideal.mask == fixpoint_ideal_mask(R, gens)).all(), (S.label, gens)
