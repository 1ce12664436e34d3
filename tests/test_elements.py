import gc
import weakref

import numpy as np
import pytest
from ringref import commutant

import starclean.elements as elements
import starclean.rings as rings
from starclean.corpus import default_corpus, warmup
from starclean.elements import (
    CLEAN_MODES,
    PiStarCertificate,
    SpsrVerdict,
    clean_certificates,
    first_c1_witnesses,
    first_c2_witnesses,
    first_c3_witnesses,
    first_c4_witnesses,
    first_regular_witnesses,
    first_sasr_witnesses,
    first_spr_witnesses,
    first_ssr_witnesses,
    is_clean_elem,
    spsr_conditions,
    spsr_holds,
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
from starclean.properties import elem_unit_regular, ring_property
from starclean.rings import MatrixSpec, ProductSpec, Zmod, build_ring
from starclean.specparse import build_star_ring


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
        special = R.units_mask | R.nilpotent_mask | R.jacobson_mask
        for a in np.flatnonzero(special).tolist():
            assert is_clean_elem(S, a, "star-clean"), (S.label, R.render(a))


# -- the element layer against its loop reference -----------------------------
#
# The loops below are the per-candidate searches the mask-based deciders
# replaced, kept as the reference: every answer, including which witness
# comes first, must be the same on every element.


def ref_projections(S):
    return tuple(int(x) for x in np.flatnonzero(S.projection_mask))


def ref_clean(S, a, mode):
    R = S.ring
    needs_projection = mode in ("star-clean", "strongly-star-clean")
    needs_commuting = mode in ("strongly-clean", "strongly-star-clean")
    if needs_projection:
        pool = ref_projections(S)
    else:
        pool = tuple(int(x) for x in np.flatnonzero(R.idempotent_mask))
    out = []
    for e in pool:
        u = R.sub(a, e)
        if not R.units_mask[u]:
            continue
        if needs_commuting and R.mul(e, u) != R.mul(u, e):
            continue
        out.append((e, u))
    return out


def ref_ssr(S, a):
    R = S.ring
    for p in ref_projections(S):
        cand = np.flatnonzero(R.units_mask & (R.mul_table[p] == a) & (R.mul_table[:, p] == a))
        if cand.size:
            return p, int(cand[0])
    return None


def ref_spr(R, a):
    powers, nxt = R.distinct_powers(a)
    for n in range(1, len(powers) + 1):
        w = powers[n - 1]
        wnext = powers[n] if n < len(powers) else nxt
        right = np.flatnonzero(R.mul_table[wnext] == w)
        if right.size == 0:
            continue
        left = np.flatnonzero(R.mul_table[:, wnext] == w)
        if left.size == 0:
            continue
        return n, int(right[0]), int(left[0])
    return None


def ref_c1(S, a):
    R = S.ring
    comm = commutant(R, a)
    comm_mask = np.zeros(R.size, dtype=bool)
    comm_mask[comm] = True
    proj_comm = [p for p in ref_projections(S) if comm_mask[p]]
    unit_comm = np.flatnonzero(R.units_mask & comm_mask)
    if unit_comm.size == 0 or not proj_comm:
        return None
    powers, _ = R.distinct_powers(a)
    for m, w in enumerate(powers, start=1):
        for e in proj_comm:
            eu = R.mul_table[e, unit_comm]
            ue = R.mul_table[unit_comm, e]
            hits = np.flatnonzero((eu == w) & (ue == w))
            if hits.size:
                return {"m": m, "e": e, "u": int(unit_comm[hits[0]])}
    return None


def ref_c2(S, a):
    R = S.ring
    for f in ref_projections(S):
        v = R.sub(a, f)
        if not R.units_mask[v]:
            continue
        if R.mul(f, v) != R.mul(v, f):
            continue
        if R.is_nilpotent(R.mul(a, f)):
            return {"f": f, "v": v}
    return None


def ref_c3(S, a):
    R = S.ring
    for p in ref_projections(S):
        if R.mul(a, p) != R.mul(p, a):
            continue
        if not R.is_nilpotent(R.mul(a, R.one_minus(p))):
            continue
        ap = R.mul(a, p)
        corner_elems = np.unique(R.mul_table[R.mul_table[p, :], p])
        hits = np.flatnonzero(
            (R.mul_table[ap, corner_elems] == p) & (R.mul_table[corner_elems, ap] == p)
        )
        if hits.size:
            return {"p": p, "w": int(corner_elems[hits[0]])}
    return None


def ref_c4(S, a):
    R = S.ring
    cand = commutant(R, a)
    ab = R.mul_table[a, cand]
    cond_star = S.star_table[ab] == ab
    bab = R.mul_table[R.mul_table[cand, a], cand]
    asq_b = R.mul_table[R.mul(a, a), cand]
    cond_nil = R.nilpotent_mask[R.add_table[a, R.neg_table[asq_b]]]
    hits = np.flatnonzero(cond_star & (bab == cand) & cond_nil)
    return {"b": int(cand[hits[0]])} if hits.size else None


def ref_sasr(S, a):
    R = S.ring
    for t in np.flatnonzero(S.self_adjoint_mask).tolist():
        if R.mul(t, t) != R.one:
            continue
        u = R.sub(a, t)
        if R.units_mask[u]:
            return t, u
    return None


def ref_unit_regular(S, a):
    R = S.ring
    return any(R.mul(R.mul(a, u), a) == a for u in R.units())


def ref_regular(S, a):
    R = S.ring
    return next((b for b in R.elements() if R.mul(R.mul(a, b), a) == a), None)


def cert_record(cert):
    return None if cert is None else (cert.tag, cert.data)


def test_element_layer_matches_loop_reference():
    cases = default_corpus() + [
        build_star_ring("M2(Z4)", "tr(id)"),
        build_star_ring("GR(Z3,C6)", "grp(id)"),
        # the ring JAC-EQUIV runs C2 and ssr on, and a ring where |P| = n
        build_star_ring("M2(Z4)", "tr(id)").mod_jacobson()[0],
        build_star_ring("Z2xZ2xZ2", "id"),
    ]
    for S in cases:
        for a in S.ring.elements():
            where = (S.label, a)
            for mode in CLEAN_MODES:
                ref = ref_clean(S, a, mode)
                certs = clean_certificates(S, a, mode)
                assert [(c.part, c.unit) for c in certs] == ref, (where, mode)
                assert all(type(c.part) is int and type(c.unit) is int for c in certs)
                assert is_clean_elem(S, a, mode) == bool(ref), (where, mode)
            assert strongly_pi_regular_witness(S.ring, a) == ref_spr(S.ring, a), where
            assert strongly_star_regular_witness(S, a) == ref_ssr(S, a), where
            v = spsr_conditions(S, a)
            for tag, cert, ref in (
                ("C1", v.c1, ref_c1(S, a)),
                ("C2", v.c2, ref_c2(S, a)),
                ("C3", v.c3, ref_c3(S, a)),
                ("C4", v.c4, ref_c4(S, a)),
            ):
                expected = None if ref is None else (tag, ref)
                assert cert_record(cert) == expected, (where, tag)
            assert unit_sasr_decomposition(S, a) == ref_sasr(S, a), where
            assert elem_unit_regular(S, a) == ref_unit_regular(S, a), where


def test_clean_tables_over_many_pool_blocks_match_loop_reference(monkeypatch):
    # two candidate pairs per block: one pool row per block on M2(Z4), whose
    # rows hold 96 units, and two rows per block on Z2xZ2xZ2
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 2)
    built = []
    build = elements.clean_decomposition_table

    def counted(S, mode):
        table = build(S, mode)
        built.append((S.label, mode))
        return table

    monkeypatch.setattr(elements, "clean_decomposition_table", counted)
    cases = [build_star_ring("M2(Z4)", "tr(id)"), build_star_ring("Z2xZ2xZ2", "id")]
    for S in cases:
        for pool in (S.ring.idempotent_ids, S.projection_ids):
            assert len(rings._row_blocks(0, len(pool), len(S.ring.unit_ids))) >= 4, S.label
        for _ in range(2):
            for a in S.ring.elements():
                for mode in CLEAN_MODES:
                    ref = ref_clean(S, a, mode)
                    certs = clean_certificates(S, a, mode)
                    assert [(c.part, c.unit) for c in certs] == ref, (S.label, a, mode)
                    assert is_clean_elem(S, a, mode) == bool(ref), (S.label, a, mode)
        for bad in ("cleanly", "CLEAN", ""):
            with pytest.raises(ValueError):
                clean_certificates(S, 0, bad)
            with pytest.raises(ValueError):
                is_clean_elem(S, 0, bad)
    # each mode's table is built once, on first use
    assert sorted(built) == sorted((S.label, mode) for S in cases for mode in CLEAN_MODES)


def certificate_blocks(S):
    """The certificate blocks of each mode that S's store holds."""
    keys = elements._CLEAN_CERTIFICATES
    return {mode: S.arrays[keys[mode]] for mode in CLEAN_MODES if keys[mode] in S.arrays}


def test_certificate_blocks_match_loop_reference_and_are_shared(monkeypatch):
    def fresh():
        return build_star_ring("M2(Z4)", "tr(id)")

    n = fresh().ring.size
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 60 * n)  # blocks of 60, 60, 60, 60, 16 rows
    assert len(rings._row_blocks(0, n, n)) == 5

    S = fresh()
    for a in S.ring.elements():
        for mode in CLEAN_MODES:
            certs = clean_certificates(S, a, mode)
            assert [(c.part, c.unit) for c in certs] == ref_clean(S, a, mode), (a, mode)
            flags = (mode in ("star-clean", "strongly-star-clean"),
                     mode in ("strongly-clean", "strongly-star-clean"))
            assert all((c.subject, c.projection, c.commuting) == (a, *flags) for c in certs)
    assert all(blocks.filled.all() for blocks in certificate_blocks(S).values())

    # a lone query builds one block of its own mode, and no other mode's table
    S = fresh()
    clean_certificates(S, 130, "star-clean")
    blocks = certificate_blocks(S)
    assert list(blocks) == ["star-clean"]
    assert blocks["star-clean"].filled.tolist() == [False, False, True, False, False]
    assert [elements._CLEAN_TABLES[m] in S.arrays for m in CLEAN_MODES] == [False, False, True, False]

    # every call returns a fresh list of the same certificate objects
    for mode in CLEAN_MODES:
        first = clean_certificates(S, 21, mode)
        kept = list(first)
        first.append(first[0])
        first.reverse()
        second = clean_certificates(S, 21, mode)
        assert second == kept and second is not first, mode
        assert all(x is y for x, y in zip(second, clean_certificates(S, 21, mode))), mode

    # the ring-level deciders and is_clean_elem read the tables' offsets only
    S = fresh()
    for mode in CLEAN_MODES:
        ring_property(S, mode)
        is_clean_elem(S, 130, mode)
    assert certificate_blocks(S) == {}


def test_spsr_verdict_blocks_match_each_condition_and_are_shared(monkeypatch):
    def fresh():
        return build_star_ring("M2(Z4)", "tr(id)")

    def each_condition(S, a):
        """The verdict of the four loop references, one condition each."""
        refs = {"C1": ref_c1(S, a), "C2": ref_c2(S, a), "C3": ref_c3(S, a), "C4": ref_c4(S, a)}
        certs = (None if r is None else PiStarCertificate(a, tag, r) for tag, r in refs.items())
        return SpsrVerdict(a, *certs)

    n = fresh().ring.size
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 60 * n)  # blocks of 60, 60, 60, 60, 16 rows
    assert len(rings._row_blocks(0, n, n)) == 5

    S = fresh()
    want = [each_condition(S, a) for a in S.ring.elements()]
    verdicts = [spsr_conditions(S, a) for a in S.ring.elements()]
    assert S.arrays[elements._spsr_verdicts].filled.all()
    for a, v in enumerate(verdicts):
        assert v == want[a], a
        assert type(v.subject) is int and all(c.subject is v.subject for c in v[1:] if c), a
        assert spsr_conditions(S, a) is v, a
    held = [c for v in verdicts for c in v[1:] if c is not None]
    assert {c.tag for c in held} == {"C1", "C2", "C3", "C4"}

    # a certificate's data reads like a dict and cannot be written
    for cert in held:
        assert cert.data == dict(cert.data.items())
        with pytest.raises(TypeError):
            cert.data["m"] = 0
        with pytest.raises(AttributeError):
            cert.data.clear()
    assert verdicts == want

    # a lone query builds one verdict block, and only that block of C1, C3, C4
    S = fresh()
    spsr_conditions(S, 130)
    blocks = S.arrays[elements._spsr_verdicts]
    assert blocks.filled.tolist() == [False, False, True, False, False]
    assert [x is not None for x in blocks.lists] == blocks.filled.tolist()
    for key in (elements._c1_blocks, elements._c3_blocks, elements._c4_blocks):
        assert S.arrays[key].filled.tolist() == blocks.filled.tolist(), key.__name__

    # the ring-level decider and the block masks, of a block or of one element (as
    # the checker reads C1), build no verdict block
    S = fresh()
    ring_property(S, "strongly-pi-star-regular")
    for rows in rings._row_blocks(0, n, n):
        flags = np.stack([spsr_holds(S, rows, tag) for tag in ("C1", "C2", "C3", "C4")], axis=1)
        assert flags.tolist() == [list(v.flags) for v in verdicts[rows]]
    for a in (0, 21, 130, 255):
        assert spsr_holds(S, slice(a, a + 1), "C1").tolist() == [verdicts[a].flags[0]]
    assert elements._spsr_verdicts not in S.arrays


def elements_of(S):
    return np.arange(S.ring.size)


def swept(build, owner_of=lambda S: S):
    """A row-block builder run over every block of elements in turn."""
    def whole(S):
        n = S.ring.size
        return np.concatenate([build(owner_of(S), rows) for rows in rings._row_blocks(0, n, n)])
    return whole


# (builder, reference, the witness the array holds, pool, row length of a block);
# the whole-array builders block their pool, the row-block builders the elements
BUILDERS = (
    (first_ssr_witnesses, ref_ssr, list,
     lambda S: S.projection_ids, lambda S: len(S.ring.unit_ids)),
    (first_c2_witnesses, ref_c2, lambda r: [r["f"], r["v"]],
     lambda S: S.projection_ids, lambda S: len(S.ring.unit_ids)),
    (first_sasr_witnesses, ref_sasr, list,
     lambda S: S.sasr_unit_ids, lambda S: len(S.ring.unit_ids)),
    (swept(first_c1_witnesses), ref_c1, lambda r: [r["m"], r["e"], r["u"]],
     elements_of, lambda S: S.ring.size),
    (swept(first_c3_witnesses), ref_c3, lambda r: [r["p"], r["w"]],
     elements_of, lambda S: S.ring.size),
    (swept(first_c4_witnesses), ref_c4, lambda r: r["b"],
     elements_of, lambda S: S.ring.size),
    (swept(first_spr_witnesses, lambda S: S.ring), lambda S, a: ref_spr(S.ring, a), list,
     elements_of, lambda S: S.ring.size),
    (swept(first_regular_witnesses, lambda S: S.ring), ref_regular, lambda r: r,
     elements_of, lambda S: S.ring.size),
)


def test_blocked_witness_arrays_match_loop_reference(monkeypatch):
    for S in (m2(3), m2(4), build_star_ring("Z2xZ2xZ2", "id")):
        for build, ref, held, pool, row_len in BUILDERS:
            refs = [ref(S, a) for a in S.ring.elements()]
            size, row = len(pool(S)), row_len(S)
            for block in (1, 3):
                monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block * row)
                assert len(rings._row_blocks(0, size, row)) == -(-size // block)
                got = build(S).tolist()
                none = [-1] * len(got[0]) if isinstance(got[0], list) else -1
                want = [none if r is None else held(r) for r in refs]
                assert got == want, (S.label, ref.__name__, block)


def test_element_queries_do_no_ring_arithmetic(monkeypatch):
    def answers(S):
        out = []
        for a in S.ring.elements():
            v = spsr_conditions(S, a)
            out.append((
                [clean_certificates(S, a, mode) for mode in CLEAN_MODES],
                [is_clean_elem(S, a, mode) for mode in CLEAN_MODES],
                strongly_pi_regular_witness(S.ring, a),
                strongly_star_regular_witness(S, a),
                [cert_record(c) for c in (v.c1, v.c2, v.c3, v.c4)],
                unit_sasr_decomposition(S, a),
            ))
        return out

    def arithmetic(*args):
        raise AssertionError("an element query called scalar ring arithmetic")

    for S in (build_star_ring("M2(Z4)", "tr(id)"), build_star_ring("Z2xZ2xZ2", "id")):
        before = answers(S)  # builds every array
        for name in ("add", "mul", "sub", "neg", "one_minus"):
            monkeypatch.setattr(S.ring, name, arithmetic)
        assert answers(S) == before, S.label


# (module the owner looks the builder up in, builder name, owner of its array)
LAZY_BUILDERS = (
    (elements, "first_ssr_witnesses", lambda S: S),
    (elements, "first_c2_witnesses", lambda S: S),
    (elements, "first_sasr_witnesses", lambda S: S),
    (elements, "first_c1_witnesses", lambda S: S),
    (elements, "first_c3_witnesses", lambda S: S),
    (elements, "first_c4_witnesses", lambda S: S),
    (elements, "first_spr_witnesses", lambda S: S.ring),
    (elements, "spsr_verdict_block", lambda S: S),
)


def test_element_sweep_builds_each_array_once(monkeypatch):
    calls = {}

    def counted(name, build):
        def wrapper(owner, *rows):
            calls[name, id(owner)] = calls.get((name, id(owner)), 0) + 1
            return build(owner, *rows)
        return wrapper

    for module, name, _ in LAZY_BUILDERS:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cases = [m2(2), m2(3), ident(Zmod(8))]  # one row block each
    for _ in range(2):
        for S in cases:
            for a in S.ring.elements():
                spsr_conditions(S, a)
                strongly_pi_regular_witness(S.ring, a)
                strongly_star_regular_witness(S, a)
                unit_sasr_decomposition(S, a)
    want = {(name, id(owner(S))): 1 for _, name, owner in LAZY_BUILDERS for S in cases}
    assert calls == want


def test_element_queries_fill_only_their_own_row_block(monkeypatch):
    def arrays(S):
        return {
            "c1": S.arrays[elements._c1_blocks],
            "c3": S.arrays[elements._c3_blocks],
            "c4": S.arrays[elements._c4_blocks],
            "spr": S.ring.arrays[elements._spr_blocks],
        }

    def ask(S, a):
        spsr_conditions(S, a)
        strongly_pi_regular_witness(S.ring, a)

    whole = build_star_ring("M2(Z4)", "tr(id)")
    for a in whole.ring.elements():
        ask(whole, a)
    S = build_star_ring("M2(Z4)", "tr(id)")
    n = S.ring.size
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 60 * n)  # blocks of 60, 60, 60, 60, 16 rows
    ask(S, 130)
    for name, blocks in arrays(S).items():
        assert blocks.filled.tolist() == [False, False, True, False, False], name
        assert (blocks.values[:120] == -1).all() and (blocks.values[180:] == -1).all(), name
    for a in S.ring.elements():
        ask(S, a)
    for name, blocks in arrays(S).items():
        assert blocks.filled.all(), name
        assert len(arrays(whole)[name].blocks) == 1, name
        assert blocks.values.tolist() == arrays(whole)[name].values.tolist(), name


def test_star_ring_is_freed_without_the_cycle_collector():
    def every_array(S):
        for mode in CLEAN_MODES:
            clean_certificates(S, 1, mode)
        spsr_conditions(S, 1)
        strongly_pi_regular_witness(S.ring, 1)
        strongly_star_regular_witness(S, 1)
        unit_sasr_decomposition(S, 1)

    def and_warmup(S):
        every_array(S)
        warmup([S])
        assert S.mod_jacobson()[0] is S  # J = 0, so R/J(R) is S itself

    enabled = gc.isenabled()
    gc.disable()
    try:
        for step in (every_array, and_warmup):
            S = build_star_ring("M2(Z3)", "tr(id)")
            step(S)
            star_ring, ring = weakref.ref(S), weakref.ref(S.ring)
            del S
            assert star_ring() is None, step.__name__
            assert ring() is None, step.__name__
    finally:
        if enabled:
            gc.enable()
