"""The exact involution check on additive generators against the full scan.

``verify_involution`` decides on the additive generators of the ring and
scans every pair only to name a violation. Here it is compared with the
reference scan of ``ringref`` on altered star tables: the same tables must
be accepted, and a rejected one must raise the same axiom violation with the
same witness and message.
"""

import numpy as np
import pytest
from ringref import reference_verify_involution

import starclean.involutions as inv
import starclean.rings as rings
from starclean.corpus import default_corpus
from starclean.errors import AxiomViolation, IdentityOnNoncommutative
from starclean.involutions import corner_star_ring, verify_involution
from starclean.rings import CornerRing, QuotientRing
from starclean.specparse import build_star_ring

LADDER = (
    ("M2(Z4)", "tr(id)"),
    ("M3(Z2)", "tr(id)"),
    ("M2(Z5)", "tr(id)"),
    ("GR(Z3,C6)", "grp(id)"),
    ("TP(Z2,10)", "tp(id)"),
)


def _quotient_star_ring():
    Q, _ = build_star_ring("M2(Z4)", "tr(id)").mod_jacobson()
    assert isinstance(Q.ring, QuotientRing) and Q.ring.size == 16
    return Q


def _corner_star_ring():
    S = build_star_ring("M3(Z2)", "tr(id)")
    e = S.ring.from_value([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    C = corner_star_ring(S, e)
    assert isinstance(C.ring, CornerRing) and C.ring.size == 16
    return C


@pytest.fixture(scope="module")
def star_rings():
    return [
        *default_corpus(),
        build_star_ring("M2(Z4)", "tr(id)"),
        build_star_ring("Z2xZ2xZ2", "id"),
        _quotient_star_ring(),
        _corner_star_ring(),
    ]


def _outcome(check, *args):
    """(error type, axiom, witness, message) of what check raises, or None."""
    try:
        check(*args)
    except AxiomViolation as err:
        return err.axiom, err.witness, str(err)
    return None


def _altered_tables(S, rng):
    """Star tables that break the axioms in different ways, plus the star itself."""
    R, star = S.ring, S.star_table
    n, add, mul, neg = R.size, R.add_table, R.mul_table, R.neg_table
    tables = [star.copy(), np.arange(n), neg[star].astype(np.int64)]
    for _ in range(12):  # one random transposition each
        t = star.copy()
        i, j = rng.choice(n, size=2, replace=False)
        t[[i, j]] = t[[j, i]]
        tables.append(t)
    for _ in range(3):  # random permutations, of all ids and of those but 0 and 1
        tables.append(star[rng.permutation(n)])
        t = star.copy()
        rest = np.setdiff1d(np.arange(n), [R.zero, R.one])
        t[rest] = t[rng.permutation(rest)]
        tables.append(t)
    for u in rng.choice(R.unit_ids, size=min(3, R.unit_ids.size), replace=False):
        v = int(R.inverse_ids[u])
        tables.append(mul[u][mul[:, v][star]].astype(np.int64))  # x -> u x* u^-1
        tables.append(mul[u][star].astype(np.int64))  # x -> u x*
    return tables


def test_star_tables_get_the_reference_verdict_and_witness(star_rings):
    rng = np.random.default_rng(16)
    counts = {}
    for S in star_rings:
        for table in _altered_tables(S, rng):
            expected = _outcome(reference_verify_involution, S.ring, table)
            assert _outcome(verify_involution, S.ring, table) == expected, S.label
            axiom = None if expected is None else expected[0]
            counts[axiom] = counts.get(axiom, 0) + 1
    # every outcome is met, so each axiom's fallback is compared
    assert set(counts) == {None, "additivity", "anti-multiplicativity", "involutivity"}
    assert counts[None] >= len(star_rings)


def test_accepted_star_tables_skip_the_full_scan(monkeypatch, star_rings):
    def scan(R, axiom, bad_rows):
        raise AssertionError("full scan run on an involution")

    monkeypatch.setattr(inv, "_raise_first", scan)
    for S in [*star_rings, *(build_star_ring(r, i) for r, i in LADDER)]:
        verify_involution(S.ring, S.star_table)


def test_identity_refusal_scans_only_anti_multiplicativity(monkeypatch):
    # x* = x is additive, so the generator check passes additivity and only
    # anti-multiplicativity, which fails on G x G, is scanned on every pair
    R = build_star_ring("M2(Z4)", "tr(id)").ring
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 16 * R.size)
    assert len(rings._row_blocks(0, R.size, R.size)) == 16
    scanned = []
    raise_first = inv._raise_first

    def spy(R, axiom, *rest):
        scanned.append(axiom)
        return raise_first(R, axiom, *rest)

    monkeypatch.setattr(inv, "_raise_first", spy)
    with pytest.raises(IdentityOnNoncommutative) as err:
        inv.identity_involution(R)
    assert set(scanned) == {"anti-multiplicativity"}
    assert err.value.witness == R.first_noncentral(np.ones(R.size, dtype=bool))


def _span(R, gens):
    """The additive subgroup generated by gens, by closing under adding them."""
    mask = np.zeros(R.size, dtype=bool)
    mask[R.zero] = True
    while True:
        new = mask.copy()
        new[R.add_table[np.flatnonzero(mask)][:, list(gens)]] = True
        if (new == mask).all():
            return mask
        mask = new


def test_additive_generators_are_the_greedy_walk(star_rings):
    ladder = [build_star_ring(r, i) for r, i in LADDER]
    for S in [*star_rings, *ladder]:
        R = S.ring
        gens = [int(g) for g in R.additive_generators]
        assert len(gens) <= R.size.bit_length()
        for k, g in enumerate(gens):
            outside = np.flatnonzero(~_span(R, gens[:k]))
            assert g == outside[0], (S.label, k)
        assert _span(R, gens).all(), S.label


def test_additive_generators_are_built_once_per_ring(monkeypatch):
    walks = []
    prop = rings.FiniteRing.__dict__["additive_generators"]
    walk = prop.func

    def counting(R):
        walks.append(R)
        return walk(R)

    monkeypatch.setattr(prop, "func", counting)
    S = build_star_ring("M2(Z4)", "tr(id)")
    R = S.ring
    assert R.additive_generators is R.additive_generators
    verify_involution(R, S.star_table)
    # the base ring Z4 walks once for its own involution, M2(Z4) once
    assert [W for W in walks if W is R] == [R]
