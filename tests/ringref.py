"""Test-only reference for ring arithmetic, one pair of elements at a time.

The package computes with its Cayley tables only. These functions state each
construction's add, mul and neg structurally, on top of the tables of the
rings it is made from, so the tests can check every table entry against
them. A digit ring's product is written out from its definition: the matrix
product, the convolution over the group, and the truncated polynomial
product, summed over every pair of digits; the package instead multiplies
single-digit elements through the basis table ``_target``. The digit
involutions are likewise written from their definitions, one element at a
time: transpose the matrix and star each entry, move the coefficient of g to
g^-1, star each coefficient. ``commutant`` serves the per-element search
loops that the element kernels are checked against, and
``check_ring_axioms`` checks every ring axiom on every triple of elements.
``reference_verify_involution`` checks an involution's axioms on every
pair, raising what the package's exact check must raise.
``reference_inverse_ids`` finds each element's two-sided inverses row by
row, and ``reference_directly_finite_witness`` scans every pair with ab = 1,
where the package reads both from one scan for least right inverses.
``reference_refutations`` decides, from the definitions, whether a
witness refutes a set-shaped or stable-range property, and
``reference_lifting_flags`` checks the lifting along R -> R/J(R) one coset
at a time, where the package scatters the surjection once per flag.
``REFERENCE_SUITES`` and the ``reference_*`` suite sides loop over the
elements one at a time, asking each element's verdict, witness or right
ideal, or multiplying pairs of elements, where the package reads a mask of
the same array, or gathers from the tables, for a block of elements.
"""

import numpy as np

from starclean import suites
from starclean.elements import first_c2_witnesses, spsr_conditions, unit_sasr_decomposition
from starclean.errors import AxiomViolation
from starclean.properties import lifting_checks, ring_property
from starclean.rings import (
    CornerRing,
    GroupRing,
    MatrixRing,
    ProductRing,
    QuotientRing,
    TruncatedPolyRing,
    ZmodRing,
    _DigitRing,
)


def scalar_add(R, a, b):
    if isinstance(R, ZmodRing):
        return (a + b) % R.size
    if isinstance(R, ProductRing):
        (al, ar), (bl, br) = R.split(a), R.split(b)
        return R.join(R.left.add(al, bl), R.right.add(ar, br))
    if isinstance(R, _DigitRing):
        da, db = R.digits_of(a), R.digits_of(b)
        return R.encode([R.base.add(x, y) for x, y in zip(da, db)])
    if isinstance(R, QuotientRing):
        return int(R.surjection[R.base.add(int(R.reps[a]), int(R.reps[b]))])
    if isinstance(R, CornerRing):
        return R.position(R.parent.add(R.embed(a), R.embed(b)))
    raise TypeError(f"no reference arithmetic for {R!r}")


def scalar_mul(R, a, b):
    if isinstance(R, ZmodRing):
        return (a * b) % R.size
    if isinstance(R, ProductRing):
        (al, ar), (bl, br) = R.split(a), R.split(b)
        return R.join(R.left.mul(al, bl), R.right.mul(ar, br))
    if isinstance(R, _DigitRing):
        return R.encode(_digit_product(R, R.digits_of(a), R.digits_of(b)))
    if isinstance(R, QuotientRing):
        return int(R.surjection[R.base.mul(int(R.reps[a]), int(R.reps[b]))])
    if isinstance(R, CornerRing):
        return R.position(R.parent.mul(R.embed(a), R.embed(b)))
    raise TypeError(f"no reference arithmetic for {R!r}")


def _digit_product(R, da, db):
    """Digits of the product of the digit vectors da and db, c before d."""
    B, w = R.base, R.width
    out = [B.zero] * w
    for p in range(w):
        if da[p] == B.zero:
            continue
        for q in range(w):
            if isinstance(R, MatrixRing):  # entry (i, j) times entry (j, l)
                (i, j), (j2, l) = divmod(p, R.k), divmod(q, R.k)
                t = i * R.k + l if j == j2 else None
            elif isinstance(R, GroupRing):
                t = int(R.group.mul_table[p, q])
            elif isinstance(R, TruncatedPolyRing):
                t = p + q if p + q < w else None
            else:
                raise TypeError(f"no reference product for {R!r}")
            if t is not None:
                out[t] = B.add(out[t], B.mul(da[p], db[q]))
    return out


def reference_digit_involution(R, base_star, a):
    """a* for a digit ring R whose base has the star table base_star."""
    d = R.digits_of(a)
    if isinstance(R, MatrixRing):
        k = R.k
        moved = [d[j * k + i] for i in range(k) for j in range(k)]
    elif isinstance(R, GroupRing):
        moved = [0] * R.width
        for g in range(R.width):
            moved[int(R.group.inv_table[g])] = d[g]
    elif isinstance(R, TruncatedPolyRing):
        moved = d
    else:
        raise TypeError(f"no reference involution for {R!r}")
    return R.encode([int(base_star[c]) for c in moved])


def scalar_neg(R, a):
    if isinstance(R, ZmodRing):
        return (-a) % R.size
    if isinstance(R, ProductRing):
        al, ar = R.split(a)
        return R.join(R.left.neg(al), R.right.neg(ar))
    if isinstance(R, _DigitRing):
        return R.encode([R.base.neg(x) for x in R.digits_of(a)])
    if isinstance(R, QuotientRing):
        return int(R.surjection[R.base.neg(int(R.reps[a]))])
    if isinstance(R, CornerRing):
        return R.position(R.parent.neg(R.embed(a)))
    raise TypeError(f"no reference arithmetic for {R!r}")


def commutant(R, a):
    """Element ids commuting with a."""
    return np.flatnonzero(R.mul_table[a] == R.mul_table[:, a])


def check_ring_axioms(R) -> list[tuple[str, tuple[int, ...]]]:
    """The first violation of each ring axiom, as (axiom, witness ids), over
    every pair and triple of elements; empty means every axiom holds."""
    n = R.size
    violations: list[tuple[str, tuple[int, ...]]] = []
    add, mul, neg = R.add_table, R.mul_table, R.neg_table
    idx = np.arange(n)
    if not (add == add.T).all():
        a, b = np.argwhere(add != add.T)[0]
        violations.append(("add-commutative", (int(a), int(b))))
    if not (add[R.zero] == idx).all():
        violations.append(("zero-identity", (int(np.flatnonzero(add[R.zero] != idx)[0]),)))
    if not (add[idx, neg] == R.zero).all():
        violations.append(("neg-inverse", (int(np.flatnonzero(add[idx, neg] != R.zero)[0]),)))
    if not ((mul[R.one] == idx).all() and (mul[:, R.one] == idx).all()):
        violations.append(("one-identity", (0,)))
    for a in range(n):
        lhs = add[add[a][:, None], idx[None, :]]
        rhs = np.take(add[a], add)
        if not (lhs == rhs).all():
            b, c = np.argwhere(lhs != rhs)[0]
            violations.append(("add-associative", (a, int(b), int(c))))
            break
    for a in range(n):
        lhs = mul[mul[a][:, None], idx[None, :]]
        rhs = np.take(mul[a], mul)
        if not (lhs == rhs).all():
            b, c = np.argwhere(lhs != rhs)[0]
            violations.append(("mul-associative", (a, int(b), int(c))))
            break
    for a in range(n):
        lhs = np.take(mul[a], add)
        rhs = add[np.ix_(mul[a], mul[a])]
        if not (lhs == rhs).all():
            b, c = np.argwhere(lhs != rhs)[0]
            violations.append(("left-distributive", (a, int(b), int(c))))
            break
    for a in range(n):
        lhs = np.take(mul[:, a], add)
        rhs = add[np.ix_(mul[:, a], mul[:, a])]
        if not (lhs == rhs).all():
            b, c = np.argwhere(lhs != rhs)[0]
            violations.append(("right-distributive", (int(b), int(c), a)))
            break
    return violations


def reference_verify_involution(R, star) -> None:
    """Raise AxiomViolation unless star is an involution on R, checking every
    pair at once; the witness is the row-major first violation of the first
    axiom that fails, in the order bijectivity, additivity,
    anti-multiplicativity, involutivity."""
    n = R.size
    star = np.asarray(star)
    if star.shape != (n,) or not (np.sort(star) == np.arange(n)).all():
        raise AxiomViolation("bijectivity", (), "star is not a permutation of the elements")
    add, mul = R.add_table, R.mul_table
    for axiom, bad in (
        ("additivity", star[add] != add[np.ix_(star, star)]),
        ("anti-multiplicativity", star[mul] != mul[np.ix_(star, star)].T),
    ):
        if bad.any():
            x, y = (int(i) for i in np.argwhere(bad)[0])
            raise AxiomViolation(axiom, (x, y), f"x={R.render(x)}, y={R.render(y)}")
    if not (star[star] == np.arange(n)).all():
        x = int(np.flatnonzero(star[star] != np.arange(n))[0])
        raise AxiomViolation("involutivity", (x,), f"x={R.render(x)}")


def reference_inverse_ids(R) -> np.ndarray:
    """Per a, the least b with ab = 1 = ba, or -1, one row of mul at a time."""
    mul, one = R.mul_table, R.one
    out = np.full(R.size, -1, dtype=np.int64)
    for a in range(R.size):
        right = np.flatnonzero(mul[a] == one)
        two_sided = right[mul[right, a] == one]
        if two_sided.size:
            out[a] = two_sided[0]
    return out


def reference_directly_finite_witness(R) -> tuple[int, int] | None:
    """The row-major first (a, b) with ab = 1 but ba != 1, or None, from
    every pair with ab = 1 at once."""
    pos = np.argwhere(R.mul_table == R.one)
    bad = R.mul_table[pos[:, 1], pos[:, 0]] != R.one
    if bad.any():
        a, b = pos[np.flatnonzero(bad)[0]]
        return int(a), int(b)
    return None


def reference_refutations(S) -> dict:
    """Per set-shaped and stable-range property, whether a witness's ids
    refute it, from the definitions and the add, mul and star tables alone."""
    R = S.ring
    add, mul, star, one = R.add_table, R.mul_table, S.star_table, R.one
    ids = range(R.size)
    unit = [bool(((mul[a] == one) & (mul[:, a] == one)).any()) for a in ids]
    idempotent = [mul[a, a] == a for a in ids]
    projection = [idempotent[a] and star[a] == a for a in ids]
    one_minus = [int(np.flatnonzero(add[a] == one)[0]) for a in ids]

    def nilpotent(a):
        power = a
        for _ in ids:
            power = mul[power, a]
        return power == R.zero

    def in_radical(a):  # 1 - ra is a unit for every r
        return all(unit[one_minus[mul[r, a]]] for r in ids)

    def no_stable_y(pool):
        def refutes(a, b):  # aR + bR = R, and a + by is a unit for no y of the pool
            comaximal = (add[np.ix_(mul[a], mul[b])] == one).any()
            return bool(comaximal) and not any(unit[add[a, mul[b, y]]] for y in pool)
        return refutes

    return {
        "abelian": lambda e, x: idempotent[e] and mul[e, x] != mul[x, e],
        "star-abelian": lambda p, x: projection[p] and mul[p, x] != mul[x, p],
        "idempotents-are-projections": lambda e: idempotent[e] and star[e] != e,
        "J-nil": lambda a: in_radical(a) and not nilpotent(a),
        "directly-finite": lambda a, b: mul[a, b] == one and mul[b, a] != one,
        "sr1": no_stable_y(list(ids)),
        "isr1": no_stable_y([y for y in ids if idempotent[y]]),
        "psr1": no_stable_y([y for y in ids if projection[y]]),
    }


def reference_lifting_flags(S) -> dict[str, bool]:
    """The flags of ``lifting_checks``, one coset of J(R) at a time: a target
    of R/J(R) lifts when its fiber under the surjection holds an element of
    the mask."""
    QS, pi = S.mod_jacobson()
    R = S.ring

    def every_coset_meets(targets, mask):
        for t in targets:
            if not mask[np.flatnonzero(pi == t)].any():
                return False
        return True

    return {
        "idempotents_lift_to_central_projections": every_coset_meets(
            QS.ring.idempotent_ids.tolist(), S.projection_mask & R.center_mask
        ),
        "projections_lift": every_coset_meets(QS.projections(), S.projection_mask),
        "projections_central": all(
            (R.mul_table[p] == R.mul_table[:, p]).all() for p in S.projections()
        ),
    }


def reference_stable_success(S, pool, ok_mask):
    """success[a, b] iff ok_mask[a + b*y] for some y in the pool, whole n × n.

    shifted[v, a] = ok_mask[v + a] is symmetric, and column b of success is
    the OR of its rows b*y over the pool. For the full pool those rows are
    bR, so one column is computed per principal right ideal and copied to
    every b sharing it; a subpool ORs the rows mul_table[:, y] per y.
    """
    R = S.ring
    n = R.size
    shifted = ok_mask[R.add_table]
    if len(pool) == n:
        cls, reps = R.principal_right_ideal_classes
        success_t = np.zeros((len(reps), n), dtype=bool)
        for k, b in enumerate(reps):
            success_t[k] = shifted[R.right_ideal_masks[b]].any(axis=0)
        return success_t[cls].T
    success_t = np.zeros((n, n), dtype=bool)
    for y in pool.tolist():
        success_t |= shifted[R.mul_table[:, y]]
    return success_t.T


def reference_stable_range_witness(S, pool, ok_mask):
    """The row-major first comaximal pair (a, b) with no y in the pool making
    a + b*y land in ok_mask, from the whole n × n arrays; None if none."""
    viol = ~reference_stable_success(S, pool, ok_mask) & S.ring.comaximal_pairs
    hit = viol.any(axis=1)
    if not hit.any():
        return None
    a = int(hit.argmax())
    return a, int(viol[a].argmax())


# -- the suites one element at a time ---------------------------------------------


def c2_witness(S, a):
    """a's C2 witness (f, v), or None: one element's entry of the C2 array."""
    f, v = S.arrays[first_c2_witnesses][a].tolist()
    return None if f < 0 else (f, v)


def reference_elem_equiv(S):
    for a in S.ring.elements():
        v = spsr_conditions(S, a)
        if not v.consistent:
            return suites.SuiteRow(
                S.label,
                False,
                f"conditions disagree on {S.ring.render(a)}",
                {"element": int(a), "flags": list(v.flags)},
            )
    return suites.SuiteRow(S.label, True, "four conditions agree on every element")


def reference_jac_equiv(S):
    QS, _ = S.mod_jacobson()
    jnil = ring_property(S, "J-nil").value
    lift = lifting_checks(S)
    c1 = ring_property(S, "strongly-pi-star-regular").value
    c2 = (
        all(c2_witness(QS, x) is not None for x in QS.ring.elements())
        and jnil
        and lift["projections_central"]
        and lift["projections_lift"]
    )
    c3 = (
        ring_property(QS, "strongly-star-regular").value
        and jnil
        and lift["idempotents_lift_to_central_projections"]
    )
    detail = suites._flags_detail(c1=c1, c2=c2, c3=c3)
    ok = len({c1, c2, c3}) == 1
    return suites.SuiteRow(S.label, ok, "radical-factor conditions compared", detail)


def reference_corner(S):
    if not ring_property(S, "strongly-pi-star-regular").value:
        return suites.SuiteRow(S.label, True, "hypothesis not met; skipped")
    R = S.ring
    tested = 0
    for e in R.idempotent_ids.tolist():
        if S.star(e) != e:
            return suites.SuiteRow(S.label, False, f"idempotent {R.render(e)} is not a projection")
        CS = suites._corner(S, e)
        tested += 1
        bad = next((x for x in CS.ring.elements() if c2_witness(CS, x) is None), None)
        if bad is not None:
            return suites.SuiteRow(
                S.label, False, f"corner at {R.render(e)} fails on {CS.ring.render(bad)}"
            )
    return suites.SuiteRow(S.label, True, f"{tested} corners verified")


def reference_groupring(SG):
    RG = SG.ring
    S = suites.build_star_ring(f"Z{RG.base.size}", "id")
    base = S.ring
    two = base.add(base.one, base.one)
    hyp_two = bool(base.jacobson_mask[two])
    hyp_group = RG.group.is_two_group()
    lhs = ring_property(S, "strongly-pi-star-regular").value
    rhs = all(c2_witness(SG, x) is not None for x in RG.elements())
    ok = hyp_two and hyp_group and lhs == rhs
    return suites.SuiteRow(
        SG.label,
        ok,
        "finite coefficient ring grants the artinian-prime-factor hypothesis",
        suites._flags_detail(
            two_in_radical=hyp_two,
            two_group=hyp_group,
            base=lhs,
            group_ring=rhs,
        ),
    )


def reference_src_c7(S):
    """Every a has a projection p in aR with 1-p in (1-a)R."""
    R = S.ring
    proj = np.flatnonzero(S.projection_mask)
    for a in R.elements():
        in_aR = R.right_ideal_masks[a]
        in_caR = R.right_ideal_masks[R.one_minus(a)]
        cand = proj[in_aR[proj]]
        if not in_caR[R.one_minus_table[cand]].any():
            return False
    return True


def reference_ring_equiv_c5(S):
    """RING-EQUIV's c5: every a has a projection p with a - p a unit and ap
    nilpotent, found by walking powers, and each v^-1 q v is a projection."""
    R = S.ring
    proj, units = S.projections(), R.units()
    for a in R.elements():
        if not any(
            R.units_mask[R.sub(a, p)] and R.is_nilpotent(R.mul(a, p)) for p in proj
        ):
            return False
    for q in proj:
        for v in units:
            conj = R.mul(R.mul(int(R.inverse_ids[v]), q), v)
            if not S.projection_mask[conj]:
                return False
    return True


def reference_src_c2(S):
    """SRC-EQUIV's c2: comaximal pairs admit a commuting projection producing a unit."""
    R = S.ring
    comax = R.comaximal_pairs
    proj = np.flatnonzero(S.projection_mask)
    for a in R.elements():
        pcomm = proj[R.mul_table[a, proj] == R.mul_table[proj, a]]
        if pcomm.size == 0:
            if comax[a].any():
                return False
            continue
        success = R.units_mask[R.add_table[a, R.mul_table[:, pcomm]]].any(axis=1)
        if (comax[a] & ~success).any():
            return False
    return True


def reference_local_equiv(S):
    R = S.ring
    trivial = {R.zero, R.one}
    c1 = ring_property(S, "star-clean").value and set(S.projections()) == trivial
    c2 = ring_property(S, "clean").value and set(R.idempotent_ids.tolist()) == trivial
    c3 = ring_property(S, "local").value
    ok = len({c1, c2, c3}) == 1
    return suites.SuiteRow(S.label, ok, "", suites._flags_detail(c1=c1, c2=c2, c3=c3))


def reference_two_unit(S):
    R = S.ring
    two = R.add(R.one, R.one)
    if not R.units_mask[two]:
        return suites.SuiteRow(S.label, True, "2 is not a unit; skipped")
    sqrt1 = [u for u in R.elements() if R.mul(u, u) == R.one]
    lemma_lhs = all(S.star(u) == u for u in sqrt1)
    lemma_rhs = ring_property(S, "idempotents-are-projections").value
    thm_lhs = ring_property(S, "star-clean").value
    thm_rhs = all(unit_sasr_decomposition(S, a) is not None for a in R.elements())
    cor_lhs = ring_property(S, "clean").value and all(S.star(u) == u for u in R.units())
    cor_rhs = ring_property(S, "star-clean").value and S.is_identity_involution()
    ok = lemma_lhs == lemma_rhs and thm_lhs == thm_rhs and cor_lhs == cor_rhs
    return suites.SuiteRow(
        S.label,
        ok,
        "square-root lemma, decomposition theorem, self-adjoint-unit corollary",
        suites._flags_detail(
            lemma_lhs=lemma_lhs,
            lemma_rhs=lemma_rhs,
            theorem_lhs=thm_lhs,
            theorem_rhs=thm_rhs,
            corollary_lhs=cor_lhs,
            corollary_rhs=cor_rhs,
        ),
    )


def reference_proper_nil(S):
    if not ring_property(S, "strongly-pi-star-regular").value:
        return suites.SuiteRow(S.label, True, "hypothesis not met; skipped")
    R = S.ring
    bad = next(
        (
            x
            for x in R.elements()
            if R.mul(S.star(x), x) == R.zero and not R.nilpotent_mask[x]
        ),
        None,
    )
    if bad is None:
        return suites.SuiteRow(S.label, True, "x*x = 0 forces x nilpotent")
    return suites.SuiteRow(S.label, False, f"x={R.render(bad)} breaks the rule")


# tag: the suite with every side one element at a time, its row as the suite's
REFERENCE_SUITES = {
    "ELEM-EQUIV": reference_elem_equiv,
    "JAC-EQUIV": reference_jac_equiv,
    "CORNER": reference_corner,
    "GROUPRING": reference_groupring,
    "LOCAL-EQUIV": reference_local_equiv,
    "TWO-UNIT": reference_two_unit,
    "PROPER-NIL": reference_proper_nil,
}
