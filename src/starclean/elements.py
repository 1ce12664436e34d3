"""Element-level classifiers with checkable certificates.

Everything here is decided by exhaustive search over the finite ring and
returns witnesses that can be re-validated independently: clean and star-clean
decompositions, strong pi-regularity with its invertibility witnesses, the
projection-times-unit factorization, the four equivalent power/decomposition
conditions bundled in ``spsr_conditions``, and the unit plus self-adjoint
square root of 1 decomposition. Every query for a witness or certificate
is one lookup in a per-ring store and one list index: it reads its
element's finished answer from the Python list of its row block of
elements, which a builder (see the end of this module) fills once per
block, so a query does no ring arithmetic and no numpy indexing. The answers are made from per-ring witness arrays, whose
entry per element is the whole first witness (or -1). Arrays and answer
lists are kept in the ``arrays`` store of their owner, the star ring (the
ring for strong pi-regularity and regularity), under a key of this module:
the table of every decomposition of each clean mode, the factorization, C2
and the unit plus root sum are built whole on first use, and C1, C3, C4,
strong pi-regularity and regularity one row block of elements at a time,
the block of the element asked about. The answer lists of a block are built
from the rows of that block: the certificates of a clean mode from that
mode's table, the verdicts of ``spsr_conditions`` from each condition's own
array, and the witness tuples of strong pi-regularity, the factorization
and the unit plus root sum from their arrays, with None for a -1 row. A
query returns the same object at every call; a certificate query returns a
fresh list of the same certificates. ``_SPSR_WITNESSES`` states once where
each of C1 to C4 keeps its witness rows; the verdict blocks and
``spsr_holds`` both read it. The ``*_holds`` functions answer a whole block
of elements from the witness arrays, for the ring-level deciders of
``properties`` and for the suites (and, on one element, for the checker of
strong pi-star-regularity); they and ``is_clean_elem`` build no answer list.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .involutions import StarRing
from .rings import ID_DTYPE, FiniteRing, _row_blocks

CLEAN_MODES = ("clean", "strongly-clean", "star-clean", "strongly-star-clean")
_PROJECTION_MODES = ("star-clean", "strongly-star-clean")
_COMMUTING_MODES = ("strongly-clean", "strongly-star-clean")


class CleanCertificate(NamedTuple):
    """A decomposition a = e + u with e idempotent and u a unit.

    A named tuple, built once per decomposition, with the other
    certificates of its row block of elements, and shared by every query
    that asks for it: certificates are immutable.
    """

    subject: int
    part: int
    unit: int
    projection: bool
    commuting: bool

    def holds(self, S: StarRing) -> bool:
        R = S.ring
        if R.add(self.part, self.unit) != self.subject:
            return False
        if R.mul(self.part, self.part) != self.part:
            return False
        if not R.units_mask[self.unit]:
            return False
        if self.projection and S.star(self.part) != self.part:
            return False
        if self.commuting and R.mul(self.part, self.unit) != R.mul(self.unit, self.part):
            return False
        return True


# builds a certificate from one field tuple without the keyword handling of
# the named tuple's own constructor, about a third cheaper per certificate
_new_certificate = partial(tuple.__new__, CleanCertificate)


class CleanTable(NamedTuple):
    """Every decomposition a = e + u of one clean mode, grouped by a: those of
    a are parts[offsets[a]:offsets[a + 1]] and the units at the same
    positions, by ascending e. The mode's certificates are built from it one
    row block of elements at a time (see ``CertificateBlocks``); the
    ``*_holds`` and ``is_clean_elem`` answers read only the offsets."""

    offsets: np.ndarray
    parts: np.ndarray
    units: np.ndarray


def clean_certificates(S: StarRing, a: int, mode: str) -> list[CleanCertificate]:
    """All decompositions of a in the given mode, ordered by the idempotent id:
    a fresh list of the certificates its row block holds."""
    return S.arrays[_CLEAN_CERTIFICATES[mode]].lookup(S, a)


def is_clean_elem(S: StarRing, a: int, mode: str) -> bool:
    offsets = S.arrays[_CLEAN_TABLES[mode]].offsets
    return bool(offsets[a + 1] > offsets[a])


def clean_holds(S: StarRing, rows: slice, mode: str) -> np.ndarray:
    """Per element of rows, whether it has a decomposition in the mode."""
    offsets = S.arrays[_CLEAN_TABLES[mode]].offsets
    return offsets[rows.start + 1 : rows.stop + 1] > offsets[rows]


# -- strong pi-regularity -------------------------------------------------------


def strongly_pi_regular_witness(
    R: FiniteRing, a: int
) -> Optional[tuple[int, int, int]]:
    """First (n, x, y) with a^n = a^(n+1) x = y a^(n+1): least n, then least x
    and least y."""
    return R.arrays[_spr_answers].lookup(R, a)


def strongly_pi_regular_holds(R: FiniteRing, rows: slice) -> np.ndarray:
    return R.arrays[_spr_blocks].take(R, rows)[:, 0] >= 0


def regular_holds(R: FiniteRing, ids) -> np.ndarray:
    """Per element of ids (a slice or an id array), whether a = aba for some b."""
    return R.arrays[_regular_blocks].take(R, ids) >= 0


def strongly_star_regular_witness(S: StarRing, a: int) -> Optional[tuple[int, int]]:
    """First (p, u) with a = p u = u p, p a projection and u a unit."""
    return S.arrays[_ssr_answers].lookup(S, a)


def strongly_star_regular_holds(S: StarRing, rows: slice) -> np.ndarray:
    return S.arrays[first_ssr_witnesses][rows, 0] >= 0


# -- the four equivalent conditions ---------------------------------------------


class PiStarCertificate(NamedTuple):
    """Witness for one of the four conditions; fields depend on the tag.

    A named tuple whose data is a read-only mapping of the tag's fields
    (see ``_PI_STAR_FIELDS``), so one certificate can be shared by every
    query that asks for it. The data takes part in equality, compares equal
    to a dict of the same items, and makes the certificate unhashable.
    """

    subject: int
    tag: str  # C1 | C2 | C3 | C4
    data: Mapping[str, int]

    def holds(self, S: StarRing) -> bool:
        R = S.ring
        a = self.subject
        d = self.data
        if self.tag == "C1":
            m, e, u = d["m"], d["e"], d["u"]
            if not (S.projection_mask[e] and R.units_mask[u]) or m < 1:
                return False
            w = a
            for _ in range(m - 1):
                w = R.mul(w, a)
            return (
                w == R.mul(e, u)
                and R.mul(a, e) == R.mul(e, a)
                and R.mul(a, u) == R.mul(u, a)
                and R.mul(e, u) == R.mul(u, e)
            )
        if self.tag == "C2":
            f, v = d["f"], d["v"]
            return (
                S.projection_mask[f]
                and R.units_mask[v]
                and R.add(f, v) == a
                and R.mul(f, v) == R.mul(v, f)
                and R.is_nilpotent(R.mul(a, f))
            )
        if self.tag == "C3":
            p, w = d["p"], d["w"]
            ap = R.mul(a, p)
            return (
                S.projection_mask[p]
                and R.mul(a, p) == R.mul(p, a)
                and R.mul(R.mul(p, w), p) == w
                and R.mul(ap, w) == p
                and R.mul(w, ap) == p
                and R.is_nilpotent(R.mul(a, R.one_minus(p)))
            )
        if self.tag == "C4":
            b = d["b"]
            ab = R.mul(a, b)
            return (
                R.mul(a, b) == R.mul(b, a)
                and S.star(ab) == ab
                and R.mul(R.mul(b, a), b) == b
                and R.is_nilpotent(R.sub(a, R.mul(R.mul(a, a), b)))
            )
        return False


# the fields of each condition's certificate, in the order of its witness row
_PI_STAR_FIELDS = {"C1": ("m", "e", "u"), "C2": ("f", "v"), "C3": ("p", "w"), "C4": ("b",)}


def _pi_star_certificate(tag: str, a: int, witness: list) -> Optional[PiStarCertificate]:
    """a's certificate for the condition from its witness row, or None where
    the row holds -1s."""
    if witness[0] < 0:
        return None
    return PiStarCertificate(a, tag, MappingProxyType(dict(zip(_PI_STAR_FIELDS[tag], witness))))


def spsr_holds(S: StarRing, rows: slice, tag: str) -> np.ndarray:
    """Per element of rows, whether the condition holds, read from its own
    array. C1: some power of a is eu, with a, e and u pairwise commuting, e
    a projection and u a unit. C2: a = f + v, f a projection, v a unit,
    fv = vf, af nilpotent. C3: a commuting projection p with ap invertible in
    pRp and a(1-p) nilpotent. C4: a commuting b with (ab)* = ab, b = bab and
    a - a^2 b nilpotent."""
    return _SPSR_WITNESSES[tag](S, rows)[:, 0] >= 0


class SpsrVerdict(NamedTuple):
    subject: int
    c1: Optional[PiStarCertificate]
    c2: Optional[PiStarCertificate]
    c3: Optional[PiStarCertificate]
    c4: Optional[PiStarCertificate]

    @property
    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.c1 is not None, self.c2 is not None, self.c3 is not None, self.c4 is not None)

    @property
    def consistent(self) -> bool:
        f = self.flags
        return all(f) or not any(f)


def spsr_conditions(S: StarRing, a: int) -> SpsrVerdict:
    """The four conditions on a, each found by its own exhaustive search: the
    verdict its row block holds, the same object at every call."""
    return S.arrays[_spsr_verdicts].lookup(S, a)


def unit_sasr_decomposition(S: StarRing, a: int) -> Optional[tuple[int, int]]:
    """First (t, u) with a = t + u, t a self-adjoint square root of 1, u a unit."""
    return S.arrays[_sasr_answers].lookup(S, a)


def unit_sasr_holds(S: StarRing, rows: slice) -> np.ndarray:
    return S.arrays[first_sasr_witnesses][rows, 0] >= 0


# -- per-ring arrays ---------------------------------------------------------------
#
# Each builder answers its kernel for many elements at once and returns, per
# element, the whole first witness in the kernel's search order as one row
# of ids, or -1s; the clean tables return every decomposition. An array is
# made on first lookup in the ``arrays`` store of its owner, keyed by its
# builder (or by a key per clean mode). Two shapes:
#
# - the clean tables, ssr, C2 and the unit plus root sum walk their pool
#   (idempotents, projections, or self-adjoint roots of 1) times the units,
#   which meets every element, so they fill the whole array at once, in
#   ascending pool blocks of at most about 2^20 candidate pairs. Each clean
#   mode's table is built from its own pool.
# - C1, C3, C4, strong pi-regularity and regularity are indexed by element:
#   each answers one row block of elements, the rows of
#   ``_row_blocks(0, n, n)``, and the store holds its ``WitnessBlocks``,
#   which fill a block when one of its elements is first taken. No
#   temporary holds more than _BLOCK_ENTRIES entries, so a lone query at the
#   size cap pays for one block, not for the whole ring.
#
# The certificates of each clean mode are built from that mode's table in
# the same row blocks, and the store holds their ``CertificateBlocks``
# under a second key per mode; the verdicts of ``spsr_conditions`` are
# built from the C1 to C4 arrays in the same row blocks too, and so are the
# witness tuples of strong pi-regularity, ssr and the unit plus root sum,
# from their own arrays: the store holds each one's ``ListBlocks``. Every
# query reads only these lists; a lone query at the size cap builds one
# block of them.
#
# Builders read only ring-level caches and share no condition: the sides of
# a suite that compare these kernels keep their own code.


class _ModeKeys(dict):
    """Store keys by clean mode."""

    def __missing__(self, mode: str):
        raise ValueError(f"unknown mode {mode!r}; expected one of {CLEAN_MODES}")


class RowBlocks:
    """The answers of one row-block builder, filled one block of
    ``_row_blocks(0, size, size)`` at a time with ``fill(owner, rows)``.
    The owner is passed at each fill, so the blocks keep no reference to it.
    """

    def __init__(self, size: int, fill):
        self.blocks = _row_blocks(0, size, size)
        self.rows = self.blocks[0].stop  # rows per block
        self._fill = fill


class WitnessBlocks(RowBlocks):
    """The first witnesses of one row-block builder, each of shape ``tail``;
    taking many fills every block they meet. Every entry is an element id,
    a power count of at most the size, or -1, so int32 holds it."""

    def __init__(self, size: int, tail: tuple[int, ...], fill):
        super().__init__(size, fill)
        self.filled = np.zeros(len(self.blocks), dtype=bool)
        self.values = np.full((size, *tail), -1, dtype=np.int32)

    def _fill_block(self, owner, k: int) -> None:
        rows = self.blocks[k]
        self.values[rows] = self._fill(owner, rows)
        self.filled[k] = True

    def take(self, owner, ids) -> np.ndarray:
        """The witnesses of ids, a slice of elements or an array of ids,
        filling every block that holds one of them."""
        met = np.zeros(len(self.blocks), dtype=bool)
        met[np.arange(len(self.values))[ids] // self.rows] = True
        for k in np.flatnonzero(met & ~self.filled).tolist():
            self._fill_block(owner, k)
        return self.values[ids]


class ListBlocks(RowBlocks):
    """The answers of one row-block builder, one Python list per block, as
    ``fill`` gives it, or None until it is filled: looking an element up
    fills its block if need be and gives its item of the list."""

    def __init__(self, size: int, fill):
        super().__init__(size, fill)
        self.lists = [None] * len(self.blocks)

    def _fill_block(self, owner, k: int) -> list:
        block = self.lists[k] = self._fill(owner, self.blocks[k])
        return block

    def lookup(self, owner, a: int):
        k = a // self.rows
        block = self.lists[k]
        if block is None:
            block = self._fill_block(owner, k)
        return block[a - k * self.rows]


class CertificateBlocks(ListBlocks):
    """The certificates of one clean mode: ``fill`` gives a block's
    certificates in element order, and where those of each element of the
    block start in the list, with the end last; looking an element up gives
    a fresh list, a slice of its block's."""

    def lookup(self, owner, a: int) -> list:
        k = a // self.rows
        block = self.lists[k]
        if block is None:
            block = self._fill_block(owner, k)
        starts, certs = block
        i = a - k * self.rows
        return certs[starts[i] : starts[i + 1]]


# the store keys of the clean tables and of their certificates, per mode

_CLEAN_TABLES = _ModeKeys(
    (mode, lambda S, mode=mode: clean_decomposition_table(S, mode)) for mode in CLEAN_MODES
)
_CLEAN_CERTIFICATES = _ModeKeys(
    (mode, lambda S, mode=mode: CertificateBlocks(
        S.ring.size, partial(clean_certificate_block, mode=mode)))
    for mode in CLEAN_MODES
)


# the store keys of the row-block builders


def _c1_blocks(S: StarRing) -> WitnessBlocks:
    return WitnessBlocks(S.ring.size, (3,), first_c1_witnesses)


def _c3_blocks(S: StarRing) -> WitnessBlocks:
    return WitnessBlocks(S.ring.size, (2,), first_c3_witnesses)


def _c4_blocks(S: StarRing) -> WitnessBlocks:
    return WitnessBlocks(S.ring.size, (), first_c4_witnesses)


def _spr_blocks(R: FiniteRing) -> WitnessBlocks:
    return WitnessBlocks(R.size, (3,), first_spr_witnesses)


def _regular_blocks(R: FiniteRing) -> WitnessBlocks:
    return WitnessBlocks(R.size, (), first_regular_witnesses)


def _spsr_verdicts(S: StarRing) -> ListBlocks:
    return ListBlocks(S.ring.size, spsr_verdict_block)


def _spr_answers(R: FiniteRing) -> ListBlocks:
    return ListBlocks(R.size, spr_answer_block)


def _ssr_answers(S: StarRing) -> ListBlocks:
    return ListBlocks(S.ring.size, ssr_answer_block)


def _sasr_answers(S: StarRing) -> ListBlocks:
    return ListBlocks(S.ring.size, sasr_answer_block)


# where each of C1 to C4 keeps its witness rows: per condition, the rows of
# a block of elements from its own array, one row of ids per element
_SPSR_WITNESSES = {
    "C1": lambda S, rows: S.arrays[_c1_blocks].take(S, rows),
    "C2": lambda S, rows: S.arrays[first_c2_witnesses][rows],
    "C3": lambda S, rows: S.arrays[_c3_blocks].take(S, rows),
    "C4": lambda S, rows: S.arrays[_c4_blocks].take(S, rows)[:, None],
}


def _keep_first(
    out: np.ndarray, elems: np.ndarray, witnesses: Callable[[np.ndarray], np.ndarray]
) -> None:
    """Give each element of elems that has no witness row in out yet its
    first witness row, in the order of elems. ``witnesses(k)`` gives the
    rows of the positions k of elems, so only the rows kept are built."""
    first = np.full(len(out), len(elems))  # position of each element's first hit
    np.minimum.at(first, elems, np.arange(len(elems)))
    new = np.flatnonzero((first < len(elems)) & (out[:, 0] < 0))
    out[new] = witnesses(first[new])


def clean_decomposition_table(S: StarRing, mode: str) -> CleanTable:
    """Every decomposition a = e + u of the mode, e in its pool and u a unit,
    with eu = ue in the commuting modes.

    The pairs (e, u) are listed by e, then u, and sorted stably by a = e + u.
    Each e gives a at most once, as u = a - e, so the decompositions of each
    element stay ordered by e.
    """
    R = S.ring
    mul, units = R.mul_table, R.unit_ids
    pool = S.projection_ids if mode in _PROJECTION_MODES else R.idempotent_ids
    sums, parts, us = [], [], []
    for block in _row_blocks(0, len(pool), len(units)):
        e = pool[block]
        if mode in _COMMUTING_MODES:
            keep = mul[np.ix_(e, units)] == mul[np.ix_(units, e)].T
        else:
            keep = np.ones((len(e), len(units)), dtype=bool)
        i, j = np.nonzero(keep)  # by e, then u
        e, u = e[i], units[j]
        sums.append(R.add_table[e, u])
        parts.append(e.astype(ID_DTYPE))
        us.append(u.astype(ID_DTYPE))
    a = np.concatenate(sums)
    order = np.argsort(a, kind="stable")
    offsets = np.zeros(R.size + 1, dtype=np.min_scalar_type(len(a)))
    offsets[1:] = np.cumsum(np.bincount(a, minlength=R.size))
    return CleanTable(offsets, np.concatenate(parts)[order], np.concatenate(us)[order])


def clean_certificate_block(
    S: StarRing, rows: slice, mode: str
) -> tuple[list[int], list[CleanCertificate]]:
    """The certificates of the elements of rows in the mode, read from its
    own table in the table's order, and where those of each element start
    in the list, with the end last."""
    table = S.arrays[_CLEAN_TABLES[mode]]
    offsets = table.offsets[rows.start : rows.stop + 1]
    lo, hi = offsets[[0, -1]].tolist()
    # one int object per element, shared by its certificates
    counts = np.diff(offsets).tolist()
    certs = list(map(_new_certificate, zip(
        chain.from_iterable(map(repeat, range(rows.start, rows.stop), counts)),
        table.parts[lo:hi].tolist(),
        table.units[lo:hi].tolist(),
        repeat(mode in _PROJECTION_MODES),
        repeat(mode in _COMMUTING_MODES),
    )))
    return (offsets - lo).tolist(), certs


def spsr_verdict_block(S: StarRing, rows: slice) -> list[SpsrVerdict]:
    """The verdicts of the elements of rows, in element order. Each
    condition's certificates are read from the rows of its own array (see
    ``_SPSR_WITNESSES``), which this fills for the block; one int object per
    element is shared by its verdict and certificates."""
    elems = list(range(rows.start, rows.stop))
    columns = [
        map(partial(_pi_star_certificate, tag), elems, witnesses(S, rows).tolist())
        for tag, witnesses in _SPSR_WITNESSES.items()
    ]
    return list(map(SpsrVerdict, elems, *columns))


def _answers(witnesses: np.ndarray) -> list[Optional[tuple]]:
    """Per witness row, None where it holds -1s, else the row as a tuple."""
    return [None if row[0] < 0 else tuple(row) for row in witnesses.tolist()]


def spr_answer_block(R: FiniteRing, rows: slice) -> list[Optional[tuple[int, int, int]]]:
    """The answers of ``strongly_pi_regular_witness`` on the elements of rows."""
    return _answers(R.arrays[_spr_blocks].take(R, rows))


def ssr_answer_block(S: StarRing, rows: slice) -> list[Optional[tuple[int, int]]]:
    """The answers of ``strongly_star_regular_witness`` on the elements of rows."""
    return _answers(S.arrays[first_ssr_witnesses][rows])


def sasr_answer_block(S: StarRing, rows: slice) -> list[Optional[tuple[int, int]]]:
    """The answers of ``unit_sasr_decomposition`` on the elements of rows."""
    return _answers(S.arrays[first_sasr_witnesses][rows])


def first_ssr_witnesses(S: StarRing) -> np.ndarray:
    """Per element a, the first (p, u), least p then least u, with a = pu = up."""
    R = S.ring
    mul, units = R.mul_table, R.unit_ids
    out = np.full((R.size, 2), -1, dtype=np.int64)
    for block in _row_blocks(0, len(S.projection_ids), len(units)):
        p = S.projection_ids[block]
        pu = mul[np.ix_(p, units)]
        i, j = np.nonzero(pu == mul[np.ix_(units, p)].T)  # by p, then by u
        _keep_first(out, pu[i, j], lambda k: np.stack([p[i[k]], units[j[k]]], axis=1))
    return out


def first_c2_witnesses(S: StarRing) -> np.ndarray:
    """Per element a, the C2 decomposition a = f + v with the least projection f.

    v = a - f is a unit, so the pairs (f, v) run over projections times
    units; f + v hits each element at most once per f.
    """
    R = S.ring
    mul, units = R.mul_table, R.unit_ids
    out = np.full((R.size, 2), -1, dtype=np.int64)
    for block in _row_blocks(0, len(S.projection_ids), len(units)):
        f = S.projection_ids[block]
        i, j = np.nonzero(mul[np.ix_(f, units)] == mul[np.ix_(units, f)].T)  # by f
        f, v = f[i], units[j]
        a = R.add_table[f, v]
        nil = R.nilpotent_mask[mul[a, f]]
        f, v = f[nil], v[nil]
        _keep_first(out, a[nil], lambda k: np.stack([f[k], v[k]], axis=1))
    return out


def first_c3_witnesses(S: StarRing, rows: slice) -> np.ndarray:
    """Per element a of rows, (p, w) with p the least projection such that
    ap = pa, a(1-p) is nilpotent and ap is invertible in pRp, and w the
    inverse of ap there.

    ap = pap lies in pRp, and it is invertible there iff u = ap + 1 - p is a
    unit of R; then w = p u^-1 p, so no corner is scanned.
    """
    R = S.ring
    mul, q_of, inverse = R.mul_table, R.one_minus_table, R.inverse_ids
    elems = np.arange(R.size)[rows]
    out = np.full((len(elems), 2), -1, dtype=np.int64)
    for block in _row_blocks(0, len(S.projection_ids), len(elems)):
        todo = np.flatnonzero(out[:, 0] < 0)
        p = S.projection_ids[block]
        # one gather decides a(1-p) nilpotent; the other tests run on the pairs it keeps
        i, j = np.nonzero(R.nilpotent_mask[mul[np.ix_(elems[todo], q_of[p])]])  # by a, then p
        i, p = todo[i], p[j]
        a = elems[i]
        ap = mul[a, p]
        u = R.add_table[ap, q_of[p]]
        ok = (ap == mul[p, a]) & R.units_mask[u]
        i, p, u = i[ok], p[ok], u[ok]
        _keep_first(out, i, lambda k: np.stack([p[k], mul[mul[p[k], inverse[u[k]]], p[k]]], axis=1))
    return out


def first_c1_witnesses(S: StarRing, rows: slice) -> np.ndarray:
    """Per element a of rows, the first (m, e, u), least m, then least e, then
    least u, with a^m = eu, a, e and u pairwise commuting, e a projection and
    u a unit.

    The pairs (e, u) with eu = ue are listed by e, then u, and keyed by
    x = eu. rank[i, x] is m - 1 when x is the m-th power of the i-th element
    and first occurs there; walking the powers of every element of the block
    at once fills it. A pair counts for a when a commutes with e and u.
    """
    R = S.ring
    mul, units = R.mul_table, R.unit_ids
    elems = np.arange(R.size)[rows]
    k = len(elems)
    commutes = mul[rows] == mul[:, rows].T
    miss = R.size  # above every rank: an element has at most n distinct powers
    rank = np.full((k, R.size), miss, dtype=np.min_scalar_type(miss))
    i, w = np.arange(k), elems  # rows whose powers are still new, and their power
    m = 0
    while i.size:
        rank[i, w] = m
        m += 1
        w = mul[w, elems[i]]
        new = rank[i, w] == miss
        i, w = i[new], w[new]
    best = np.full(k, miss, dtype=rank.dtype)
    out = np.full((k, 3), -1, dtype=np.int64)
    row = np.arange(k)
    for block in _row_blocks(0, len(S.projection_ids), len(units)):
        e = S.projection_ids[block]
        eu = mul[np.ix_(e, units)]
        pe, pu = np.nonzero(eu == mul[np.ix_(units, e)].T)  # by e, then u
        px, pe, pu = eu[pe, pu], e[pe], units[pu]
        # chunks of a quarter block: the block's rank and commute arrays
        # stay the largest live, and a smaller working set runs faster
        for chunk in _row_blocks(0, len(pe), 4 * k):
            ce, cu = pe[chunk], pu[chunk]
            r = rank[:, px[chunk]]
            ok = commutes[:, ce]
            ok &= commutes[:, cu]
            r[~ok] = miss
            j = r.argmin(axis=1)  # the least power, then the first pair
            rj = r[row, j]
            better = rj < best  # earlier chunks hold earlier pairs, so ties keep them
            best[better] = rj[better]
            j = j[better]
            out[better] = np.stack([rj[better].astype(np.int64) + 1, ce[j], cu[j]], axis=1)
    return out


def first_c4_witnesses(S: StarRing, rows: slice) -> np.ndarray:
    """Per element a of rows, the least b with ab = ba, (ab)* = ab, bab = b
    and a - a^2 b nilpotent.

    bab = b gives (ab)^2 = a(bab) = ab, so with (ab)* = ab, ab is a
    projection: pairs whose ab is not one are skipped. That test, which
    also covers (ab)* = ab, runs on every pair of the block; bab = b, as
    b(ab) = b, and the other conditions run on the pairs it keeps, still
    in order by a, then b. Listing a kept pair costs about 4.5 times
    testing one pair of the block for bab = b (where every element is a
    projection, as in Z2^12/id, a block took 80 ms against 18 ms). So a
    block in which more than a quarter of the pairs are kept tests
    bab = b on every pair first, as a mask.
    """
    R = S.ring
    mul = R.mul_table
    elems, b_all = np.arange(R.size)[rows], np.arange(R.size)
    ab = mul[rows]
    keep = S.projection_mask[ab]
    if 4 * np.count_nonzero(keep) > keep.size:
        keep &= mul[b_all, ab] == b_all
    i, b = np.nonzero(keep)  # by a, then b
    a, ab = elems[i], ab[i, b]
    ok = (mul[b, ab] == b) & (ab == mul[b, a])
    ok &= R.nilpotent_mask[R.add_table[a, R.neg_table[mul[mul[a, a], b]]]]
    out = np.full(len(elems), -1, dtype=np.int64)
    i, first = np.unique(i[ok], return_index=True)  # the least b of each a
    out[i] = b[ok][first]
    return out


def first_spr_witnesses(R: FiniteRing, rows: slice) -> np.ndarray:
    """Per element a of rows, the first (n, x, y) with a^n = a^(n+1) x =
    y a^(n+1): least n, then least x and least y.

    The powers of every element of the block are walked at once. Each
    succeeds by the time its powers repeat, at n = the least s with
    a^s = a^(s+p), p >= 1: a^(s+1) a^(p-1) = a^s, with a^0 = 1. So the walk
    ends, and at the same n as a walk over the distinct powers of one
    element.
    """
    mul = R.mul_table
    elems = np.arange(R.size)[rows]
    out = np.full((len(elems), 3), -1, dtype=np.int64)
    i = np.arange(len(elems))  # rows still walking
    w = elems  # their power a^n
    for n in range(1, R.size + 1):
        if not i.size:
            break
        wnext = mul[w, elems[i]]
        right = mul[wnext] == w[:, None]
        j = np.flatnonzero(right.any(axis=1))  # left is scanned only where right holds
        left = mul[:, wnext[j]].T == w[j, None]
        hit = left.any(axis=1)
        j = j[hit]
        out[i[j]] = np.stack([np.full(len(j), n), right[j].argmax(axis=1), left[hit].argmax(axis=1)], axis=1)
        walking = np.ones(len(i), dtype=bool)
        walking[j] = False
        i, w = i[walking], wnext[walking]
    return out


def first_regular_witnesses(R: FiniteRing, rows: slice) -> np.ndarray:
    """Per element a of rows, the least b with aba = a.

    Column a of mul holds ba for every b, and a(ba) is entry ba of row a,
    so every lookup stays within the block's own rows of mul. The rows go
    in parts of an eighth of a block, as each part's index is 8-byte intp.
    """
    mul, n = R.mul_table, R.size
    out = np.empty(rows.stop - rows.start, dtype=np.int64)
    for part in _row_blocks(rows.start, rows.stop, 8 * n):
        elems = np.arange(part.start, part.stop)
        ba = mul[:, part].T.astype(np.intp)
        ba += n * np.arange(len(elems))[:, None]  # index into the part's flat rows
        hit = mul[part].ravel()[ba] == elems[:, None]
        b = hit.argmax(axis=1)
        b[~hit[np.arange(len(b)), b]] = -1
        out[part.start - rows.start : part.stop - rows.start] = b
    return out


def first_sasr_witnesses(S: StarRing) -> np.ndarray:
    """Per element a, (t, u) with a = t + u, t the least self-adjoint square
    root of 1 such that u = a - t is a unit; the pairs run over roots times
    units."""
    R = S.ring
    roots, units = S.sasr_unit_ids, R.unit_ids
    out = np.full((R.size, 2), -1, dtype=np.int64)
    for block in _row_blocks(0, len(roots), len(units)):
        t = roots[block]
        _keep_first(out, R.add_table[np.ix_(t, units)].ravel(),
                    lambda k: np.stack([t[k // len(units)], units[k % len(units)]], axis=1))
    return out
