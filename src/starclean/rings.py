"""Finite unital rings assembled from a compositional recipe.

Every ring exposes its elements as integer ids ``0..size-1`` in a fixed
mixed-radix enumeration over the construction tree: matrix entries are read
row-major, group-ring coefficients in group element order, product components
left to right, and the first component is the most significant digit.  Id 0
is always the additive zero.  The Cayley tables, built once per ring, are
the only arithmetic.  Integers mod n compute theirs in bulk; products,
quotients and corners gather theirs from the tables they are made from.
Digit rings (matrices, group rings, truncated polynomials) are free modules
over their base with a multiplicative basis, and state their product as one
index table of that basis, ``_target``: ``_DigitRing._tables`` multiplies
single-digit elements through it and the base's mul table, and extends the
product to every pair by additivity.  No ring multiplies element by element.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import MalformedSpec, NotAnIdeal, NotIdempotent, SpecTooLarge

DEFAULT_SIZE_CAP = 4096
SIZE_CAP_ENV = "STARCLEAN_CAP"

# every element id, in every table, is one uint16, so no ring is larger
ID_DTYPE = np.uint16
MAX_RING_SIZE = int(np.iinfo(ID_DTYPE).max) + 1

# peak bytes per pair of elements while a ring is built and its involution
# checked, measured at n = 8192 as 4.4-5.5 above the interpreter's own RSS:
# the uint16 add and mul tables hold 4, and the tables of a product's factors
# or of a quotient up to 1.5 more; every other gather runs in row blocks
TABLE_BYTES_PER_PAIR = 6

# element counts stop here: every larger ring is refused anyway, and a recipe
# such as M100000(Z2) would otherwise build a 10^10-bit integer to refuse it
SIZE_BOUND_CEILING = 1 << 64

# entries of one row block of a widened gather in the table builders and the
# element kernels
_BLOCK_ENTRIES = 1 << 20


def current_size_cap(override: int | None = None) -> int:
    """Resolve the ring-size cap: explicit argument beats env beats default."""
    if override is not None:
        if override < 1:
            raise MalformedSpec(f"size cap must be positive, got {override}")
        return int(override)
    raw = os.environ.get(SIZE_CAP_ENV, "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise MalformedSpec(f"invalid {SIZE_CAP_ENV}={raw!r}") from exc
    return DEFAULT_SIZE_CAP


# ---------------------------------------------------------------------------
# finite groups (for group rings)


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class GroupProduct:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[Cyclic, GroupProduct]


def group_spec_string(spec: GroupSpec) -> str:
    if isinstance(spec, Cyclic):
        return f"C{spec.n}"
    return f"{group_spec_string(spec.left)}*{group_spec_string(spec.right)}"


def _validate_group_spec(spec: GroupSpec) -> int:
    if isinstance(spec, Cyclic):
        if spec.n < 1:
            raise MalformedSpec(f"cyclic group order must be >= 1, got {spec.n}")
        return spec.n
    if isinstance(spec, GroupProduct):
        return _validate_group_spec(spec.left) * _validate_group_spec(spec.right)
    raise MalformedSpec(f"not a group spec: {spec!r}")


def _row_blocks(start: int, stop: int, row_len: int) -> list[slice]:
    """Slices covering rows [start, stop), each of at most _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // max(row_len, 1))
    return [slice(s, min(s + step, stop)) for s in range(start, stop, step)]


class ArrayStore(dict):
    """The per-ring arrays of one owner, keyed by the function that builds
    each from the owner: ``store[build]`` is ``build(owner)``, made on first
    use. Every key and builder is in ``elements``. The owner is held by a weak
    reference, so owner and store form no reference cycle."""

    def __init__(self, owner):
        super().__init__()
        self.owner = weakref.ref(owner)

    def __missing__(self, build):
        value = self[build] = build(self.owner())
        return value


def _pair_ids(left: np.ndarray, right: np.ndarray, nr: int) -> np.ndarray:
    """Table of a product from the tables of its factors: the pair of ids
    (l, r) has id l*nr + r, with nr the size of the right factor.

    It is computed in the id dtype, in place for a square table: l*nr + r <=
    (nl - 1)*nr + nr - 1, one less than the product's size, so no partial
    sum overflows.
    """
    if left.ndim == 1:
        return (left[:, None] * nr + right[None, :]).reshape(-1)
    nl = left.shape[0]
    out = np.empty((nl * nr, nl * nr), dtype=ID_DTYPE)
    view = out.reshape(nl, nr, nl, nr)
    np.multiply(left[:, None, :, None], nr, out=view)
    view += right[None, :, None, :]
    return out


def _induced_tables(parent: FiniteRing, lookup: np.ndarray, ids: np.ndarray):
    """The (add, mul, neg) tables of a ring on the parent's elements ids, in
    which the parent's element x has the id lookup[x]: lookup[table[a, b]]
    for a, b in ids, gathered in row blocks."""
    m = len(ids)
    tables = []
    for table in (parent.add_table, parent.mul_table):
        out = np.empty((m, m), dtype=ID_DTYPE)
        for rows in _row_blocks(0, m, m):
            out[rows] = lookup[table[np.ix_(ids[rows], ids)]]
        tables.append(out)
    return *tables, lookup[parent.neg_table[ids]].astype(ID_DTYPE)


def _group_tables(spec: GroupSpec):
    if isinstance(spec, Cyclic):
        n = spec.n
        i = np.arange(n)
        mul = ((i[:, None] + i[None, :]) % n).astype(ID_DTYPE)
        inv = ((-i) % n).astype(ID_DTYPE)
        names = ["1"] + [("g" if e == 1 else f"g^{e}") for e in range(1, n)]
        return mul, inv, names
    lm, li, ln = _group_tables(spec.left)
    rm, ri, rn = _group_tables(spec.right)
    names = [f"({a},{b})" for a in ln for b in rn]
    return _pair_ids(lm, rm, len(rn)), _pair_ids(li, ri, len(rn)), names


class FiniteGroup:
    """Finite group on ids 0..order-1; id 0 is the identity."""

    def __init__(self, spec: GroupSpec):
        _validate_group_spec(spec)
        self.spec = spec
        self.mul_table, self.inv_table, self.names = _group_tables(spec)
        self.order = len(self.names)

    def is_two_group(self) -> bool:
        n = self.order
        return n & (n - 1) == 0


# ---------------------------------------------------------------------------
# ring specs


@dataclass(frozen=True)
class Zmod:
    n: int


@dataclass(frozen=True)
class MatrixSpec:
    k: int
    base: "RingSpec"


@dataclass(frozen=True)
class ProductSpec:
    left: "RingSpec"
    right: "RingSpec"


@dataclass(frozen=True)
class GroupRingSpec:
    base: "RingSpec"
    group: GroupSpec


@dataclass(frozen=True)
class TruncatedPolySpec:
    base: "RingSpec"
    bound: int


@dataclass(frozen=True)
class QuotientSpec:
    base: "RingSpec"
    generators: tuple[int, ...]


RingSpec = Union[Zmod, MatrixSpec, ProductSpec, GroupRingSpec, TruncatedPolySpec, QuotientSpec]


def spec_string(spec: RingSpec) -> str:
    """Canonical textual form of a spec, matching the parser grammar."""
    if isinstance(spec, Zmod):
        return f"Z{spec.n}"
    if isinstance(spec, MatrixSpec):
        return f"M{spec.k}({spec_string(spec.base)})"
    if isinstance(spec, ProductSpec):
        return f"{spec_string(spec.left)}x{spec_string(spec.right)}"
    if isinstance(spec, GroupRingSpec):
        return f"GR({spec_string(spec.base)},{group_spec_string(spec.group)})"
    if isinstance(spec, TruncatedPolySpec):
        return f"TP({spec_string(spec.base)},{spec.bound})"
    if isinstance(spec, QuotientSpec):
        gens = ",".join(str(g) for g in spec.generators)
        return f"Q({spec_string(spec.base)},[{gens}])"
    raise MalformedSpec(f"not a ring spec: {spec!r}")


def spec_size_bound(spec: RingSpec) -> int:
    """Element count of the spec, or SIZE_BOUND_CEILING if it is at least
    that; for quotients, the pre-quotient bound.  An exponent of 64 already
    reaches the ceiling from any base >= 2, so no larger one is used."""
    if isinstance(spec, Zmod):
        n = spec.n
    elif isinstance(spec, MatrixSpec):
        n = spec_size_bound(spec.base) ** min(spec.k * spec.k, 64)
    elif isinstance(spec, ProductSpec):
        n = spec_size_bound(spec.left) * spec_size_bound(spec.right)
    elif isinstance(spec, GroupRingSpec):
        n = spec_size_bound(spec.base) ** min(_validate_group_spec(spec.group), 64)
    elif isinstance(spec, TruncatedPolySpec):
        n = spec_size_bound(spec.base) ** min(spec.bound, 64)
    elif isinstance(spec, QuotientSpec):
        n = spec_size_bound(spec.base)
    else:
        raise MalformedSpec(f"not a ring spec: {spec!r}")
    return min(n, SIZE_BOUND_CEILING)


def validate_spec(spec: RingSpec, cap: int) -> None:
    if isinstance(spec, Zmod):
        if spec.n < 2:
            raise MalformedSpec(f"Zmod modulus must be >= 2, got {spec.n}")
    elif isinstance(spec, MatrixSpec):
        if spec.k < 1:
            raise MalformedSpec(f"matrix size must be >= 1, got {spec.k}")
        validate_spec(spec.base, cap)
    elif isinstance(spec, ProductSpec):
        validate_spec(spec.left, cap)
        validate_spec(spec.right, cap)
    elif isinstance(spec, GroupRingSpec):
        validate_spec(spec.base, cap)
        _validate_group_spec(spec.group)
    elif isinstance(spec, TruncatedPolySpec):
        if spec.bound < 1:
            raise MalformedSpec(f"truncation bound must be >= 1, got {spec.bound}")
        validate_spec(spec.base, cap)
    elif isinstance(spec, QuotientSpec):
        validate_spec(spec.base, cap)
        base_size = spec_size_bound(spec.base)
        for g in spec.generators:
            if not 0 <= g < base_size:
                raise MalformedSpec(f"quotient generator {g} out of range 0..{base_size - 1}")
    else:
        raise MalformedSpec(f"not a ring spec: {spec!r}")
    size = spec_size_bound(spec)
    if size > cap:
        raise SpecTooLarge(size, cap)
    if size > MAX_RING_SIZE:
        raise SpecTooLarge(size, cap, id_limit=MAX_RING_SIZE)
    table_bytes = TABLE_BYTES_PER_PAIR * size * size
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if table_bytes > memory:
        raise SpecTooLarge(size, cap, table_bytes, memory)


# ---------------------------------------------------------------------------
# rings


class FiniteRing:
    """A finite unital ring on element ids 0..size-1.

    A subclass provides ``_tables``, which returns its add, mul and neg
    tables, plus rendering; the tables are its only arithmetic.  Everything
    else (units, idempotents, nilpotents, center, the Jacobson radical,
    right-ideal masks and their classes) is derived here from the tables and
    cached, once per ring fact: the deciders and suites that need centrality,
    aR = bR or J(R) read these caches. Units, inverses and direct finiteness
    read one scan, ``right_inverse_ids``; a tuple such as ``units()`` is made
    from its id array on each call. J(R) is kept as a mask; it is an ideal
    by the quasi-regularity theorem, so it is never validated (see ``Ideal``).
    """

    spec: RingSpec | None = None
    size: int
    one: int
    zero: int = 0

    def _tables(self):
        """Return the (add, mul, neg) tables as ID_DTYPE arrays."""
        raise NotImplementedError

    # -- public arithmetic --------------------------------------------------

    @cached_property
    def _table_cache(self):
        # each builder writes ID_DTYPE itself: a cast here would hold two
        # copies of every table at once
        return self._tables()

    @property
    def add_table(self) -> np.ndarray:
        return self._table_cache[0]

    @property
    def mul_table(self) -> np.ndarray:
        return self._table_cache[1]

    @property
    def neg_table(self) -> np.ndarray:
        return self._table_cache[2]

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.size)

    @cached_property
    def one_minus_table(self) -> np.ndarray:
        """Vector mapping x to 1 - x."""
        return self.add_table[self.one][self.neg_table]

    def one_minus(self, a: int) -> int:
        return int(self.one_minus_table[a])

    # -- rendering ----------------------------------------------------------

    def render(self, a: int) -> str:
        raise NotImplementedError

    def from_value(self, value):
        """Element id for a structural value (int, tuple, nested lists)."""
        raise NotImplementedError

    def describe(self) -> str:
        return spec_string(self.spec) if self.spec is not None else type(self).__name__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()} size={self.size}>"

    # -- power sequences ------------------------------------------------------

    def distinct_powers(self, a: int) -> tuple[list[int], int]:
        """All distinct powers a^1, a^2, ... and the value of the next repeat."""
        out: list[int] = []
        seen: set[int] = set()
        x = a
        while x not in seen:
            seen.add(x)
            out.append(x)
            x = self.mul(x, a)
        return out, x

    def is_nilpotent(self, a: int) -> bool:
        """Cycle-detecting walk along the powers of a; nilpotent iff 0 shows up."""
        powers, _ = self.distinct_powers(a)
        return self.zero in powers

    @cached_property
    def arrays(self) -> ArrayStore:
        """The ring's arrays of the element kernels; see ``elements``."""
        return ArrayStore(self)

    # -- derived subsets ------------------------------------------------------

    @cached_property
    def additive_generators(self) -> np.ndarray:
        """Ids generating (R, +), each the least id outside the additive span
        of those before it; ``verify_involution`` decides on them."""
        return _additive_span(self, np.ones(self.size, dtype=bool))[1]

    @cached_property
    def right_inverse_ids(self) -> np.ndarray:
        """Per a, the least b with ab = 1, or -1; rows are searched a block
        at a time."""
        mul, n = self.mul_table, self.size
        b = np.empty(n, dtype=np.intp)
        for rows in _row_blocks(0, n, n):
            b[rows] = (mul[rows] == self.one).argmax(axis=1)
        return np.where(mul[np.arange(n), b] == self.one, b, -1)

    @cached_property
    def inverse_ids(self) -> np.ndarray:
        """Per a, its inverse, or -1 for a non-unit: a unit's right inverse is
        unique, so it is the b of ``right_inverse_ids`` if also ba = 1."""
        b = self.right_inverse_ids
        return np.where((b >= 0) & (self.mul_table[b, np.arange(self.size)] == self.one), b, -1)

    def units(self) -> tuple[int, ...]:
        return tuple(self.unit_ids.tolist())

    @cached_property
    def units_mask(self) -> np.ndarray:
        return self.inverse_ids >= 0

    @cached_property
    def unit_ids(self) -> np.ndarray:
        """Ids of the units, ascending."""
        return np.flatnonzero(self.units_mask)

    @cached_property
    def idempotent_mask(self) -> np.ndarray:
        return self.mul_table.diagonal() == np.arange(self.size)

    @cached_property
    def idempotent_ids(self) -> np.ndarray:
        """Ids of the idempotents, ascending."""
        return np.flatnonzero(self.idempotent_mask)

    @cached_property
    def nilpotent_mask(self) -> np.ndarray:
        # a nilpotent a has a^k = 0 for some k <= n < 2^(n.bit_length()), so
        # that many squarings of every element at once reach 0 exactly on them
        p = np.arange(self.size)
        for _ in range(self.size.bit_length()):
            p = self.mul_table[p, p]
        return p == self.zero

    @cached_property
    def center_mask(self) -> np.ndarray:
        return (self.mul_table == self.mul_table.T).all(axis=1)

    def first_noncentral(self, mask: np.ndarray) -> tuple[int, int] | None:
        """(a, b): a is the least id of mask outside the center, b the least
        id with ab != ba; None if every element of mask is central."""
        outside = np.flatnonzero(mask & ~self.center_mask)
        if outside.size == 0:
            return None
        a = int(outside[0])
        return a, int(np.flatnonzero(self.mul_table[a] != self.mul_table[:, a])[0])

    @cached_property
    def jacobson_mask(self) -> np.ndarray:
        # quasi-regularity: a is in the radical iff 1 - r*a is a unit for all r.
        # One-sided suffices here: left invertible implies invertible in a
        # finite ring (direct finiteness).
        return self.units_mask[self.one_minus_table[self.mul_table]].all(axis=0)

    def jacobson_radical(self) -> "Ideal":
        """J(R), an ideal by the quasi-regularity theorem, so not validated;
        a fresh view of ``jacobson_mask``, which the ring does not refer to."""
        return Ideal(self, self.jacobson_mask, check=False)

    @cached_property
    def right_ideal_masks(self) -> np.ndarray:
        """Boolean matrix with row a marking the principal right ideal aR."""
        masks = np.zeros((self.size, self.size), dtype=bool)
        masks[np.arange(self.size)[:, None], self.mul_table] = True
        return masks

    def right_ideal(self, a: int) -> np.ndarray:
        return self.right_ideal_masks[a]

    @cached_property
    def principal_right_ideal_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(class id of each element, first element of each class), where a and
        b share a class iff aR = bR."""
        return group_rows(self.right_ideal_masks)

    @cached_property
    def comaximal_classes(self) -> np.ndarray:
        """Symmetric boolean matrix over ``principal_right_ideal_classes``:
        entry (i, j) iff aR + bR = R for a of class i and b of class j, which
        holds iff some u in aR has 1 - u in bR.

        The counts of such u are products of 0/1 rows, taken in float32 for
        BLAS one block of class rows at a time; each count is at most
        n < 2^24, so float32 holds it exactly.
        """
        _, reps = self.principal_right_ideal_classes
        masks, n = self.right_ideal_masks, self.size
        flipped = np.empty((n, len(reps)), dtype=np.float32)  # [u, j]: 1 - u in b_j R
        for part in _row_blocks(0, n, len(reps)):
            flipped[part] = masks[np.ix_(reps, self.one_minus_table[part])].T
        out = np.empty((len(reps), len(reps)), dtype=bool)
        for rows in _row_blocks(0, len(reps), n):
            out[rows] = masks[reps[rows]].astype(np.float32) @ flipped > 0
        return out

    @property
    def comaximal_pairs(self) -> np.ndarray:
        """Boolean matrix: entry (a, b) iff aR + bR = R, expanded from
        ``comaximal_classes`` on each read and not kept. The package reads
        the class matrix a row block at a time instead."""
        cls, _ = self.principal_right_ideal_classes
        return self.comaximal_classes[np.ix_(cls, cls)]

    def directly_finite_witness(self) -> tuple[int, int] | None:
        """The row-major first pair (a, b) with ab = 1 but ba != 1, or None:
        a the least right-invertible non-unit, b its least right inverse, as
        a unit's one right inverse is two-sided, and ba = 1 makes a a unit."""
        bad = np.flatnonzero((self.right_inverse_ids >= 0) & ~self.units_mask)
        if bad.size == 0:
            return None
        a = int(bad[0])
        return a, int(self.right_inverse_ids[a])


def group_rows(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(class id of each row, first row of each class) for a boolean matrix.

    Rows share a class iff they are equal; classes are numbered in order of
    their first row. Rows are keyed by their packed bytes.
    """
    index: dict[bytes, int] = {}
    cls = np.empty(len(masks), dtype=np.intp)
    reps: list[int] = []
    for a, row in enumerate(np.packbits(masks, axis=1)):
        key = row.tobytes()
        k = index.get(key)
        if k is None:
            k = index[key] = len(reps)
            reps.append(a)
        cls[a] = k
    return cls, np.array(reps, dtype=np.intp)


# -- concrete constructions --------------------------------------------------


class ZmodRing(FiniteRing):
    def __init__(self, spec: Zmod):
        self.spec = spec
        self.size = spec.n
        self.one = 1 % spec.n

    def _tables(self):
        n = self.size
        i = np.arange(n, dtype=np.int64)
        add = np.empty((n, n), dtype=ID_DTYPE)
        mul = np.empty((n, n), dtype=ID_DTYPE)
        for rows in _row_blocks(0, n, n):
            add[rows] = (i[rows, None] + i) % n
            mul[rows] = (i[rows, None] * i) % n
        return add, mul, ((-i) % n).astype(ID_DTYPE)

    def render(self, a):
        return str(a)

    def from_value(self, value):
        return int(value) % self.size


class ProductRing(FiniteRing):
    def __init__(self, spec: ProductSpec, left: FiniteRing, right: FiniteRing):
        self.spec = spec
        self.left = left
        self.right = right
        self.size = left.size * right.size
        self.one = left.one * right.size + right.one

    def split(self, a: int) -> tuple[int, int]:
        return divmod(a, self.right.size)

    def join(self, l: int, r: int) -> int:
        return l * self.right.size + r

    def _tables(self):
        L, R, nr = self.left, self.right, self.right.size
        return (
            _pair_ids(L.add_table, R.add_table, nr),
            _pair_ids(L.mul_table, R.mul_table, nr),
            _pair_ids(L.neg_table, R.neg_table, nr),
        )

    def render(self, a):
        l, r = self.split(a)
        return f"({self.left.render(l)},{self.right.render(r)})"

    def from_value(self, value):
        l, r = value
        return self.join(self.left.from_value(l), self.right.from_value(r))


class _DigitRing(FiniteRing):
    """Shared machinery for rings whose elements are digit vectors over a base,
    free modules with a multiplicative basis e_0, ..., e_(width-1): the digit
    at position p is the coefficient of e_p. A subclass states its product as
    ``_target``, a width x width table with e_p e_q = e_t for t = _target[p, q],
    or 0 where the entry is -1."""

    base: FiniteRing
    width: int
    _target: np.ndarray

    @cached_property
    def _weights(self) -> np.ndarray:
        m = self.base.size
        return np.array([m ** (self.width - 1 - l) for l in range(self.width)], dtype=np.int64)

    @cached_property
    def digits(self) -> np.ndarray:
        idx = np.arange(self.size, dtype=np.int64)
        m = self.base.size
        cols = [((idx // int(w)) % m).astype(ID_DTYPE) for w in self._weights]
        return np.stack(cols, axis=1)

    def digits_of(self, a: int) -> list[int]:
        m = self.base.size
        out = [0] * self.width
        for l in range(self.width - 1, -1, -1):
            a, d = divmod(a, m)
            out[l] = d
        return out

    def encode(self, digs: Sequence[int]) -> int:
        m = self.base.size
        acc = 0
        for d in digs:
            acc = acc * m + int(d)
        return acc

    def _tables(self):
        """Tables from ``_target`` on pairs of single-digit ids, by additivity.

        A single-digit id s = d*w has one nonzero digit d, at weight w, so it
        is d e_p for the position p of w.  Their products (c e_p)(d e_q) =
        (cd) e_t, with t = _target[p, q], are one gather of the base's mul
        table, c before d, as the base may be noncommutative.  Ids are
        mixed-radix, so the block [s, s + w) holds s + r for every r < w,
        and walking the weights upwards each block reads only rows already
        built: add[s + r] = add[s][add[r]] and (s + r)*b = s*b + r*b.  The
        rows of the single-digit ids are filled first, column block by column
        block: s*(t + r) = s*t + s*r.  The add table is complete before the
        mul pass starts, because the mul gathers read arbitrary add entries.
        Row blocks keep each gather's temporary to _BLOCK_ENTRIES entries.
        """
        n, m = self.size, self.base.size
        d = self.digits
        idx = np.arange(n, dtype=np.int64)
        # (weight, digit position), least significant first
        levels = [(int(self._weights[l]), l) for l in reversed(range(self.width))]
        coef = np.tile(np.arange(1, m), self.width)
        pos = np.repeat([l for _, l in levels], m - 1)
        singles = coef * self._weights[pos]

        add = np.empty((n, n), dtype=ID_DTYPE)
        add[0] = idx
        for w, l in levels:
            col = d[:, l].astype(np.int64)
            for s in range(w, m * w, w):
                add[s] = idx + (self.base.add_table[s // w, col] - col) * w
                for rows in _row_blocks(1, w, n):
                    add[s + rows.start : s + rows.stop] = add[s][add[rows]]

        mul = np.zeros((n, n), dtype=ID_DTYPE)
        target = self._target[np.ix_(pos, pos)]
        cd = self.base.mul_table[np.ix_(coef, coef)]
        mul[np.ix_(singles, singles)] = np.where(target >= 0, cd * self._weights[target], 0)
        for w, _ in levels:
            for t in range(w, m * w, w):
                mul[singles, t + 1 : t + w] = add[mul[singles, 1:w], mul[singles, t][:, None]]
        for w, _ in levels:
            for s in range(w, m * w, w):
                for rows in _row_blocks(1, w, n):
                    mul[s + rows.start : s + rows.stop] = add[mul[rows], mul[s]]

        neg = (self.base.neg_table[d].astype(np.int64) @ self._weights).astype(ID_DTYPE)
        return add, mul, neg


class MatrixRing(_DigitRing):
    def __init__(self, spec: MatrixSpec, base: FiniteRing):
        self.spec = spec
        self.base = base
        self.k = spec.k
        self.width = spec.k * spec.k
        self.size = base.size**self.width
        one_digits = [
            base.one if i == j else base.zero for i in range(spec.k) for j in range(spec.k)
        ]
        self.one = self.encode(one_digits)

    @cached_property
    def _target(self) -> np.ndarray:
        # E_ij E_jl = E_il, and E_ij E_kl = 0 when j != k
        i, j = np.divmod(np.arange(self.width), self.k)
        return np.where(j[:, None] == i[None, :], i[:, None] * self.k + j[None, :], -1)

    def render(self, a):
        digs = self.digits_of(a)
        k = self.k
        rows = []
        for i in range(k):
            rows.append("[" + ",".join(self.base.render(digs[i * k + j]) for j in range(k)) + "]")
        return "[" + ",".join(rows) + "]"

    def from_value(self, value):
        k = self.k
        digs = [self.base.from_value(value[i][j]) for i in range(k) for j in range(k)]
        return self.encode(digs)


class _CoefficientRing(_DigitRing):
    """Coefficient vectors over the base on a basis named by ``basis_names``,
    whose first element is the unity."""

    basis_names: Sequence[str]

    def __init__(self, spec: GroupRingSpec | TruncatedPolySpec, base: FiniteRing):
        self.spec = spec
        self.base = base
        self.width = len(self.basis_names)
        self.size = base.size**self.width
        self.one = self.encode([base.one] + [base.zero] * (self.width - 1))

    def render(self, a):
        terms = [
            self.base.render(c) if p == 0 else f"{self.base.render(c)}*{self.basis_names[p]}"
            for p, c in enumerate(self.digits_of(a))
            if c != self.base.zero
        ]
        return " + ".join(terms) if terms else "0"

    def from_value(self, value):
        digs = [self.base.from_value(c) for c in value]
        if len(digs) != self.width:
            raise MalformedSpec(f"expected {self.width} coefficients, got {len(digs)}")
        return self.encode(digs)


class GroupRing(_CoefficientRing):
    @cached_property
    def group(self) -> FiniteGroup:
        return FiniteGroup(self.spec.group)

    @property
    def basis_names(self):
        return self.group.names

    @property
    def _target(self) -> np.ndarray:
        return self.group.mul_table


class TruncatedPolyRing(_CoefficientRing):
    """Polynomials over the base modulo x^bound, coefficients low degree first."""

    @cached_property
    def basis_names(self):
        return ["1", "x", *(f"x^{i}" for i in range(2, self.spec.bound))][: self.spec.bound]

    @cached_property
    def _target(self) -> np.ndarray:
        # x^i x^j = x^(i+j) below the bound, and 0 from there on
        i = np.arange(self.width)
        t = i[:, None] + i[None, :]
        return np.where(t < self.width, t, -1)


class QuotientRing(FiniteRing):
    """Ring of cosets of a two-sided ideal, enumerated by minimal representatives."""

    def __init__(self, base: FiniteRing, ideal: "Ideal", spec: QuotientSpec | None = None):
        if ideal.owner is not base:
            raise NotAnIdeal("ideal belongs to a different ring")
        self.spec = spec
        self.base = base
        self.ideal = ideal
        members = ideal.elements_array
        rep_of = np.concatenate(
            [
                base.add_table[rows][:, members].min(axis=1)
                for rows in _row_blocks(0, base.size, members.size)
            ]
        )
        reps = np.unique(rep_of)
        self.reps = reps.astype(np.int64)
        self.surjection = np.searchsorted(reps, rep_of).astype(np.int64)
        self.size = len(reps)
        self.one = int(self.surjection[base.one])

    def _tables(self):
        return _induced_tables(self.base, self.surjection, self.reps)

    def render(self, a):
        return f"{self.base.render(int(self.reps[a]))}+I"

    def from_value(self, value):
        return int(self.surjection[self.base.from_value(value)])

    def describe(self) -> str:
        if self.spec is not None:
            return spec_string(self.spec)
        gens = ",".join(str(int(g)) for g in self.ideal.elements_array[:4])
        return f"Q({self.base.describe()},[{gens}...])"


class CornerRing(FiniteRing):
    """The ring e*R*e for an idempotent e, with unity e."""

    def __init__(self, parent: FiniteRing, e: int):
        if parent.mul(e, e) != e:
            raise NotIdempotent(f"{parent.render(e)} is not idempotent")
        self.spec = None
        self.parent = parent
        self.e = e
        elems = np.unique(parent.mul_table[parent.mul_table[e], e])
        self.parent_elements = elems.astype(np.int64)
        self.size = len(elems)
        pos = np.full(parent.size, -1, dtype=np.int64)
        pos[self.parent_elements] = np.arange(self.size)
        self._pos = pos
        self.one = int(pos[e])

    def embed(self, a: int) -> int:
        return int(self.parent_elements[a])

    def position(self, parent_id: int) -> int:
        p = int(self._pos[parent_id])
        if p < 0:
            raise ValueError(f"{self.parent.render(parent_id)} is not in the corner")
        return p

    def _tables(self):
        return _induced_tables(self.parent, self._pos, self.parent_elements)

    def render(self, a):
        return self.parent.render(self.embed(a))

    def from_value(self, value):
        return self.position(self.parent.from_value(value))

    def describe(self) -> str:
        return f"corner({self.parent.describe()},{self.parent.render(self.e)})"


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A two-sided ideal, stored as a boolean mask over the owner.

    A mask from outside (``Ideal(...)``, ``Ideal.from_elements``) is validated
    once, here. The ideals starclean builds are ideals by construction and are
    not: ``generated_ideal`` by its closure argument, and J(R) by the
    quasi-regularity theorem. So a ``QuotientRing`` trusts its ideal.
    """

    def __init__(self, owner: FiniteRing, mask: np.ndarray, check: bool = True):
        self.owner = owner
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != (owner.size,):
            raise NotAnIdeal("mask shape does not match the ring")
        self.elements_array = np.flatnonzero(self.mask).astype(np.int64)
        self.size = int(self.mask.sum())
        if check:
            self.validate()

    @classmethod
    def from_elements(cls, owner: FiniteRing, elems: Iterable[int]) -> "Ideal":
        mask = np.zeros(owner.size, dtype=bool)
        mask[list(elems)] = True
        return cls(owner, mask)

    def elements(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.elements_array)

    def validate(self) -> None:
        R = self.owner
        if not self.mask[R.zero]:
            raise NotAnIdeal("0 is missing")
        idx = self.elements_array
        if not self.mask[R.add_table[np.ix_(idx, idx)]].all():
            raise NotAnIdeal("not closed under addition")
        if not self.mask[R.mul_table[:, idx]].all():
            raise NotAnIdeal("not closed under left multiplication")
        if not self.mask[R.mul_table[idx, :]].all():
            raise NotAnIdeal("not closed under right multiplication")

    def __repr__(self):
        return f"<Ideal size={self.size} of {self.owner.describe()}>"


def _additive_span(R: FiniteRing, within: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the additive span of the ids in the mask within, and its
    generators: each the least id of within outside the span of those
    before it. Each generator at least doubles the span, so there are at
    most log2(n)."""
    add, zero = R.add_table, R.zero
    span = np.zeros(R.size, dtype=bool)
    span[zero] = True
    gens = []
    while not span[within].all():
        g = int(np.argmax(within & ~span))
        gens.append(g)
        # multiples 0, g, 2g, ... by doubling, up to the least m > 0 with
        # mg in the span H; then H + <g> is the union of H + kg for k < m
        mult = np.array([zero, g])
        while not span[mult[1:]].any():
            mult = np.concatenate([mult, add[mult, add[mult[-1], g]]])
        m = 1 + int(np.argmax(span[mult[1:]]))
        span[add[np.ix_(np.flatnonzero(span), mult[:m])]] = True
    return span, np.array(gens, dtype=np.intp)


def generated_ideal(R: FiniteRing, generators: Iterable[int]) -> Ideal:
    """Two-sided ideal generated by the given elements.

    The ideal is the additive closure of R·G·R, which holds G because 1 is
    in R. R·G·R is closed under left and right multiplication, and sums of
    such a set stay closed under both, so after the one multiplication
    gather only the additive span remains, which ``_additive_span`` walks.
    The result is an ideal by this argument, so it is not validated.
    """
    mul = R.mul_table
    gens = np.asarray(list(generators), dtype=np.int64)
    if (mul[gens] == R.one).any():
        # if uv = 1 for a generator u, as for a unit (u·u⁻¹ = 1), then 1 is
        # in the ideal and so is all of R: no table needs gathering
        return Ideal(R, np.ones(R.size, dtype=bool), check=False)
    rgr = np.zeros(R.size, dtype=bool)
    rgr[mul[np.unique(mul[:, gens]), :]] = True
    return Ideal(R, _additive_span(R, rgr)[0], check=False)


# ---------------------------------------------------------------------------
# construction and module-level operations


def build_ring(spec: RingSpec, cap: int | None = None) -> FiniteRing:
    """Construct and enumerate the ring described by the spec."""
    resolved = current_size_cap(cap)
    validate_spec(spec, resolved)
    return _build(spec)


def _build(spec: RingSpec) -> FiniteRing:
    if isinstance(spec, Zmod):
        return ZmodRing(spec)
    if isinstance(spec, MatrixSpec):
        return MatrixRing(spec, _build(spec.base))
    if isinstance(spec, ProductSpec):
        return ProductRing(spec, _build(spec.left), _build(spec.right))
    if isinstance(spec, GroupRingSpec):
        return GroupRing(spec, _build(spec.base))
    if isinstance(spec, TruncatedPolySpec):
        return TruncatedPolyRing(spec, _build(spec.base))
    if isinstance(spec, QuotientSpec):
        base = _build(spec.base)
        ideal = generated_ideal(base, spec.generators)
        return QuotientRing(base, ideal, spec=spec)
    raise MalformedSpec(f"not a ring spec: {spec!r}")
