"""Finite unital rings assembled from a compositional recipe.

Every ring exposes its elements as integer ids ``0..size-1`` in a fixed
mixed-radix enumeration over the construction tree: matrix entries are read
row-major, group-ring coefficients in group element order, product components
left to right, and the first component is the most significant digit.  Id 0
is always the additive zero.  All arithmetic reads memoized Cayley tables,
built once per ring.  Each construction defines its product once, in
``_scalar_mul``; digit rings (matrices, group rings, truncated polynomials)
call it only on pairs of single-digit elements and extend the table to every
pair by additivity (see ``_DigitRing._tables``).
"""

from __future__ import annotations

import os
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
# the uint16 add and mul tables hold 4, the tables of a product's factors or
# of a quotient, or the n x n mask that checks an identity involution's ring
# is commutative, up to 1.5 more; every other gather runs in row blocks
TABLE_BYTES_PER_PAIR = 6

# entries of one row block of a widened gather in the table builders
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


def _induced_table(lookup: np.ndarray, table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """lookup[table[a, b]] for a, b in ids, gathered in row blocks."""
    m = len(ids)
    out = np.empty((m, m), dtype=ID_DTYPE)
    for rows in _row_blocks(0, m, m):
        out[rows] = lookup[table[np.ix_(ids[rows], ids)]]
    return out


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
    """Element count of the spec; for quotients, the pre-quotient bound."""
    if isinstance(spec, Zmod):
        return spec.n
    if isinstance(spec, MatrixSpec):
        return spec_size_bound(spec.base) ** (spec.k * spec.k)
    if isinstance(spec, ProductSpec):
        return spec_size_bound(spec.left) * spec_size_bound(spec.right)
    if isinstance(spec, GroupRingSpec):
        return spec_size_bound(spec.base) ** _validate_group_spec(spec.group)
    if isinstance(spec, TruncatedPolySpec):
        return spec_size_bound(spec.base) ** spec.bound
    if isinstance(spec, QuotientSpec):
        return spec_size_bound(spec.base)
    raise MalformedSpec(f"not a ring spec: {spec!r}")


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

    Subclasses provide structural scalar arithmetic and a table builder;
    everything else (units, idempotents, nilpotents, center, the Jacobson
    radical, right-ideal masks) is derived here from the tables and cached.
    """

    spec: RingSpec | None = None
    size: int
    one: int
    zero: int = 0

    # -- structural scalar arithmetic: the reference the tables must match --

    def _scalar_add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _scalar_mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _scalar_neg(self, a: int) -> int:
        raise NotImplementedError

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
        return self.sub(self.one, a)

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

    # -- derived subsets ------------------------------------------------------

    @cached_property
    def _unit_data(self) -> tuple[tuple[int, ...], np.ndarray]:
        inv = np.full(self.size, -1, dtype=np.int64)
        units: list[int] = []
        eq = self.mul_table == self.one
        for a in range(self.size):
            for b in np.flatnonzero(eq[a]):
                if eq[b, a]:
                    units.append(a)
                    inv[a] = b
                    break
        return tuple(units), inv

    def units(self) -> tuple[int, ...]:
        return self._unit_data[0]

    @cached_property
    def units_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        mask[list(self._unit_data[0])] = True
        return mask

    @cached_property
    def unit_ids(self) -> np.ndarray:
        """Ids of the units, ascending."""
        return np.flatnonzero(self.units_mask)

    @cached_property
    def unit_inverse_ids(self) -> np.ndarray:
        """The inverse of each unit, aligned with ``unit_ids``."""
        return self._unit_data[1][self.unit_ids]

    def inverse(self, a: int) -> int:
        b = int(self._unit_data[1][a])
        if b < 0:
            raise ValueError(f"{self.render(a)} is not a unit")
        return b

    @cached_property
    def idempotent_mask(self) -> np.ndarray:
        return self.mul_table.diagonal() == np.arange(self.size)

    @cached_property
    def idempotent_ids(self) -> np.ndarray:
        """Ids of the idempotents, ascending."""
        return np.flatnonzero(self.idempotent_mask)

    @cached_property
    def _idempotents(self) -> tuple[int, ...]:
        return tuple(self.idempotent_ids.tolist())

    def idempotents(self) -> tuple[int, ...]:
        return self._idempotents

    @cached_property
    def nilpotent_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        for a in range(self.size):
            mask[a] = self.is_nilpotent(a)
        return mask

    def nilpotents(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.nilpotent_mask))

    @cached_property
    def center_mask(self) -> np.ndarray:
        return (self.mul_table == self.mul_table.T).all(axis=1)

    def center(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.center_mask))

    @cached_property
    def is_commutative(self) -> bool:
        return bool(self.center_mask.all())

    @cached_property
    def _corners(self) -> dict[int, np.ndarray]:
        return {}

    def corner_ids(self, e: int) -> np.ndarray:
        """Ids of the corner eRe, ascending; cached per e."""
        ids = self._corners.get(e)
        if ids is None:
            ids = self._corners[e] = np.unique(self.mul_table[self.mul_table[e], e])
        return ids

    def commutant(self, a: int) -> np.ndarray:
        """Element ids commuting with a."""
        return np.flatnonzero(self.mul_table[a] == self.mul_table[:, a])

    def jacobson_radical(self) -> "Ideal":
        return self._jacobson

    @cached_property
    def _jacobson(self) -> "Ideal":
        # quasi-regularity: a is in the radical iff 1 - r*a is a unit for all r.
        # One-sided suffices here: left invertible implies invertible in a
        # finite ring (direct finiteness).
        one_minus_ra = self.one_minus_table[self.mul_table]
        mask = self.units_mask[one_minus_ra].all(axis=0)
        ideal = Ideal(self, mask, check=False)
        ideal.validate()
        return ideal

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
    def comaximal_pairs(self) -> np.ndarray:
        """Boolean matrix: entry (a, b) iff aR + bR = R.

        The entry depends only on (aR, bR), so it is decided once per pair of
        distinct principal right ideals and copied to every pair of elements.
        """
        cls, reps = self.principal_right_ideal_classes
        ar = self.right_ideal_masks[reps]
        flipped = np.zeros_like(ar)
        flipped[:, self.one_minus_table] = ar  # row b marks {1 - v : v in bR}
        # counts of 0/1 terms: float32 is exact for deciding > 0 and uses BLAS
        counts = ar.astype(np.float32) @ flipped.T.astype(np.float32)
        return (counts > 0)[np.ix_(cls, cls)]

    def directly_finite_witness(self) -> tuple[int, int] | None:
        """Pair (a, b) with ab = 1 but ba != 1, or None."""
        pos = np.argwhere(self.mul_table == self.one)
        bad = self.mul_table[pos[:, 1], pos[:, 0]] != self.one
        if bad.any():
            a, b = pos[np.flatnonzero(bad)[0]]
            return int(a), int(b)
        return None


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

    def _scalar_add(self, a, b):
        return (a + b) % self.size

    def _scalar_mul(self, a, b):
        return (a * b) % self.size

    def _scalar_neg(self, a):
        return (-a) % self.size

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

    def _scalar_add(self, a, b):
        al, ar = self.split(a)
        bl, br = self.split(b)
        return self.join(self.left.add(al, bl), self.right.add(ar, br))

    def _scalar_mul(self, a, b):
        al, ar = self.split(a)
        bl, br = self.split(b)
        return self.join(self.left.mul(al, bl), self.right.mul(ar, br))

    def _scalar_neg(self, a):
        al, ar = self.split(a)
        return self.join(self.left.neg(al), self.right.neg(ar))

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
    """Shared machinery for rings whose elements are digit vectors over a base."""

    base: FiniteRing
    width: int

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

    def _scalar_add(self, a, b):
        da, db = self.digits_of(a), self.digits_of(b)
        return self.encode([self.base.add(x, y) for x, y in zip(da, db)])

    def _scalar_neg(self, a):
        return self.encode([self.base.neg(x) for x in self.digits_of(a)])

    def _tables(self):
        """Tables from ``_scalar_mul`` on pairs of single-digit ids, by additivity.

        A single-digit id s = d*w has one nonzero digit d, at weight w.  Ids
        are mixed-radix, so the block [s, s + w) holds s + r for every r < w,
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
        singles = np.array([dg * w for w, _ in levels for dg in range(1, m)], dtype=np.int64)

        add = np.empty((n, n), dtype=ID_DTYPE)
        add[0] = idx
        for w, l in levels:
            col = d[:, l].astype(np.int64)
            for s in range(w, m * w, w):
                add[s] = idx + (self.base.add_table[s // w, col] - col) * w
                for rows in _row_blocks(1, w, n):
                    add[s + rows.start : s + rows.stop] = add[s][add[rows]]

        mul = np.zeros((n, n), dtype=ID_DTYPE)
        mul[np.ix_(singles, singles)] = [
            [self._scalar_mul(a, b) for b in singles.tolist()] for a in singles.tolist()
        ]
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

    def _scalar_mul(self, a, b):
        da, db = self.digits_of(a), self.digits_of(b)
        k, B = self.k, self.base
        out = []
        for i in range(k):
            for j in range(k):
                s = B.zero
                for l in range(k):
                    s = B.add(s, B.mul(da[i * k + l], db[l * k + j]))
                out.append(s)
        return self.encode(out)

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


class GroupRing(_DigitRing):
    def __init__(self, spec: GroupRingSpec, base: FiniteRing):
        self.spec = spec
        self.base = base
        self.group = FiniteGroup(spec.group)
        self.width = self.group.order
        self.size = base.size**self.width
        one_digits = [base.one] + [base.zero] * (self.width - 1)
        self.one = self.encode(one_digits)

    def _scalar_mul(self, a, b):
        da, db = self.digits_of(a), self.digits_of(b)
        B, G = self.base, self.group
        out = [B.zero] * self.width
        for g in range(self.width):
            if da[g] == B.zero:
                continue
            for h in range(self.width):
                t = int(G.mul_table[g, h])
                out[t] = B.add(out[t], B.mul(da[g], db[h]))
        return self.encode(out)

    def render(self, a):
        digs = self.digits_of(a)
        terms = []
        for g, c in enumerate(digs):
            if c == self.base.zero:
                continue
            name = self.group.names[g]
            if g == 0:
                terms.append(self.base.render(c))
            else:
                terms.append(f"{self.base.render(c)}*{name}")
        return " + ".join(terms) if terms else "0"

    def from_value(self, value):
        digs = [self.base.from_value(c) for c in value]
        if len(digs) != self.width:
            raise MalformedSpec(f"expected {self.width} coefficients, got {len(digs)}")
        return self.encode(digs)


class TruncatedPolyRing(_DigitRing):
    """Polynomials over the base modulo x^bound, coefficients low degree first."""

    def __init__(self, spec: TruncatedPolySpec, base: FiniteRing):
        self.spec = spec
        self.base = base
        self.width = spec.bound
        self.size = base.size**self.width
        one_digits = [base.one] + [base.zero] * (self.width - 1)
        self.one = self.encode(one_digits)

    def _scalar_mul(self, a, b):
        da, db = self.digits_of(a), self.digits_of(b)
        B = self.base
        out = [B.zero] * self.width
        for i in range(self.width):
            if da[i] == B.zero:
                continue
            for j in range(self.width - i):
                out[i + j] = B.add(out[i + j], B.mul(da[i], db[j]))
        return self.encode(out)

    def render(self, a):
        digs = self.digits_of(a)
        terms = []
        for i, c in enumerate(digs):
            if c == self.base.zero:
                continue
            if i == 0:
                terms.append(self.base.render(c))
            elif i == 1:
                terms.append(f"{self.base.render(c)}*x")
            else:
                terms.append(f"{self.base.render(c)}*x^{i}")
        return " + ".join(terms) if terms else "0"

    def from_value(self, value):
        digs = [self.base.from_value(c) for c in value]
        if len(digs) != self.width:
            raise MalformedSpec(f"expected {self.width} coefficients, got {len(digs)}")
        return self.encode(digs)


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
        if self.size * ideal.size != base.size:
            raise NotAnIdeal("coset partition is not uniform; subset is not an ideal")
        self.one = int(self.surjection[base.one])

    def _scalar_add(self, a, b):
        return int(self.surjection[self.base.add(int(self.reps[a]), int(self.reps[b]))])

    def _scalar_mul(self, a, b):
        return int(self.surjection[self.base.mul(int(self.reps[a]), int(self.reps[b]))])

    def _scalar_neg(self, a):
        return int(self.surjection[self.base.neg(int(self.reps[a]))])

    def _tables(self):
        B, reps, onto = self.base, self.reps, self.surjection
        return (
            _induced_table(onto, B.add_table, reps),
            _induced_table(onto, B.mul_table, reps),
            onto[B.neg_table[reps]].astype(ID_DTYPE),
        )

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
        elems = parent.corner_ids(e)
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

    def _scalar_add(self, a, b):
        return self.position(self.parent.add(self.embed(a), self.embed(b)))

    def _scalar_mul(self, a, b):
        return self.position(self.parent.mul(self.embed(a), self.embed(b)))

    def _scalar_neg(self, a):
        return self.position(self.parent.neg(self.embed(a)))

    def _tables(self):
        P, elems, pos = self.parent, self.parent_elements, self._pos
        return (
            _induced_table(pos, P.add_table, elems),
            _induced_table(pos, P.mul_table, elems),
            pos[P.neg_table[elems]].astype(ID_DTYPE),
        )

    def render(self, a):
        return self.parent.render(self.embed(a))

    def from_value(self, value):
        return self.position(self.parent.from_value(value))

    def describe(self) -> str:
        return f"corner({self.parent.describe()},{self.parent.render(self.e)})"


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A validated two-sided ideal, stored as a boolean mask over the owner."""

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
    def from_elements(cls, owner: FiniteRing, elems: Iterable[int], check: bool = True) -> "Ideal":
        mask = np.zeros(owner.size, dtype=bool)
        mask[list(elems)] = True
        return cls(owner, mask, check=check)

    def elements(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.elements_array)

    def contains(self, a: int) -> bool:
        return bool(self.mask[a])

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

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.owner is self.owner
            and bool((other.mask == self.mask).all())
        )

    def __hash__(self):
        return hash((id(self.owner), self.elements()))

    def __repr__(self):
        return f"<Ideal size={self.size} of {self.owner.describe()}>"


def generated_ideal(R: FiniteRing, generators: Iterable[int]) -> Ideal:
    """Two-sided ideal generated by the given elements.

    The ideal is the additive closure of R·G·R, which holds G because 1 is
    in R. R·G·R is closed under left and right multiplication, and sums of
    such a set stay closed under both, so after the one multiplication
    gather only the additive closure remains; it runs by doubling.
    """
    mul = R.mul_table
    gens = np.asarray(list(generators), dtype=np.int64)
    mask = np.zeros(R.size, dtype=bool)
    mask[R.zero] = True
    mask[mul[np.unique(mul[:, gens]), :]] = True
    while True:
        idx = np.flatnonzero(mask)
        new = mask.copy()
        new[R.add_table[np.ix_(idx, idx)]] = True
        if np.count_nonzero(new) == idx.size:
            break
        mask = new
    return Ideal(R, mask, check=False)


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


def units(R: FiniteRing) -> tuple[int, ...]:
    return R.units()


def idempotents(R: FiniteRing) -> tuple[int, ...]:
    return R.idempotents()


def nilpotents(R: FiniteRing) -> tuple[int, ...]:
    return R.nilpotents()


def jacobson_radical(R: FiniteRing) -> Ideal:
    return R.jacobson_radical()


def quotient(R: FiniteRing, ideal: Ideal) -> QuotientRing:
    if ideal.owner is not R:
        raise NotAnIdeal("ideal belongs to a different ring")
    ideal.validate()
    return QuotientRing(R, ideal)


def corner(R: FiniteRing, e: int) -> CornerRing:
    return CornerRing(R, e)


def is_local(R: FiniteRing) -> tuple[bool, int | None]:
    """True iff every a has a or 1-a invertible; witness element otherwise."""
    ok = R.units_mask | R.units_mask[R.one_minus_table]
    bad = np.flatnonzero(~ok)
    return (True, None) if bad.size == 0 else (False, int(bad[0]))


# ---------------------------------------------------------------------------
# axiom checking


_AXIOMS = (
    "add-commutative",
    "add-associative",
    "zero-identity",
    "neg-inverse",
    "mul-associative",
    "one-identity",
    "left-distributive",
    "right-distributive",
)


def check_ring_axioms(
    R: FiniteRing,
    exhaustive_limit: int = 512,
    samples: int = 4096,
    seed: int = 0,
) -> list[tuple[str, tuple[int, ...]]]:
    """Verify the ring axioms; exhaustive up to the limit, sampled above.

    Returns a list of (axiom, witness ids); empty means everything holds.
    """
    n = R.size
    violations: list[tuple[str, tuple[int, ...]]] = []
    if n <= exhaustive_limit:
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

    rng = np.random.default_rng(seed)
    triples = rng.integers(0, n, size=(samples, 3))
    for a, b, c in triples.tolist():
        if R.add(a, b) != R.add(b, a):
            violations.append(("add-commutative", (a, b)))
        if R.add(R.add(a, b), c) != R.add(a, R.add(b, c)):
            violations.append(("add-associative", (a, b, c)))
        if R.add(R.zero, a) != a:
            violations.append(("zero-identity", (a,)))
        if R.add(a, R.neg(a)) != R.zero:
            violations.append(("neg-inverse", (a,)))
        if R.mul(R.mul(a, b), c) != R.mul(a, R.mul(b, c)):
            violations.append(("mul-associative", (a, b, c)))
        if R.mul(R.one, a) != a or R.mul(a, R.one) != a:
            violations.append(("one-identity", (a,)))
        if R.mul(a, R.add(b, c)) != R.add(R.mul(a, b), R.mul(a, c)):
            violations.append(("left-distributive", (a, b, c)))
        if R.mul(R.add(a, b), c) != R.add(R.mul(a, c), R.mul(b, c)):
            violations.append(("right-distributive", (a, b, c)))
        if violations:
            break
    return violations
