"""Textual recipes for rings and involutions.

Ring grammar (whitespace ignored, products left-associative)::

    ring  := primary ("x" primary)*
    primary := "Z" int | "M" int "(" ring ")" | "GR(" ring "," group ")"
             | "TP(" ring "," int ")" | "Q(" ring ",[" int ("," int)* "])"
    group := "C" int ("*" "C" int)*

Involution grammar::

    involution := "id" | "swap" | digitwise "(" involution ")"
                | "prod(" involution "," involution ")" | "table:" filename
    digitwise := "tr" | "grp" | "tp"

Each recipe shape has one spec class and one branch in parsing, printing
and building: ``NamedInv`` (id, swap) reads ``_NAMED``, and ``DigitwiseInv``
(tr, grp, tp: the coefficient ring's involution, digit by digit) reads
``_DIGITWISE``.

An involution recipe for a quotient ring is interpreted on the pre-quotient
ring and pushed through the surjection, which requires the defining ideal to
be star-invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import ParseError, ValidationError
from .involutions import (
    Involution,
    StarRing,
    group_ring_involution,
    identity_involution,
    product_involution,
    quotient_involution,
    swap_involution,
    table_involution,
    transpose_involution,
    truncated_poly_involution,
)
from .rings import (
    Cyclic,
    FiniteRing,
    GroupProduct,
    GroupRing,
    GroupRingSpec,
    MatrixRing,
    MatrixSpec,
    ProductRing,
    ProductSpec,
    QuotientRing,
    QuotientSpec,
    RingSpec,
    TruncatedPolyRing,
    TruncatedPolySpec,
    Zmod,
    build_ring,
    spec_string,
)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)

    def eat(self, literal: str) -> bool:
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.eat(literal):
            raise ParseError(f"expected {literal!r}", self.text, self.pos)

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.text, self.pos)
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # more digits than the interpreter converts
            raise ParseError("integer too long", self.text, start) from exc

    def filename(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",)" and not self.text[
            self.pos
        ].isspace():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a filename", self.text, self.pos)
        return self.text[start : self.pos]


# -- ring specs -----------------------------------------------------------------


def _ring(sc: _Scanner) -> RingSpec:
    spec = _primary(sc)
    while sc.eat("x"):
        spec = ProductSpec(spec, _primary(sc))
    return spec


def _primary(sc: _Scanner) -> RingSpec:
    if sc.eat("GR("):
        base = _ring(sc)
        sc.expect(",")
        group = _group(sc)
        sc.expect(")")
        return GroupRingSpec(base, group)
    if sc.eat("TP("):
        base = _ring(sc)
        sc.expect(",")
        bound = sc.integer()
        sc.expect(")")
        return TruncatedPolySpec(base, bound)
    if sc.eat("Q("):
        base = _ring(sc)
        sc.expect(",")
        sc.expect("[")
        gens = [sc.integer()]
        while sc.eat(","):
            gens.append(sc.integer())
        sc.expect("]")
        sc.expect(")")
        return QuotientSpec(base, tuple(gens))
    if sc.eat("M"):
        k = sc.integer()
        sc.expect("(")
        base = _ring(sc)
        sc.expect(")")
        return MatrixSpec(k, base)
    if sc.eat("Z"):
        return Zmod(sc.integer())
    raise ParseError("expected a ring constructor (Z, M, GR, TP, Q)", sc.text, sc.pos)


def _group(sc: _Scanner):
    spec = _group_primary(sc)
    while sc.eat("*"):
        spec = GroupProduct(spec, _group_primary(sc))
    return spec


def _group_primary(sc: _Scanner):
    if sc.eat("C"):
        return Cyclic(sc.integer())
    raise ParseError("expected a group constructor (C)", sc.text, sc.pos)


def parse_ring_spec(text: str) -> RingSpec:
    sc = _Scanner(text)
    spec = _ring(sc)
    if not sc.done():
        raise ParseError("unexpected trailing input", text, sc.pos)
    return spec


# -- involution specs -------------------------------------------------------------


@dataclass(frozen=True)
class NamedInv:
    name: str  # a key of _NAMED


@dataclass(frozen=True)
class DigitwiseInv:
    name: str  # a key of _DIGITWISE
    inner: "InvSpec"  # the involution of the coefficient ring


@dataclass(frozen=True)
class ProdInv:
    left: "InvSpec"
    right: "InvSpec"


@dataclass(frozen=True)
class TableInv:
    path: str


InvSpec = Union[NamedInv, DigitwiseInv, ProdInv, TableInv]

_NAMED = {"id": identity_involution, "swap": swap_involution}
# name: (ring class it needs, that ring in words, constructor)
_DIGITWISE = {
    "tr": (MatrixRing, "a matrix ring", transpose_involution),
    "grp": (GroupRing, "a group ring", group_ring_involution),
    "tp": (TruncatedPolyRing, "a truncated polynomial ring", truncated_poly_involution),
}


def _inv(sc: _Scanner) -> InvSpec:
    for name in _NAMED:
        if sc.eat(name):
            return NamedInv(name)
    for name in _DIGITWISE:
        if sc.eat(f"{name}("):
            inner = _inv(sc)
            sc.expect(")")
            return DigitwiseInv(name, inner)
    if sc.eat("prod("):
        left = _inv(sc)
        sc.expect(",")
        right = _inv(sc)
        sc.expect(")")
        return ProdInv(left, right)
    if sc.eat("table:"):
        return TableInv(sc.filename())
    raise ParseError(
        "expected an involution (id, swap, tr, grp, tp, prod, table:)", sc.text, sc.pos
    )


def parse_involution_spec(text: str) -> InvSpec:
    sc = _Scanner(text)
    spec = _inv(sc)
    if not sc.done():
        raise ParseError("unexpected trailing input", text, sc.pos)
    return spec


def involution_spec_string(spec: InvSpec) -> str:
    if isinstance(spec, NamedInv):
        return spec.name
    if isinstance(spec, DigitwiseInv):
        return f"{spec.name}({involution_spec_string(spec.inner)})"
    if isinstance(spec, ProdInv):
        return (
            f"prod({involution_spec_string(spec.left)},{involution_spec_string(spec.right)})"
        )
    if isinstance(spec, TableInv):
        return f"table:{spec.path}"
    raise ValidationError(f"not an involution spec: {spec!r}")


def make_involution(R: FiniteRing, spec: InvSpec, base_dir: Path | None = None) -> Involution:
    """Realize an involution recipe on a concrete ring, validating shape."""
    if isinstance(R, QuotientRing):
        base_inv = make_involution(R.base, spec, base_dir)
        return quotient_involution(R, base_inv, involution_spec_string(spec))
    if isinstance(spec, NamedInv):
        return _NAMED[spec.name](R)
    if isinstance(spec, DigitwiseInv):
        ring_class, needed, construct = _DIGITWISE[spec.name]
        # checked before the recursion, which reads R.base
        if not isinstance(R, ring_class):
            raise ValidationError(f"{spec.name}(...) needs {needed}, got {R.describe()}")
        return construct(R, make_involution(R.base, spec.inner, base_dir))
    if isinstance(spec, ProdInv):
        if not isinstance(R, ProductRing):
            raise ValidationError(f"prod(...) needs a product ring, got {R.describe()}")
        return product_involution(
            R,
            make_involution(R.left, spec.left, base_dir),
            make_involution(R.right, spec.right, base_dir),
        )
    if isinstance(spec, TableInv):
        path = Path(spec.path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            text = path.read_text()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise ValidationError(f"cannot read involution table {path}: {exc}") from exc
        try:
            mapping = json.loads(text)
        except ValueError as exc:  # bad JSON, or an integer too long to convert
            raise ValidationError(f"involution table {path} is not valid JSON") from exc
        if (
            not isinstance(mapping, list)
            or len(mapping) != R.size
            or not all(type(v) is int and 0 <= v < R.size for v in mapping)
        ):
            raise ValidationError(
                f"involution table must be a list of {R.size} integer element ids "
                f"in 0..{R.size - 1}"
            )
        return table_involution(R, mapping, label=f"table:{spec.path}")
    raise ValidationError(f"not an involution spec: {spec!r}")


def build_star_ring(
    ring_text: str,
    inv_text: str,
    cap: int | None = None,
    base_dir: Path | None = None,
    label: str | None = None,
) -> StarRing:
    """Parse, build, and validate a star ring from its two textual recipes."""
    rspec = parse_ring_spec(ring_text)
    ispec = parse_involution_spec(inv_text)
    ring = build_ring(rspec, cap)
    if ring.one == ring.zero:
        # a quotient by an ideal holding 1; QUOT still builds R/R internally
        raise ValidationError(f"{spec_string(rspec)} is the zero ring, where 1 = 0")
    inv = make_involution(ring, ispec, base_dir)
    canonical = f"{spec_string(rspec)}/{involution_spec_string(ispec)}"
    return StarRing(ring, inv, label=label or canonical)
