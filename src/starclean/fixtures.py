"""Named fixtures bundling a recipe with its expected verdicts.

Each fixture reproduces one of the worked examples end to end and reports a
checklist that can be rerun from the command line in one shot.  A ring
fixture is a recipe pair plus ``(check name, property, expected verdict)``
rows, where the property is a ring property name or one of the named extra
checks below; the matrix fixture is a table of ``(matrix, expected)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .elements import spsr_conditions, strongly_star_regular_witness
from .involutions import StarRing
from .matrixops import DenseMatrix, is_spsr_matrix
from .properties import check_stable_range_pair, ring_property
from .specparse import build_star_ring


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "ok": bool(self.ok), "detail": self.detail}


# -- named extra checks: each maps a star ring to the value a row expects ----------


def _projections_are(*matrices) -> Callable[[StarRing], bool]:
    """Whether the projections are exactly the listed matrices."""
    return lambda S: set(S.projections()) == {S.ring.from_value(m) for m in matrices}


def _2_is_strongly_star_regular(S: StarRing) -> bool:
    return strongly_star_regular_witness(S, 2) is not None


def _2_meets_all_four_conditions(S: StarRing) -> bool:
    return all(spsr_conditions(S, 2).flags)


def _psr1_counterexample_e11_e21(S: StarRing) -> bool:
    R = S.ring
    e11 = R.from_value([[1, 0], [0, 0]])
    e21 = R.from_value([[0, 0], [1, 0]])
    return check_stable_range_pair(S, "psr1", e11, e21)


def _idempotent_count(S: StarRing) -> int:
    return len(S.ring.idempotent_ids)


class RingFixture(NamedTuple):
    ring: str
    inv: str
    rows: tuple  # (check name, property name or extra check, expected verdict)


FIXTURES = {
    "boolean-swap": RingFixture("Z2xZ2", "swap", (
        ("clean", "clean", True),
        ("not star-clean", "star-clean", False),
    )),
    "z4-identity": RingFixture("Z4", "id", (
        ("ring strongly pi-star-regular", "strongly-pi-star-regular", True),
        ("element 2 not strongly star-regular", _2_is_strongly_star_regular, False),
        ("element 2 meets all four conditions", _2_meets_all_four_conditions, True),
    )),
    "m2-z2-transpose": RingFixture("M2(Z2)", "tr(id)", (
        ("projections are the four diagonal ones",
         _projections_are([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]),
         True),
        ("unit-regular", "unit-regular", True),
        ("isr1", "isr1", True),
        ("psr1 fails", "psr1", False),
        ("canonical counterexample pair accepted", _psr1_counterexample_e11_e21, True),
        ("star-clean", "star-clean", True),
    )),
    "m2-z3-transpose": RingFixture("M2(Z3)", "tr(id)", (
        ("projections are the six listed matrices",
         _projections_are([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 1]],
                          [[2, 1], [1, 2]], [[2, 2], [2, 2]]),
         True),
        ("not strongly star-clean", "strongly-star-clean", False),
        ("psr1", "psr1", True),
        ("idempotent count is 14", _idempotent_count, 14),
    )),
    # (matrix, expected verdict of the Drazin criterion)
    "symmetric-matrix": (
        ([[2, 1], [1, 2]], True),
        ([[1, 1], [0, 0]], False),
        ([[0, 1], [0, 0]], True),
    ),
}


def run_fixture(name: str) -> tuple[bool, list[FixtureCheck]]:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURES)}")
    fixture = FIXTURES[name]
    if isinstance(fixture, RingFixture):
        S = build_star_ring(fixture.ring, fixture.inv)
        checks = [
            FixtureCheck(
                check,
                (ring_property(S, prop).value if isinstance(prop, str) else prop(S)) == expected,
            )
            for check, prop, expected in fixture.rows
        ]
    else:
        checks = [
            FixtureCheck(
                f"matrix {rows} -> {expected}",
                is_spsr_matrix(DenseMatrix(np.array(rows, dtype=complex)))[0] is expected,
            )
            for rows, expected in fixture
        ]
    return all(c.ok for c in checks), checks
