"""Report assembly and serialization (JSON, fixed-width text, CSV).

JSON output is canonical: keys sorted, two-space indent, no trailing spaces.
Suite and matrix reports contain no timing fields, so identical inputs
produce byte-identical bytes regardless of parallelism.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .involutions import StarRing
from .properties import PROPERTIES, Verdict, ring_property
from .suites import SuiteResult


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


@dataclass
class PropertyReport:
    label: str
    size: int
    verdicts: dict[str, Verdict]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "size": self.size,
            "properties": {name: v.to_dict() for name, v in self.verdicts.items()},
        }


def corpus_matrix(
    corpus: list[StarRing], props: tuple[str, ...] = PROPERTIES, jobs: int = 1
):
    """One report per ring, in corpus order; ``jobs`` is accepted and ignored."""
    return [
        PropertyReport(S.label, S.ring.size, {prop: ring_property(S, prop) for prop in props})
        for S in corpus
    ]


def matrix_to_csv(reports: list[PropertyReport], props: tuple[str, ...] = PROPERTIES) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "size", *props])
    for report in reports:
        writer.writerow(
            [report.label, report.size]
            + [str(report.verdicts[p].value) for p in props]
        )
    return out.getvalue()


def matrix_to_text(reports: list[PropertyReport], props: tuple[str, ...] = PROPERTIES) -> str:
    label_w = max(5, max((len(r.label) for r in reports), default=5))
    lines = [f"{'ring':<{label_w}}  " + "  ".join(f"{p:>24}" for p in props)]
    for report in reports:
        cells = "  ".join(f"{str(report.verdicts[p].value):>24}" for p in props)
        lines.append(f"{report.label:<{label_w}}  {cells}")
    return "\n".join(lines) + "\n"


def suites_to_text(results: list[SuiteResult]) -> str:
    rows = []
    for result in results:
        for row in result.rows:
            rows.append((result.tag, row.label, "PASS" if row.ok else "VIOLATION", row.note))
    tag_w = max(len(r[0]) for r in rows)
    label_w = max(len(r[1]) for r in rows)
    lines = [
        f"{tag:<{tag_w}}  {label:<{label_w}}  {status:<9}  {note}".rstrip()
        for tag, label, status, note in rows
    ]
    overall = all(result.passed for result in results)
    lines.append(f"overall: {'PASS' if overall else 'VIOLATION'}")
    return "\n".join(lines) + "\n"


def suites_to_dict(results: list[SuiteResult], corpus: list[StarRing]) -> dict:
    return {
        "command": "suite",
        "corpus": [S.label for S in corpus],
        "suites": [result.to_dict() for result in results],
        "pass": all(result.passed for result in results),
    }
