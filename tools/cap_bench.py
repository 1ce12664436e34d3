"""Wall time, peak memory and stdout digest of starclean commands at the size cap.

Usage:
    python3 tools/cap_bench.py [--src DIR] [--only TEXT]

Each command of the cap table runs as ``python -m starclean ...`` in its own
child process, from the source tree DIR (default: the ``src`` directory next
to this script), so two checkouts can be compared command by command. One
JSON line per command goes to stdout:

    {"name": ..., "command": ..., "exit": 0, "wall_s": 1.234,
     "peak_rss_mb": 123.4, "stdout_sha256_12": "0123456789ab"}

The peak is ``getrusage(RUSAGE_CHILDREN).ru_maxrss``. That figure is the
largest of all children a process has waited for, so every command is run
by a fresh measuring process (this script with ``--measure``) whose only
child is that command. That child gets a fixed environment, ``PATH``,
``PYTHONPATH=DIR`` and ``PYTHONDONTWRITEBYTECODE=1``, and nothing else of
the caller's: ``STARCLEAN_CAP`` does not leak into a measured command, and
a row's peak does not depend on the environment of the shell that ran the
script. The digest leaves out the one line of stdout that differs from run
to run, the ``elapsed_ms`` of ``check``, so equal digests mean equal
output. A command that exits non-zero also reports the last
line of its stderr. Corpus files for the ``suite`` and ``corpus-matrix``
commands are written to a temporary directory.

Uses the standard library only; starclean is only ever run, never imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the four rings at the default cap of 4096 elements, and the ladder
CAP_RINGS = (
    ("M2(Z8)", "tr(id)"),
    ("TP(Z2,12)", "tp(id)"),
    ("GR(Z4,C6)", "grp(id)"),
    ("GR(Z2,C12)", "grp(id)"),
)
# a ring of the cap size whose every element is a projection: |P| = n, and
# the one of half that size, the largest on which every suite runs in minutes
BOOLEAN_CAP_RING = ("x".join(["Z2"] * 12), "id")
BOOLEAN_HALF_RING = ("x".join(["Z2"] * 11), "id")
# a ring of the cap size with two units, so that stable range decides nearly
# every row, over a pool of 2048 projections
TWO_UNIT_CAP_RING = ("x".join(["Z2"] * 10 + ["Z4"]), "id")
LADDER = (
    ("M2(Z4)", "tr(id)"),
    ("M3(Z2)", "tr(id)"),
    ("M2(Z5)", "tr(id)"),
    ("GR(Z3,C6)", "grp(id)"),
    ("TP(Z2,10)", "tp(id)"),
)

# the wall time that `check` reports, the only run-dependent line of any stdout
_ELAPSED_LINE = re.compile(rb'^ *"elapsed_ms": .*\n', re.MULTILINE)


def _corpus_file(folder: Path, name: str, rings) -> str:
    path = folder / f"{name}.json"
    path.write_text(json.dumps([{"ring": r, "inv": i} for r, i in rings]))
    return str(path)


def cap_table(folder: Path) -> list[tuple[str, list[str]]]:
    """(name, starclean argv) for every command of the cap table."""
    one = {ring: _corpus_file(folder, ring, [(ring, inv)]) for ring, inv in CAP_RINGS}
    m2z8 = ["--ring", "M2(Z8)", "--inv", "tr(id)"]
    checks = ("sr1", "isr1", "psr1", "strongly-pi-star-regular", "strongly-pi-regular",
              "regular", "pi-regular", "exchange", "unit-regular", "directly-finite")
    table = [(f"check {p} M2(Z8)", ["check", *m2z8, "--prop", p]) for p in checks]
    table += [(f"corpus-matrix {ring}", ["corpus-matrix", "--corpus", one[ring]]) for ring in one]
    named = [(ring, ring, inv) for ring, inv in CAP_RINGS] + [("Z2^12", *BOOLEAN_CAP_RING)]
    table += [
        (f"element {name}", ["element", "--ring", ring, "--inv", inv, "--elem", "7"])
        for name, ring, inv in named
    ]
    z2_12 = ["--ring", BOOLEAN_CAP_RING[0], "--inv", BOOLEAN_CAP_RING[1]]
    table.append(("check star-regular Z2^12", ["check", *z2_12, "--prop", "star-regular"]))
    table.append(("check sr1 Z2^12", ["check", *z2_12, "--prop", "sr1"]))
    two_unit = ["--ring", TWO_UNIT_CAP_RING[0], "--inv", TWO_UNIT_CAP_RING[1]]
    table.append(("check psr1 Z2^10xZ4", ["check", *two_unit, "--prop", "psr1"]))
    pair = ["--suites", "SRC-EQUIV,PSR-ONESIDED", "--corpus", one["M2(Z8)"]]
    z2_12_corpus = _corpus_file(folder, "Z2^12", [BOOLEAN_CAP_RING])
    table += [
        ("suite SRC-EQUIV,PSR-ONESIDED M2(Z8)", ["suite", *pair]),
        ("suite TP(Z2,12)", ["suite", "--corpus", one["TP(Z2,12)"]]),
        ("suite ELEM-EQUIV Z2^12", ["suite", "--suites", "ELEM-EQUIV", "--corpus", z2_12_corpus]),
        ("suite RING-EQUIV Z2^12", ["suite", "--suites", "RING-EQUIV", "--corpus", z2_12_corpus]),
        *[(f"suite SRC-EQUIV {ring}", ["suite", "--suites", "SRC-EQUIV", "--corpus", one[ring]])
          for ring in ("TP(Z2,12)", "GR(Z4,C6)")],
        ("suite Z2^11", ["suite", "--corpus", _corpus_file(folder, "Z2^11", [BOOLEAN_HALF_RING])]),
        ("suite default", ["suite"]),
        ("corpus-matrix ladder", ["corpus-matrix", "--corpus", _corpus_file(folder, "ladder", LADDER)]),
    ]
    return table


def measure(src: str, argv: list[str]) -> dict:
    """Run starclean once as this process's only child, in a fixed environment."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": src,
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "starclean", *argv], env=env, capture_output=True)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    row = {
        "exit": proc.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "stdout_sha256_12": hashlib.sha256(_ELAPSED_LINE.sub(b"", proc.stdout)).hexdigest()[:12],
    }
    if proc.returncode:
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        row["stderr"] = lines[-1] if lines else ""
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--only", default="", help="run only commands whose name contains this")
    parser.add_argument("--measure", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.src, args.measure)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in cap_table(Path(tmp)):
            if args.only not in name:
                continue
            child = subprocess.run(
                [sys.executable, __file__, "--src", args.src, "--measure", *command],
                capture_output=True, text=True, check=True,
            )
            text = " ".join(command).replace(tmp + os.sep, "")
            row = {"name": name, "command": f"starclean {text}"}
            row.update(json.loads(child.stdout))
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
