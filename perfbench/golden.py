"""Regenerate the golden outputs the benchmark checks every pass against.

    python3 perfbench/golden.py [WORKLOAD ...]

Writes perfbench/golden/<workload>.json: verdict values and witness ids per
(ring, property), the canonical suite JSON, the digest of every element's
answer on every queried ring, and the outcomes of a fixed numeric battery.
Golden outputs pin the program's behaviour, so regenerate them only when a
change is meant to alter outputs, and say so in the change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        payload = workloads.WORKLOADS[name].golden()
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
