"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every unit of input sets 0..SETS-1 of every workload once with the
current sources and writes perfbench/refs/<workload>.json. References
describe the behaviour of the commit they were recorded at; re-record only
when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, MIN_REPS, spawn

SETS = 16


def main() -> int:
    for workload in sorted(MIN_REPS):
        sets = []
        for i in range(SETS):
            _, report = spawn(workload, i, ["--record"], time.monotonic() + 600)
            if report is None:
                return 1
            sets.append(report["outputs"])
        out = HERE / "refs" / f"{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"workload": workload, "sets": sets},
                                  separators=(",", ":")) + "\n")
        print(f"wrote {out.relative_to(HERE.parent)} ({len(sets)} input sets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
