"""Compare two result documents of the suite against the contract's bounds.

    python3 benchmarks/suite/compare.py PARENT.json CHANGE.json

Prints, per workload and end-to-end metric, both values, how much worse
CHANGE is than PARENT as a share of PARENT (negative = better), and PASS or
FAIL against the metric's bound in ``BENCHMARK.json``.  Exits 1 on any FAIL.
Two run sets of one commit agree when both orders pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def compare(parent: dict, change: dict, contract: dict) -> list[tuple]:
    """Rows ``(workload, metric, parent, change, worse_by, bound, passed)``."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        before = parent["runs"].get(workload, {}).get("metrics", {})
        after = change["runs"].get(workload, {}).get("metrics", {})
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in before or name not in after:
                rows.append((workload, name, before.get(name), after.get(name), None, metric["bound"], False))
                continue
            share = worse_by(before[name], after[name], metric["better"])
            rows.append((workload, name, before[name], after[name], share, metric["bound"], share <= metric["bound"]))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(parent, change, json.loads(_CONTRACT.read_text()))
    print(f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12} {'worse by':>9} {'bound':>6}")
    for workload, name, before, after, share, bound, passed in rows:
        if share is None:
            print(f"{workload:<16} {name:<14} {before!s:>12} {after!s:>12} {'-':>9} {bound:>6.2f}  FAIL (missing)")
        else:
            print(
                f"{workload:<16} {name:<14} {before:>12.4f} {after:>12.4f} "
                f"{share:>+9.2%} {bound:>6.2f}  {'PASS' if passed else 'FAIL'}"
            )
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
