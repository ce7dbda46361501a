"""How results leave the suite: the printed table, the driver line, the result file."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .catalog import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS


def print_table(result: dict[str, Any]) -> None:
    """Every measured metric by name, with its unit."""
    print(
        f"{result['workload']}  seed={result['seed']}  trace={int(result['trace'])}  "
        f"steps/rep={result['steps']}  reps={result['reps']}  "
        f"timed_steps={result['timed_steps']}  verified={result['verified']}"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {UNITS[name]}")
    for error in result["errors"]:
        print(f"  ! {error}")


def contract_line(result: dict[str, Any]) -> str:
    """The driver's result object: end-to-end metrics untraced, per-layer traced.

    A per-layer metric whose layer is not on the workload's path did no
    work there: this line says 0, the result document leaves it out.
    """
    names = PER_LAYER_NAMES if result["trace"] else END_TO_END_NAMES
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"].get(name, 0.0), "unit": UNITS[name]}
                for name in names
            },
        }
    )


def merge_into(path: Path, result: dict[str, Any]) -> None:
    """Add one workload's result to the document at ``path`` (created if missing)."""
    document = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    document["runs"][result["workload"]] = result
    path.write_text(json.dumps(document, indent=1) + "\n")
