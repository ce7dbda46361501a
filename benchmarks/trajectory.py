"""Write one entry of the performance trajectory, ``BENCH_<pr>.json``.

    python3 benchmarks/trajectory.py RUNS_DIR --pr 19 --parent 20ca1a5 --out BENCH_19.json

``RUNS_DIR`` holds what ``benchmarks/suite/run.py --out`` wrote, nothing
hand-edited: ``parent_<i>.json`` / ``change_<i>.json`` for each alternating
same-box pair ``i`` (untraced, all workloads; odd pairs ran the parent first,
even pairs the change) and ``parent_trace_*.json`` /
``change_trace_*.json`` (one ``--trace`` run per workload worth tracing).
The entry keeps every pair's end-to-end metrics, both sides' medians, the
verdict of the suite's rule for a gain on each (workload, metric) -- wins of
the pairs, and whether the medians lie further apart than the parent's
interquartile spread -- and the traced per-layer blocks.  This file judges
nothing; ``benchmarks/suite/compare.py`` and the driver do.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

_CONTRACT = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _end_to_end(document: dict, names: list[str]) -> dict:
    return {
        workload: {name: run["metrics"][name] for name in names if name in run["metrics"]}
        for workload, run in document["runs"].items()
    }


def build_entry(runs_dir: Path, pr: int, parent: str) -> dict:
    contract = json.loads(_CONTRACT.read_text())
    better = {metric["name"]: metric["better"] for metric in contract["end_to_end"]}
    pairs = []
    for number in range(1, len(list(runs_dir.glob("parent_[0-9]*.json"))) + 1):
        sides = {
            side: json.loads((runs_dir / f"{side}_{number}.json").read_text())
            for side in ("parent", "change")
        }
        pairs.append({
            "pair": number,
            "ran_first": "parent" if number % 2 else "change",
            **{side: _end_to_end(document, list(better)) for side, document in sides.items()},
        })

    medians: dict = {"parent": {}, "change": {}}
    verdicts: dict = {}
    for workload in (w["name"] for w in contract["workloads"]):
        for name, direction in better.items():
            before = [pair["parent"][workload][name] for pair in pairs]
            after = [pair["change"][workload][name] for pair in pairs]
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * a < sign * b for a, b in zip(after, before))
            quartiles = statistics.quantiles(before, n=4)
            medians["parent"].setdefault(workload, {})[name] = statistics.median(before)
            medians["change"].setdefault(workload, {})[name] = statistics.median(after)
            gap = sign * (statistics.median(before) - statistics.median(after))
            verdicts.setdefault(workload, {})[name] = {
                "change_wins": wins,
                "pairs": len(pairs),
                "parent_iqr": quartiles[2] - quartiles[0],
                "median_gain": gap,
                "median_gain_share": gap / statistics.median(before),
                "gain_by_the_rule": wins * 10 >= len(pairs) * 9 and gap > quartiles[2] - quartiles[0],
            }

    traced = {
        side: {
            workload: run["metrics"]
            for path in sorted(runs_dir.glob(f"{side}_trace_*.json"))
            for workload, run in json.loads(path.read_text())["runs"].items()
        }
        for side in ("parent", "change")
    }
    return {
        "pr": pr,
        "parent_commit": parent,
        "method": "alternating same-box pairs of `python3 benchmarks/suite/run.py --out`; "
        "traced blocks from `run.py --trace --workload <w> --out` (seed 1729)",
        "pairs": pairs,
        "medians": medians,
        "verdicts": verdicts,
        "traced": traced,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs_dir", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="the parent commit the pairs ran against")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    entry = build_entry(args.runs_dir, args.pr, args.parent)
    args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"{args.out}: {len(entry['pairs'])} pairs, traced {sorted(entry['traced']['change'])}")


if __name__ == "__main__":
    main()
