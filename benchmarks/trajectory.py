"""Write one entry of the performance trajectory, ``BENCH_<pr>.json``, and render the newest.

    python3 benchmarks/trajectory.py RUNS_DIR --pr 19 --parent 20ca1a5 --out BENCH_19.json
    python3 benchmarks/trajectory.py --markdown docs/performance.md

``RUNS_DIR`` holds what ``benchmarks/suite/run.py --out`` wrote, nothing
hand-edited: ``parent_<i>.json`` / ``change_<i>.json`` for each alternating
same-box pair ``i`` (untraced, all workloads; odd pairs ran the parent first,
even pairs the change) and ``parent_trace_*.json`` /
``change_trace_*.json`` (one ``--trace`` run per workload worth tracing).
The entry keeps every pair's end-to-end metrics, both sides' medians, the
verdict of the suite's rule for a gain on each (workload, metric) -- wins of
the pairs, and whether the medians lie further apart than the parent's
interquartile spread -- and the traced per-layer blocks.  ``--predicted FILE``
stores what the PR's issue said would move before any code was written -- a
JSON list of ``{"workload", "metric", "ratio": [low, high]}``, the band the
change's value over the parent's should fall in -- beside what was measured
(the pairs' medians for an end-to-end metric, the traced blocks for a
per-layer one).  ``--markdown`` renders the newest ``BENCH_*.json`` at the
repository root as ``docs/performance.md``; a tier-1 test fails when the page
and the entry drift apart.  This file judges nothing;
``benchmarks/suite/compare.py`` and the driver do.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_CONTRACT = _ROOT / "BENCHMARK.json"


def _end_to_end(document: dict, names: list[str]) -> dict:
    return {
        workload: {name: run["metrics"][name] for name in names if name in run["metrics"]}
        for workload, run in document["runs"].items()
    }


def build_entry(
    runs_dir: Path, pr: int, parent: str, predicted: list[dict] | None = None
) -> dict:
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
    entry = {
        "pr": pr,
        "parent_commit": parent,
        "method": "alternating same-box pairs of `python3 benchmarks/suite/run.py --out`; "
        "traced blocks from `run.py --trace --workload <w> --out` (seed 1729)",
        "pairs": pairs,
        "medians": medians,
        "verdicts": verdicts,
        "traced": traced,
    }
    if predicted is not None:
        entry["predicted"] = [
            _against_prediction(claim, medians if claim["metric"] in better else traced)
            for claim in predicted
        ]
    return entry


def _against_prediction(claim: dict, measured: dict) -> dict:
    """``claim`` plus both sides' measured values and whether their ratio fell in its band."""
    before, after = (
        measured[side][claim["workload"]][claim["metric"]] for side in ("parent", "change")
    )
    low, high = claim["ratio"]
    ratio = after / before  # a ratio predicts nothing about a metric that reads 0
    return {**claim, "parent": before, "change": after, "measured_ratio": ratio,
            "within": low <= ratio <= high}


# ---------------------------------------------------------------------------
# docs/performance.md
# ---------------------------------------------------------------------------


def newest_entry(root: Path = _ROOT) -> Path:
    """The ``BENCH_<pr>.json`` with the highest PR number."""
    return max(root.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    return lines + ["| " + " | ".join(row) + " |" for row in rows] + [""]


def _num(value: float) -> str:
    """Four significant digits, but never fewer than a count needs to read exactly."""
    return f"{value:.4g}" if abs(value) < 100 else f"{value:.3f}".rstrip("0").rstrip(".")


def _change(before: float, after: float) -> str:
    if before == after:
        return "same"
    return f"{(after - before) / before:+.1%}" if before else "n/a"


def render_markdown(path: Path) -> str:
    """The performance page for the entry at ``path``: every number is the entry's."""
    entry = json.loads(path.read_text())
    pairs = len(entry["pairs"])
    lines = [
        "# Performance",
        "",
        f"<!-- Generated by `python3 benchmarks/trajectory.py --markdown docs/performance.md` "
        f"from {path.name}; edit neither, re-run. -->",
        "",
        f"The newest entry of the trajectory: **PR {entry['pr']}** against its parent "
        f"`{entry['parent_commit']}`, {pairs} {entry['method']}.  Times are reference "
        "milliseconds (`benchmarks/suite/README.md`).  *Gain by the rule* is the suite's rule "
        "for claiming one: the change wins at least nine tenths of the pairs and the medians "
        "lie further apart than the parent's own interquartile spread.  Earlier entries are "
        "the other `BENCH_<pr>.json` files at the repository root.",
        "",
    ]
    if entry.get("predicted"):
        lines += ["## Predicted before the change was written, and measured", ""]
        lines += _table(
            ["workload", "metric", "predicted change / parent", "parent", "change",
             "measured", "within"],
            [
                [claim["workload"], f"`{claim['metric']}`",
                 " … ".join(_num(bound) for bound in claim["ratio"]),
                 _num(claim["parent"]), _num(claim["change"]),
                 _num(claim["measured_ratio"]), "yes" if claim["within"] else "no"]
                for claim in entry["predicted"]
            ],
        )
    lines += [f"## End to end: medians of {pairs} pairs", ""]
    for workload, verdicts in entry["verdicts"].items():
        lines += [f"### {workload}", ""]
        lines += _table(
            ["metric", "parent", "change", "delta", "pairs won", "parent IQR",
             "gain by the rule"],
            [
                [f"`{name}`",
                 _num(entry["medians"]["parent"][workload][name]),
                 _num(entry["medians"]["change"][workload][name]),
                 _change(entry["medians"]["parent"][workload][name],
                         entry["medians"]["change"][workload][name]),
                 f"{verdict['change_wins']} / {verdict['pairs']}",
                 _num(verdict["parent_iqr"]),
                 "yes" if verdict["gain_by_the_rule"] else "no"]
                for name, verdict in verdicts.items()
            ],
        )
    lines += ["## Per layer: one traced run each side", ""]
    for workload, after in entry["traced"]["change"].items():
        before = entry["traced"]["parent"][workload]
        lines += [f"### {workload}", ""]
        lines += _table(
            ["metric", "parent", "change", "delta"],
            [
                [f"`{name}`", _num(before[name]), _num(after[name]),
                 _change(before[name], after[name])]
                for name in sorted(after)
                if name in before
            ],
        )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs_dir", type=Path, nargs="?", help="omit to only render --markdown")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--parent", help="the parent commit the pairs ran against")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--predicted", type=Path, help="the issue's prediction, stored beside the measured values")
    parser.add_argument("--markdown", type=Path, help="render the newest BENCH_*.json to this page")
    args = parser.parse_args()
    if args.runs_dir is not None:
        if args.pr is None or args.parent is None or args.out is None:
            parser.error("an entry needs --pr, --parent and --out")
        predicted = json.loads(args.predicted.read_text()) if args.predicted else None
        entry = build_entry(args.runs_dir, args.pr, args.parent, predicted)
        args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
        print(f"{args.out}: {len(entry['pairs'])} pairs, traced {sorted(entry['traced']['change'])}")
    if args.markdown is not None:
        newest = newest_entry()
        args.markdown.write_text(render_markdown(newest))
        print(f"{args.markdown}: rendered from {newest.name}")


if __name__ == "__main__":
    main()
