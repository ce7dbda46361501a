"""The repository benchmark: four pan-trace workloads, measured end to end.

Driver form (one workload, one process; the last stdout line is the result)::

    python3 benchmarks/suite/run.py --workload cluster_cold --seed 7 --seconds 10 --trace 0

Whole suite (each workload in a fresh subprocess), optionally writing the
full result document — repetition spread, set-up stages, spans — to a file::

    python3 benchmarks/suite/run.py [--trace] [--seed N] [--out FILE]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (counters from an untraced phase, times from a traced single-session
pass and isolated leaf replays).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_SRC = _ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=1729, help="dataset and trace seed")
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed phase")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: report the per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, help="merge the full result document into this JSON file")
    return parser.parse_args(argv)


def _run_one(args: argparse.Namespace) -> int:
    from kyrixbench import catalog, report
    from kyrixbench.harness import run_workload
    from kyrixbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = catalog.RUN_SECONDS if args.seconds is None else args.seconds
    result = run_workload(
        args.workload, seed=args.seed, seconds=seconds, trace=bool(args.trace)
    )
    report.print_table(result)
    if args.out is not None:
        report.merge_into(args.out, result)
    print(report.contract_line(result), flush=True)
    return 0 if result["correct"] else 1


def _run_suite(args: argparse.Namespace) -> int:
    from kyrixbench import catalog

    status = 0
    for workload in catalog.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload.name, "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (_SRC / "repro").is_dir():
        print(f"the program under test is missing: no {_SRC / 'repro'}", file=sys.stderr)
        return 2
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    return _run_one(args) if args.workload else _run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
