"""Online rebalance under a skewed pan workload: tail latency and load spread.

Builds a sharded cluster over the *Skewed* dots dataset
(``repro.bench.experiments`` workloads) with a deliberately static grid
partitioning, replays a hotspot pan trace — every viewport confined to one
shard's region, the "everyone pans over Manhattan" traffic shape — and
then performs an online load-driven rebalance
(:class:`repro.cluster.rebalancer.LoadRebalancer`) and replays the same
trace again.  Per cell (2/4 shards × threads/processes workers) it
reports:

* ``skew_before`` / ``skew_after`` — max/mean per-shard request load on
  the hotspot trace (1.0 is perfect balance; the static grid pins the
  whole trace to one shard, so before ≈ shard count).
* ``p50_ms`` / ``p99_ms`` (before and after) — measured wall-clock
  percentiles per request.
* ``wall_ms_per_step`` — measured mean wall-clock per request after the
  rebalance (the regression-gate metric).
* ``build_ms`` / ``drain_ms`` — how long the new shard set took to build
  beside the serving one, and how long the swap + old-generation drain
  took (requests keep flowing through both).

Run directly::

    python benchmarks/bench_rebalance.py                  # smoke scale
    python benchmarks/bench_rebalance.py --quick          # CI-sized
    python benchmarks/bench_rebalance.py --json out.json  # machine-readable

or through pytest (rebalance must strictly improve the load spread)::

    PYTHONPATH=src python -m pytest benchmarks/bench_rebalance.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench.experiments import build_stack, hotspot_box_requests  # noqa: E402
from repro.cluster import build_cluster  # noqa: E402
from repro.net.protocol import DataRequest  # noqa: E402


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` (nearest-rank, 0.0-1.0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class RebalanceBenchResult:
    """One (shards, workers) cell, before and after the online rebalance."""

    dataset: str
    shard_count: int
    workers: str
    steps: int
    skew_before: float
    skew_after: float
    p50_before_ms: float
    p99_before_ms: float
    p50_after_ms: float
    p99_after_ms: float
    wall_ms_per_step: float
    build_ms: float
    drain_ms: float
    per_shard_before: dict[int, int]
    per_shard_after: dict[int, int]

    def row(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "shards": self.shard_count,
            "workers": self.workers,
            "steps": self.steps,
            "skew_before": round(self.skew_before, 3),
            "skew_after": round(self.skew_after, 3),
            "p50_before_ms": round(self.p50_before_ms, 3),
            "p99_before_ms": round(self.p99_before_ms, 3),
            "p50_after_ms": round(self.p50_after_ms, 3),
            "p99_after_ms": round(self.p99_after_ms, 3),
            "wall_ms_per_step": round(self.wall_ms_per_step, 3),
            "build_ms": round(self.build_ms, 3),
            "drain_ms": round(self.drain_ms, 3),
        }


def _replay(router, requests: list[DataRequest]) -> list[float]:
    """Replay the trace cold (cache cleared), returning per-request ms."""
    router.cache.clear()
    latencies_ms: list[float] = []
    for request in requests:
        started = time.perf_counter()
        router.handle(request)
        latencies_ms.append((time.perf_counter() - started) * 1000.0)
    return latencies_ms


def run_cell(
    source_backend, shard_count: int, worker_mode: str, steps: int
) -> RebalanceBenchResult:
    cluster = build_cluster(
        source_backend,
        shard_count=shard_count,
        strategy="grid",
        worker_mode=worker_mode,
    )
    try:
        router = cluster.router
        rebalancer = cluster.rebalancer
        compiled = source_backend.compiled
        canvas_id = next(iter(cluster.partitionings))
        region = cluster.partitionings[canvas_id].region(0).rect
        requests = hotspot_box_requests(
            compiled.app_name, canvas_id, 0, region, steps=steps
        )

        before_ms = _replay(router, requests)
        skew_before = rebalancer.skew()
        per_shard_before = rebalancer.shard_loads()

        report = rebalancer.rebalance()
        assert report.swapped, f"rebalance declined: {report.reason}"

        router.stats.reset()
        after_ms = _replay(router, requests)
        skew_after = rebalancer.skew()
        per_shard_after = rebalancer.shard_loads()

        return RebalanceBenchResult(
            dataset="skewed",
            shard_count=shard_count,
            workers=worker_mode,
            steps=len(requests),
            skew_before=skew_before,
            skew_after=skew_after,
            p50_before_ms=percentile(before_ms, 0.50),
            p99_before_ms=percentile(before_ms, 0.99),
            p50_after_ms=percentile(after_ms, 0.50),
            p99_after_ms=percentile(after_ms, 0.99),
            wall_ms_per_step=sum(after_ms) / len(after_ms) if after_ms else 0.0,
            build_ms=report.build_ms,
            drain_ms=report.drain_ms,
            per_shard_before=per_shard_before,
            per_shard_after=per_shard_after,
        )
    finally:
        cluster.close()


def _print_table(results: list[RebalanceBenchResult]) -> None:
    rows = [result.row() for result in results]
    if not rows:
        print("no results")
        return
    headers = list(rows[0].keys())
    widths = {
        header: max(len(header), *(len(str(row[header])) for row in rows))
        for header in headers
    }
    line = "  ".join(header.ljust(widths[header]) for header in headers)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(row[header]).ljust(widths[header]) for header in headers))


def _print_load_spread(results: list[RebalanceBenchResult]) -> None:
    print("\nper-shard hotspot load (requests per shard, before -> after):")
    for result in results:
        before = [
            result.per_shard_before.get(i, 0) for i in range(result.shard_count)
        ]
        after = [
            result.per_shard_after.get(i, 0) for i in range(result.shard_count)
        ]
        print(
            f"  {result.workers} @ {result.shard_count} shards: "
            f"{before} -> {after}"
        )


def main(argv: list[str] | None = None) -> list[RebalanceBenchResult]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=("tiny", "smoke", "bench"),
        help="skewed-dataset scale (see repro.bench.experiments)",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=(2, 4), help="shard counts"
    )
    parser.add_argument(
        "--workers",
        nargs="+",
        default=("threads", "processes"),
        choices=("threads", "processes"),
        help="shard execution topologies to measure",
    )
    parser.add_argument("--steps", type=int, default=160, help="pan steps per cell")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: tiny scale, 2 shards, threads only, short trace",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the result rows as a JSON artifact",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.scale = "tiny"
        args.shards = (2,)
        args.workers = ("threads",)
        args.steps = 80

    stack = build_stack("skewed", scale=args.scale, tile_sizes=())
    results = [
        run_cell(stack.backend, shard_count, worker_mode, args.steps)
        for worker_mode in args.workers
        for shard_count in args.shards
    ]
    _print_table(results)
    _print_load_spread(results)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(
                {
                    "benchmark": "bench_rebalance",
                    "rows": [result.row() for result in results],
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"\nwrote {args.json}")
    return results


def test_rebalance_improves_load_spread():
    """pytest entry point: the rebalance must strictly improve the skew
    and keep serving the identical trace (steps all answered)."""
    results = main(["--quick"])
    assert results
    for result in results:
        assert result.steps > 0
        # The static grid pins the hotspot to one shard: maximal skew.
        assert result.skew_before > result.skew_after, (
            f"rebalance did not improve balance at {result.shard_count} "
            f"shards: {result.skew_before:.3f} -> {result.skew_after:.3f}"
        )
        # The hotspot now spreads over more than one shard.
        hot_after = sum(1 for count in result.per_shard_after.values() if count)
        assert hot_after >= 2
        assert result.p99_after_ms >= result.p50_after_ms >= 0.0


if __name__ == "__main__":
    main()
