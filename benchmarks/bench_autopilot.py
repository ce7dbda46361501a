"""Autopilot convergence under a skew-shifting hotspot: does it self-heal?

Builds a sharded cluster over the *Skewed* dots dataset with a static grid
partitioning and replays a **moving** hotspot: several epochs of traffic
confined to one fixed region of the canvas, then the hotspot jumps to the
opposite region mid-run (the "everyone pans over Manhattan, then a storm
hits Boston" traffic shape).  Each epoch is replayed by ``CLIENTS``
concurrent sessions.  One run drives a
:class:`repro.cluster.autopilot.ClusterAutopilot` between epochs (on a
virtual clock, so every epoch is a full cooldown window); a control run
serves the identical schedule with no autopilot.  Per cell (shards ×
threads/processes) it reports:

* ``migrations`` — shard-table swaps the autopilot performed across the
  whole run.  Hysteresis must keep this *bounded* (a couple per hotspot
  location, not one per epoch): the expected shape is one split for the
  first hotspot, one reactive split right after the shift (driven by a
  histogram the old hotspot still dominates), and one ``rearm_windows``
  retry that lands the boundary inside the new hotspot.
* ``skew_shift`` / ``skew_end`` — per-epoch max/mean shard load right
  after the hotspot jumps vs. at the end of the run: convergence means
  the autopilot re-splits the new hotspot and skew falls back toward 1.
  **Skew is the primary convergence signal** — it is what maps to tail
  latency once shards live on separate nodes.
* ``skew_static_end`` — the control run's final skew (stays pinned at the
  shard count: a static partitioning never recovers on its own).
* ``p50_shift_ms`` / ``p50_end_ms`` — median request latency in the epoch
  right after the shift (every session piled onto one shard) vs. the
  final epoch (re-split, settled).  Both are real queries — shards hold
  no caches and the router's is cleared per replay — so the drop is the
  re-split's, not a warm cache's.  The median must fall; it is the
  robust statistic this bench gates on.
* ``p99_shift_ms`` / ``p99_end_ms`` — same epochs, 99th percentile.
  Reported but **not** gated: with every shard in one process the tail
  measures GIL scheduling and fan-out overhead, not queueing — the
  serving-side p99 payoff of a re-split only exists once shards stop
  sharing a core.
* ``wall_ms_per_step`` — mean wall-clock per request in the final epoch
  (the regression-gate metric).
* ``parity_violations`` — probe requests whose payload bytes ever
  differed from the pre-run baseline (must be zero: migrations and
  repairs may never change served bytes).

Run directly::

    python benchmarks/bench_autopilot.py                  # smoke scale
    python benchmarks/bench_autopilot.py --quick          # CI-sized
    python benchmarks/bench_autopilot.py --json out.json  # machine-readable

or through pytest (bounded migrations, recovered skew, falling median
latency, zero parity violations)::

    PYTHONPATH=src python -m pytest benchmarks/bench_autopilot.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench.experiments import build_stack, hotspot_box_requests  # noqa: E402
from repro.cluster import ClusterAutopilot, LoadRebalancer, build_cluster  # noqa: E402
from repro.metrics.timer import VirtualClock  # noqa: E402
from repro.net.protocol import DataRequest  # noqa: E402

#: The skew trigger the autopilot runs with here.  The default threshold
#: (2.0) is the *theoretical maximum* for a two-shard cluster — reachable
#: only when every single request hits one shard.  The parity probes are
#: deliberately balanced background traffic, so the measured skew tops out
#: just below the maximum; an operator facing real mixed traffic tunes
#: the trigger below the ceiling exactly like this.
SKEW_TRIGGER = 1.6

#: Concurrent replay sessions per epoch — concurrency is what makes a
#: hotspot hurt (sessions pile up behind the hot shard's serialised
#: stack).  The scatter pool is sized for ``CLIENTS`` simultaneous
#: fan-outs (see ``main``), not for one scatter at a time.
CLIENTS = 8


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` (nearest-rank, 0.0-1.0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def payload_bytes(response) -> bytes:
    return json.dumps(response.objects, sort_keys=True).encode("utf-8")


@dataclass
class AutopilotBenchResult:
    """One (shards, workers) cell of the skew-shifting hotspot run."""

    dataset: str
    shard_count: int
    workers: str
    steps: int
    epochs: int
    migrations: int
    skew_shift: float
    skew_end: float
    skew_static_end: float
    p50_shift_ms: float
    p50_end_ms: float
    p99_shift_ms: float
    p99_end_ms: float
    wall_ms_per_step: float
    parity_violations: int

    def row(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "shards": self.shard_count,
            "workers": self.workers,
            "steps": self.steps,
            "epochs": self.epochs,
            "migrations": self.migrations,
            "skew_shift": round(self.skew_shift, 3),
            "skew_end": round(self.skew_end, 3),
            "skew_static_end": round(self.skew_static_end, 3),
            "p50_shift_ms": round(self.p50_shift_ms, 3),
            "p50_end_ms": round(self.p50_end_ms, 3),
            "p99_shift_ms": round(self.p99_shift_ms, 3),
            "p99_end_ms": round(self.p99_end_ms, 3),
            "wall_ms_per_step": round(self.wall_ms_per_step, 3),
            "parity_violations": self.parity_violations,
        }


def _replay(
    router, requests: list[DataRequest], *, clients: int = CLIENTS
) -> list[float]:
    """Replay the trace cold with ``clients`` concurrent sessions.

    The cache is cleared once up front (every pan step is a distinct
    box, so each request scatters and counts).  Concurrency is what
    makes a hotspot *hurt*: a hot shard serialises its clients behind
    one shard lock, so per-request p99 rises with skew — and falls once
    a re-split spreads the sessions across shards.
    """
    router.cache.clear()

    def timed(request: DataRequest) -> float:
        started = time.perf_counter()
        router.handle(request)
        return (time.perf_counter() - started) * 1000.0

    with ThreadPoolExecutor(max_workers=clients) as pool:
        return list(pool.map(timed, requests))


def _epoch_skew(loads_before: dict[int, int], loads_after: dict[int, int]) -> float:
    """max/mean of this epoch's per-shard traffic (swap-aware diff)."""
    if any(loads_after.get(k, 0) < v for k, v in loads_before.items()):
        window = dict(loads_after)  # a swap cleared the counters mid-epoch
    else:
        window = {
            k: v - loads_before.get(k, 0) for k, v in loads_after.items()
        }
    total = sum(window.values())
    if not window or total <= 0:
        return 1.0
    return max(window.values()) / (total / len(window))


def _shift_schedule(cluster, canvas_id: str) -> tuple:
    """The two fixed hotspot rectangles: first and last initial region."""
    partitioning = cluster.partitionings[canvas_id]
    return (
        partitioning.region(0).rect,
        partitioning.region(partitioning.shard_count - 1).rect,
    )


def run_cell(
    source_backend,
    shard_count: int,
    worker_mode: str,
    steps: int,
    epochs: int,
) -> AutopilotBenchResult:
    compiled = source_backend.compiled
    app_name = compiled.app_name

    def run(with_autopilot: bool):
        cluster = build_cluster(
            source_backend,
            shard_count=shard_count,
            strategy="grid",
            worker_mode=worker_mode,
        )
        clock = VirtualClock()
        autopilot = (
            ClusterAutopilot(
                cluster,
                clock=clock,
                rebalancer=LoadRebalancer(cluster, skew_threshold=SKEW_TRIGGER),
            )
            if with_autopilot
            else None
        )
        try:
            canvas_id = next(iter(cluster.partitionings))
            region_a, region_b = _shift_schedule(cluster, canvas_id)
            # Probes span the whole canvas; their payloads are the byte
            # parity baseline re-checked after every epoch.
            probes = hotspot_box_requests(
                app_name, canvas_id, 0, region_a, steps=4
            ) + hotspot_box_requests(app_name, canvas_id, 0, region_b, steps=4)
            cluster.router.cache.clear()
            baseline = [
                payload_bytes(cluster.router.handle(p)) for p in probes
            ]
            violations = 0
            epoch_p50: list[float] = []
            epoch_p99: list[float] = []
            epoch_skew: list[float] = []
            shift_index = epochs  # first epoch served from region B

            for index in range(epochs * 2):
                region = region_a if index < epochs else region_b
                trace = hotspot_box_requests(
                    app_name, canvas_id, 0, region, steps=steps
                )
                loads_before = dict(cluster.rebalancer.shard_loads())
                latencies = _replay(cluster.router, trace)
                loads_after = dict(cluster.rebalancer.shard_loads())
                epoch_p50.append(percentile(latencies, 0.50))
                epoch_p99.append(percentile(latencies, 0.99))
                epoch_skew.append(_epoch_skew(loads_before, loads_after))
                if autopilot is not None:
                    autopilot.tick()
                    clock.advance(autopilot.config.cooldown_s * 1000.0 + 1.0)
                cluster.router.cache.clear()
                for probe, expected in zip(probes, baseline):
                    if payload_bytes(cluster.router.handle(probe)) != expected:
                        violations += 1

            migrations = 0
            if autopilot is not None:
                migrations = sum(
                    1
                    for action in autopilot.actions
                    if action.report is not None and action.report.swapped
                )
            return {
                "p50_shift": epoch_p50[shift_index],
                "p50_end": epoch_p50[-1],
                "p99_shift": epoch_p99[shift_index],
                "p99_end": epoch_p99[-1],
                "skew_shift": epoch_skew[shift_index],
                "skew_end": epoch_skew[-1],
                "violations": violations,
                "migrations": migrations,
                "final_latencies": latencies,
            }
        finally:
            cluster.close()

    piloted = run(with_autopilot=True)
    static = run(with_autopilot=False)
    final = piloted["final_latencies"]
    return AutopilotBenchResult(
        dataset="skewed",
        shard_count=shard_count,
        workers=worker_mode,
        steps=steps,
        epochs=epochs,
        migrations=piloted["migrations"],
        skew_shift=piloted["skew_shift"],
        skew_end=piloted["skew_end"],
        skew_static_end=static["skew_end"],
        p50_shift_ms=piloted["p50_shift"],
        p50_end_ms=piloted["p50_end"],
        p99_shift_ms=piloted["p99_shift"],
        p99_end_ms=piloted["p99_end"],
        wall_ms_per_step=sum(final) / len(final) if final else 0.0,
        parity_violations=piloted["violations"] + static["violations"],
    )


def _print_table(results: list[AutopilotBenchResult]) -> None:
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


def main(argv: list[str] | None = None) -> list[AutopilotBenchResult]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=("tiny", "smoke", "bench"),
        help="skewed-dataset scale (see repro.bench.experiments)",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=(2,), help="shard counts"
    )
    parser.add_argument(
        "--workers",
        nargs="+",
        default=("threads", "processes"),
        choices=("threads", "processes"),
        help="shard execution topologies to measure",
    )
    parser.add_argument(
        "--steps", type=int, default=120, help="pan steps per epoch"
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=5,
        help="epochs per hotspot location (the hotspot shifts once); needs "
        "to leave room for the rearm_windows retry plus a settled epoch",
    )
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
        args.scale = "smoke"
        args.shards = (2,)
        args.workers = ("threads",)
        args.steps = 80
        args.epochs = 5

    stack = build_stack("skewed", scale=args.scale, tile_sizes=())
    # Size the scatter pool for CLIENTS concurrent sessions each fanning
    # out, not for one scatter at a time — otherwise the pool itself is
    # the bottleneck and every latency column measures queue convoy.
    stack.backend.config.cluster.max_parallel_shards = CLIENTS * 2
    results = [
        run_cell(stack.backend, shard_count, worker_mode, args.steps, args.epochs)
        for worker_mode in args.workers
        for shard_count in args.shards
    ]
    _print_table(results)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(
                {
                    "benchmark": "bench_autopilot",
                    "rows": [result.row() for result in results],
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"\nwrote {args.json}")
    return results


def test_autopilot_converges_on_shifting_hotspot():
    """pytest entry point: the autopilot must converge on each hotspot
    location with a bounded number of migrations, recover the load skew
    the static control run never recovers, serve the shifted hotspot
    faster once settled than in the epoch it landed, and serve
    byte-identical payloads throughout."""
    results = main(["--quick"])
    assert results
    for result in results:
        # Migrations are bounded by cooldown + hysteresis: a couple per
        # hotspot location (split A, reactive split at the shift, rearm
        # retry that lands it), never one per epoch.
        assert 2 <= result.migrations <= 5, result.row()
        # Convergence: skew right after the shift is hotspot-shaped; by
        # the final epoch the autopilot has re-split it away, while the
        # static control run stays pinned at maximal skew.
        assert result.skew_end < result.skew_shift, result.row()
        assert result.skew_end < result.skew_static_end, result.row()
        assert result.skew_static_end >= float(result.shard_count) - 0.01
        # Median latency falls once the re-split settles (p99 is reported
        # but not gated — see the module docstring).
        assert result.p50_end_ms < result.p50_shift_ms, result.row()
        # The law: migrations never change served bytes.
        assert result.parity_violations == 0, result.row()
        assert result.p99_end_ms >= 0.0 and result.p99_shift_ms >= 0.0


if __name__ == "__main__":
    main()
