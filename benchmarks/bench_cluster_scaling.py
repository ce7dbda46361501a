"""Experiment E10: sharded-cluster scaling under concurrent pan workloads.

Measures throughput (pan steps per second) and per-step latency percentiles
of the scatter-gather cluster at 1/2/4/8 shards, with several concurrent
sessions replaying the Figure 5 traces over the Uniform and Skewed datasets.
Reading the table:

* ``throughput_steps_s`` / ``wall_ms_per_step`` — measured end-to-end
  wall-clock.  Shard queries execute on the router's thread pool
  (``--sequential`` turns that off to measure the old baseline), and each
  shard only searches its own slice of the data, so wall-clock per step
  drops as shards are added.
* ``p50_ms`` / ``p95_ms`` — percentiles of the per-step response-time
  *model* (scatter-gather critical path — slowest shard plus merge — plus
  simulated link time), which the parallel executor makes the measured
  shape of a request too.
* ``sim_query_ms`` — the query component of the same model, isolating the
  database-side speedup from the network term.
* ``wire_bytes_per_step`` — bytes that actually crossed the shard
  transport (payload plus frame headers, both directions) per pan step.

Shard calls cross the wire-level transport (`repro.serving.transport`) by
default, exactly like a multi-node deployment; ``--no-wire`` keeps them
in-process.  ``--workers processes`` forks one worker process per shard
replica (`repro.serving.worker`) speaking the same messages over
length-prefixed frames on localhost TCP — pure-Python shard queries then
execute on real parallel cores instead of time-slicing one GIL.  The
``eeg`` dataset replays time sweeps over a synthetic EEG recording, the
workload whose sessions naturally spread across time-partitioned shards.

Run directly::

    python benchmarks/bench_cluster_scaling.py                      # smoke scale
    python benchmarks/bench_cluster_scaling.py --quick              # CI-sized
    python benchmarks/bench_cluster_scaling.py --datasets eeg \
        --workers processes                                         # multi-core

or through pytest (one scaling assertion per dataset)::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster_scaling.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench.experiments import ClusterScalingResult, cluster_scaling  # noqa: E402


def _print_table(results: list[ClusterScalingResult]) -> None:
    rows = [result.row() for result in results]
    if not rows:
        print("no results")
        return
    # Telemetry runs add per-stage percentile columns that can differ
    # between cells; print the union and leave absent cells blank.
    headers: list[str] = []
    for row in rows:
        for header in row:
            if header not in headers:
                headers.append(header)
    widths = {
        header: max(len(header), *(len(str(row.get(header, ""))) for row in rows))
        for header in headers
    }
    line = "  ".join(header.ljust(widths[header]) for header in headers)
    print(line)
    print("-" * len(line))
    for row in rows:
        print(
            "  ".join(
                str(row.get(header, "")).ljust(widths[header]) for header in headers
            )
        )


def _print_shard_balance(results: list[ClusterScalingResult]) -> None:
    print("\nper-shard request balance (dataset @ shards -> requests per shard):")
    for result in results:
        if result.shard_count == 1:
            continue
        counts = [
            result.per_shard_requests.get(shard_id, 0)
            for shard_id in range(result.shard_count)
        ]
        print(f"  {result.dataset} @ {result.shard_count}: {counts}")


def main(argv: list[str] | None = None) -> list[ClusterScalingResult]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=("tiny", "smoke", "bench"),
        help="dataset scale (see repro.bench.experiments.dataset_for_scale)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=(1, 2, 4, 8),
        help="shard counts to measure",
    )
    parser.add_argument("--sessions", type=int, default=4, help="concurrent sessions")
    parser.add_argument(
        "--strategy", default="grid", choices=("grid", "kd"), help="partitioning strategy"
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=("uniform", "skewed"),
        choices=("uniform", "skewed", "eeg"),
        help="datasets to run (eeg = time sweeps over a synthetic recording)",
    )
    parser.add_argument(
        "--workers",
        default="threads",
        choices=("threads", "processes"),
        help="shard execution topology: in-process threads or worker processes",
    )
    parser.add_argument(
        "--no-coalescing", action="store_true", help="disable request coalescing"
    )
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="execute shard queries sequentially (the pre-parallel baseline)",
    )
    parser.add_argument(
        "--no-wire",
        action="store_true",
        help="call shard backends in-process instead of over the wire transport",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="trace every request and add per-stage percentile columns",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: tiny scale, 1/2 shards, 4 sessions, uniform only",
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
        args.shards = (1, 2)
        # Four sessions over the three traces: every trace runs and one is
        # shared by two sessions, exercising the coalescer.
        args.sessions = 4
        if tuple(args.datasets) == ("uniform", "skewed"):
            args.datasets = ("uniform",)

    results = cluster_scaling(
        scale=args.scale,
        shard_counts=tuple(args.shards),
        sessions=args.sessions,
        datasets=tuple(args.datasets),
        strategy=args.strategy,
        coalescing=not args.no_coalescing,
        parallel=not args.sequential,
        wire_shards=False if args.no_wire else None,
        worker_mode=args.workers,
        telemetry=args.telemetry,
    )
    _print_table(results)
    _print_shard_balance(results)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(
                {
                    "benchmark": "bench_cluster_scaling",
                    "rows": [result.row() for result in results],
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"\nwrote {args.json}")
    return results


def test_cluster_scaling_smoke():
    """pytest entry point: the quick workload runs end-to-end and scales out."""
    results = main(["--quick"])
    assert results, "cluster scaling produced no results"
    for result in results:
        assert result.steps > 0
        assert result.throughput_steps_per_s > 0
        assert result.latency.p95 >= result.latency.median >= 0
    by_shards = {result.shard_count: result for result in results}
    # Sharding must not lose or duplicate data: the sessions replayed the
    # same traces, so they must have received exactly the same object totals.
    assert by_shards[1].objects_fetched > 0
    assert by_shards[1].objects_fetched == by_shards[2].objects_fetched
    # Scaling out must not cost wall-clock: with parallel shard workers and
    # per-shard indexes half the size, the measured wall-clock per step at 2
    # shards stays at or below the single-shard baseline.  The margin covers
    # scheduler noise on shared CI runners (the trend is visible in the
    # printed table; a real regression — e.g. serialising the fan-out —
    # costs far more than 25%).
    assert by_shards[2].measured_step_ms <= by_shards[1].measured_step_ms * 1.25, (
        f"wall-clock per step regressed when scaling out: "
        f"{by_shards[1].measured_step_ms:.3f} ms @ 1 shard -> "
        f"{by_shards[2].measured_step_ms:.3f} ms @ 2 shards"
    )


def test_process_workers_scale_on_eeg():
    """pytest entry point: the process topology scales out on the EEG workload.

    Worker processes must (a) lose no data relative to a single shard,
    (b) keep wall-clock per step from regressing as shards are added (the
    per-shard indexes shrink and, on multi-core hosts, shard queries run on
    separate cores), and (c) on hosts with at least two cores, beat the
    GIL-bound thread topology at 4 shards.  The margins cover scheduler
    noise on shared CI runners; the trend is visible in the printed table.
    """
    import os

    process_results = main(
        ["--scale", "tiny", "--shards", "1", "2", "4", "--datasets", "eeg",
         "--workers", "processes"]
    )
    by_shards = {result.shard_count: result for result in process_results}
    assert by_shards[1].objects_fetched > 0
    assert (
        by_shards[1].objects_fetched
        == by_shards[2].objects_fetched
        == by_shards[4].objects_fetched
    )

    thread_results = main(
        ["--scale", "tiny", "--shards", "4", "--datasets", "eeg",
         "--workers", "threads"]
    )
    threads_at_4 = thread_results[0]
    processes_at_4 = by_shards[4]
    assert threads_at_4.objects_fetched == processes_at_4.objects_fetched
    if (os.cpu_count() or 1) >= 2:
        # The whole point of the topology — but only observable when the
        # host actually has parallel cores.  On a single-core host the
        # worker processes merely context-switch, so these wall-clock
        # assertions would measure the scheduler, not the scatter path
        # (the data-integrity asserts above still run everywhere).
        assert by_shards[2].measured_step_ms <= by_shards[1].measured_step_ms * 1.35, (
            f"process workers regressed when scaling out: "
            f"{by_shards[1].measured_step_ms:.3f} ms @ 1 shard -> "
            f"{by_shards[2].measured_step_ms:.3f} ms @ 2 shards"
        )
        # Margins are generous because the tiny workload keeps per-query
        # work small relative to fork/framing overhead and shared runners
        # are noisy; a real regression (serialising the fan-out, a worker
        # answering through the GIL-bound parent) costs far more.
        assert by_shards[4].measured_step_ms <= by_shards[1].measured_step_ms * 1.35, (
            f"process workers regressed when scaling out: "
            f"{by_shards[1].measured_step_ms:.3f} ms @ 1 shard -> "
            f"{by_shards[4].measured_step_ms:.3f} ms @ 4 shards"
        )
        assert processes_at_4.measured_step_ms <= threads_at_4.measured_step_ms * 1.25, (
            f"process workers slower than threads at 4 shards: "
            f"{processes_at_4.measured_step_ms:.3f} ms vs "
            f"{threads_at_4.measured_step_ms:.3f} ms"
        )


if __name__ == "__main__":
    main()
