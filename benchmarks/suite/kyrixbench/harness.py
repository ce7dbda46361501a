"""Running one workload: set-up, warm-up, timed repetitions, verification.

Load shape: closed loop — a session pans, waits for the reply, pans again —
from one process with one or two client threads.  A *repetition* replays
the workload's sessions from the same starting state (caches emptied,
counters zeroed, garbage collected); repetitions continue until the
requested seconds have passed.  Every repetition takes the same steps in
the same order, so a step's time is the median of its times over the
repetitions, and the step-time percentiles are percentiles of those; the
mean and the rate are medians over repetitions.  The values of every
repetition ride along in the result.

Every time is real wall clock (``time.perf_counter`` around
``load_canvas`` / ``pan_to``) divided by the machine's speed factor measured
right beside it (see :mod:`.calibration`); the program's modelled
``LatencyBreakdown`` times and its ``SimulatedLink`` are ignored, and its
telemetry stays off.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro import telemetry
from repro.client import KyrixFrontend
from repro.core.viewport import Viewport

from . import probes, tracing
from .calibration import Samples, factor_at, speed_factor
from .catalog import BUDGET_MS
from .oracle import verify
from .workloads import (
    CANVAS_ID,
    FULL,
    WORKLOADS,
    Position,
    Scale,
    Stack,
    Workload,
    build_stack,
    session_traces,
)

Traces = list[list[list[Position]]]


@dataclass
class PassResult:
    """What one replay of the sessions observed."""

    #: Raw wall milliseconds of every step, and when each started.
    step_ms: list[float] = field(default_factory=list)
    step_at: list[float] = field(default_factory=list)
    #: The same steps in reference milliseconds (see :class:`Pacer`).
    norm_ms: list[float] = field(default_factory=list)
    requests: int = 0
    objects: int = 0
    failed: int = 0
    frontend_hits: int = 0
    frontend_lookups: int = 0
    frontend_evictions: int = 0
    errors: list[str] = field(default_factory=list)
    #: Wall seconds from the clients' release to the last one's finish,
    #: speed sampling excluded.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    gen2: int = 0
    #: Time-weighted machine speed factor of the pass: raw / reference time.
    factor: float = 1.0
    #: The speed samples taken during the pass.
    samples: Samples = field(default_factory=list)

    def absorb(self, other: "PassResult") -> None:
        self.step_ms.extend(other.step_ms)
        self.step_at.extend(other.step_at)
        self.requests += other.requests
        self.objects += other.objects
        self.failed += other.failed
        self.frontend_hits += other.frontend_hits
        self.frontend_lookups += other.frontend_lookups
        self.frontend_evictions += other.frontend_evictions
        self.errors.extend(other.errors)


class Pacer:
    """Stop-the-world safepoints for sampling the machine's speed mid-pass.

    The machine changes speed within seconds (see :mod:`.calibration`), so
    one factor per pass is too coarse.  Clients call :meth:`safepoint`
    between steps; every ``interval`` seconds the sampling thread asks them
    to park there, times the calibration kernel while nothing else runs,
    and lets them go.  Each step is later divided by the factor
    interpolated at its start time.  The first sample doubles as the
    starting gun: clients begin parked.
    """

    def __init__(self, clients: int) -> None:
        self._cond = threading.Condition()
        self._active = clients
        self._parked = 0
        self._pause = True
        self._finished_at = 0.0
        self.samples: Samples = []
        self.sampling_s = 0.0

    # -- client side ------------------------------------------------------

    def safepoint(self) -> None:
        if not self._pause:  # racy read on purpose: a late park is still a park
            return
        with self._cond:
            self._parked += 1
            self._cond.notify_all()
            while self._pause:
                self._cond.wait()
            self._parked -= 1

    def leave(self) -> None:
        with self._cond:
            self._active -= 1
            self._finished_at = time.perf_counter()
            self._cond.notify_all()

    # -- sampling side ----------------------------------------------------

    def _sample(self) -> None:
        with self._cond:
            self._pause = True
            while self._parked < self._active:
                self._cond.wait()
        start = time.perf_counter()
        factor = speed_factor(runs=3)
        with self._cond:
            self.samples.append((start, factor))
            self.sampling_s += time.perf_counter() - start
            self._pause = False
            self._cond.notify_all()

    def pace(self, interval: float) -> float:
        """Sample until every client has left; returns the pass's wall seconds."""
        self._sample()  # the starting gun
        released = time.perf_counter()
        sampled_before = self.sampling_s
        while True:
            with self._cond:
                if self._cond.wait_for(lambda: self._active == 0, timeout=interval):
                    break
            self._sample()
        sampled_in_pass = self.sampling_s - sampled_before
        finished = self._finished_at
        self._sample()  # closes the last interpolation interval
        return finished - released - sampled_in_pass


#: Seconds between speed samples inside a pass (each costs ~7 ms, which is
#: taken out of the pass's wall and CPU time).
SAMPLE_INTERVAL_S = 0.15


def _run_sessions(
    service: Any,
    workload: Workload,
    scale: Scale,
    sessions: list[list[Position]],
    recorder: tracing.SpanRecorder | None,
    pacer: Pacer,
    result: PassResult,
) -> None:
    """One client thread: each session is a fresh user with an empty frontend."""
    size = scale.viewport
    for positions in sessions:
        frontend = KyrixFrontend(service, workload.scheme)

        def interact(index: int, x: float, y: float) -> Any:
            if index == 0:
                return frontend.load_canvas(CANVAS_ID, Viewport(x, y, size, size))
            return frontend.pan_to(x, y)

        for index, (x, y) in enumerate(positions):
            pacer.safepoint()
            start = time.perf_counter()
            result.step_at.append(start)
            try:
                if recorder is None:
                    breakdown = interact(index, x, y)
                else:
                    with recorder.step():
                        breakdown = interact(index, x, y)
            except Exception:  # noqa: BLE001 - a failed step is counted, the run goes on
                result.step_ms.append((time.perf_counter() - start) * 1e3)
                result.failed += 1
                if len(result.errors) < 3:
                    result.errors.append(traceback.format_exc(limit=4))
                continue
            result.step_ms.append((time.perf_counter() - start) * 1e3)
            result.requests += breakdown.requests
            result.objects += breakdown.objects_fetched
        cache_stats = frontend.cache.stats
        result.frontend_hits += cache_stats.hits
        result.frontend_lookups += cache_stats.hits + cache_stats.misses
        result.frontend_evictions += cache_stats.evictions


def run_pass(
    service: Any,
    workload: Workload,
    scale: Scale,
    traces: Traces,
    *,
    concurrent: bool = True,
    recorder: tracing.SpanRecorder | None = None,
) -> PassResult:
    """Replay every session once: one client thread per trace list, or —
    with ``concurrent=False`` — a single client running them all in turn
    (the traced pass runs that way so each shard span has exactly one
    session it can belong to).  The calling thread paces and samples."""
    work = traces if concurrent else [[s for sessions in traces for s in sessions]]
    parts = [PassResult() for _ in work]
    crashes: list[BaseException] = []
    pacer = Pacer(len(work))

    def client(sessions: list[list[Position]], part: PassResult) -> None:
        try:
            _run_sessions(service, workload, scale, sessions, recorder, pacer, part)
        except BaseException as crash:  # noqa: BLE001 - re-raised on the caller's thread
            crashes.append(crash)
        finally:
            pacer.leave()

    workers = [
        threading.Thread(target=client, args=(sessions, part), daemon=True)
        for sessions, part in zip(work, parts)
    ]
    total = PassResult()
    gen2_before = gc.get_stats()[2]["collections"]
    cpu_before = time.process_time()
    for worker in workers:
        worker.start()
    total.wall_s = pacer.pace(SAMPLE_INTERVAL_S)
    for worker in workers:
        worker.join()
    # The sampling kernel is pure CPU on this thread; it is not the program's.
    total.cpu_s = time.process_time() - cpu_before - pacer.sampling_s
    total.gen2 = gc.get_stats()[2]["collections"] - gen2_before
    if crashes:
        # Anything a step did not absorb (a frontend that cannot even be
        # built) would otherwise end a client silently with half its steps.
        raise crashes[0]
    for part in parts:
        total.absorb(part)
    total.samples = pacer.samples
    total.norm_ms = [
        ms / factor_at(pacer.samples, at) for ms, at in zip(total.step_ms, total.step_at)
    ]
    total.factor = sum(total.step_ms) / sum(total.norm_ms)
    return total


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of an ascending list."""
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def _rep_metrics(rep: PassResult) -> dict[str, float]:
    """One repetition's wall-clock metrics in reference milliseconds."""
    ordered = sorted(rep.norm_ms)
    return {
        "step_ms_mean": sum(ordered) / len(ordered),
        "step_ms_p50": percentile(ordered, 0.50),
        "step_ms_p95": percentile(ordered, 0.95),
        "steps_per_s": len(ordered) / rep.wall_s * rep.factor,
    }


def _typical_step_ms(reps: list[PassResult]) -> list[float]:
    """Each step's median time over the repetitions, in trace order.

    Once the machine's speed is normalised away what is left of
    interference is bursts of milliseconds.  They hit a few steps of a
    repetition, a different few each time, so they leave a step's median
    alone, while a percentile of one repetition's — or of the pooled —
    times reads them as the program's tail.  (Spread of ``step_ms_p95``
    over eight seeds, same repetitions: ``single_dbox`` 3.7 % this way,
    6.3 % for the median of the repetitions' percentiles, 12.8 % pooled;
    ``cluster_cold`` 6.6 %, 8.0 %, and 9.7 % for the best repetition's.)
    Pauses of the program's own that strike steps at random (collections)
    go the same way; the pooled ``client.step_ms_p99`` keeps them.
    """
    return [statistics.median(times) for times in zip(*(rep.norm_ms for rep in reps))]


@dataclass
class Measured:
    """The timed phase: every repetition plus the counters it moved."""

    reps: list[PassResult]
    counters: dict[str, float]

    @property
    def steps(self) -> int:
        return sum(len(rep.step_ms) for rep in self.reps)


def measure(
    service: Any, workload: Workload, scale: Scale, traces: Traces, seconds: float
) -> Measured:
    reps: list[PassResult] = []
    counters: dict[str, float] = {}
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(reps) < scale.min_reps
        or sum(len(rep.step_ms) for rep in reps) < scale.min_steps
    ):
        probes.reset_state(service)
        before = probes.read_counters(service)
        reps.append(run_pass(service, workload, scale, traces))
        for key, value in probes.read_counters(service).items():
            counters[key] = counters.get(key, 0) + value - before.get(key, 0)
    return Measured(reps, counters)


def _untraced_metrics(measured: Measured) -> tuple[dict[str, float | None], dict[str, list]]:
    """Headline values of the untraced phase, and every repetition's own."""
    per_rep = [_rep_metrics(rep) for rep in measured.reps]
    spread: dict[str, list] = {name: [rep[name] for rep in per_rep] for name in per_rep[0]}
    spread["speed_factor"] = [rep.factor for rep in measured.reps]
    typical = sorted(_typical_step_ms(measured.reps))
    metrics: dict[str, float | None] = {
        # A mean is a total: it keeps every repetition's own, so that it
        # stays the reciprocal of steps_per_s per client.  (The mean of
        # per-step medians is not one: where a step hits a cache in two
        # repetitions and misses in the third, the median drops the miss.)
        "step_ms_mean": statistics.median(spread["step_ms_mean"]),
        "step_ms_p50": percentile(typical, 0.50),
        "step_ms_p95": percentile(typical, 0.95),
        "steps_per_s": statistics.median(spread["steps_per_s"]),
    }

    steps = measured.steps
    raw = [ms for rep in measured.reps for ms in rep.step_ms]
    pooled = sorted(ms for rep in measured.reps for ms in rep.norm_ms)
    failed = sum(rep.failed for rep in measured.reps)
    over_budget = sum(1 for ms in raw if ms > BUDGET_MS)
    lookups = sum(rep.frontend_lookups for rep in measured.reps)
    best_mean = min(spread["step_ms_mean"])
    counters = dict(measured.counters)
    counters["cache_evictions"] = counters.get("cache_evictions", 0) + sum(
        rep.frontend_evictions for rep in measured.reps
    )
    metrics.update(probes.counter_metrics(counters, steps))
    metrics.update(
        {
            # The budget is about what a user waits, so it reads raw wall
            # time.  Failed steps count as misses; a slow one counts once.
            "budget_miss_ratio": min(steps, over_budget + failed) / steps,
            "client.requests_per_step": sum(rep.requests for rep in measured.reps) / steps,
            "client.objects_per_step": sum(rep.objects for rep in measured.reps) / steps,
            "client.cache_hit_ratio": sum(rep.frontend_hits for rep in measured.reps) / lookups
            if lookups
            else None,
            "client.step_ms_p99": percentile(pooled, 0.99),
            "process.cpu_ms_per_step": sum(rep.cpu_s / rep.factor for rep in measured.reps)
            * 1e3
            / steps,
            "process.gc_gen2_per_kstep": sum(rep.gen2 for rep in measured.reps) * 1e3 / steps,
            "process.rep_spread_ratio": (metrics["step_ms_mean"] - best_mean) / best_mean,
            "process.speed_factor": statistics.median(spread["speed_factor"]),
        }
    )
    return metrics, spread


def _alloc_kb_per_step(
    service: Any, workload: Workload, scale: Scale, traces: Traces
) -> float:
    """Mean tracemalloc peak of a fresh session's first viewport load.

    A fresh frontend per position, so the level the peak is measured from
    holds no earlier result and the peak is everything one step needs alive
    at once: the objects it shows plus every transient copy made on the way.
    """
    size = scale.viewport
    peaks = []
    probes.reset_state(service)  # every load must miss every cache
    tracemalloc.start()
    try:
        for x, y in traces[0][0][: scale.alloc_steps]:
            frontend = KyrixFrontend(service, workload.scheme)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            frontend.load_canvas(CANVAS_ID, Viewport(x, y, size, size))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            del frontend
    finally:
        tracemalloc.stop()
    return sum(peaks) / len(peaks) / 1024.0


def _telemetry_on_cost(workload: Workload, scale: Scale, seed: int, traces: Traces) -> float:
    """The program's own telemetry on against off, each on a freshly built
    stack (so both carry the same heap history), best of two repetitions."""

    def fresh_best(telemetry_on: bool | None) -> float:
        stack = build_stack(workload, scale, seed, telemetry=telemetry_on)
        try:
            run_pass(stack.service, workload, scale, traces)  # warm-up
            best, _ = _best_of_two(stack.service, workload, scale, traces, concurrent=True)
        finally:
            stack.service.close()
        return best

    off = fresh_best(None)
    try:
        on = fresh_best(True)
    finally:
        # The tracer is process-wide: switch it back off for whatever runs next.
        telemetry.configure()
    return on / off - 1.0


def _best_of_two(
    service: Any,
    workload: Workload,
    scale: Scale,
    traces: Traces,
    recorder: tracing.SpanRecorder | None = None,
    *,
    concurrent: bool = False,
) -> tuple[float, Samples]:
    """Two passes from the reset state: the better ``step_ms_mean`` (bursts
    only ever add time) and both passes' speed samples."""
    means = []
    samples: Samples = []
    for _ in range(2):
        probes.reset_state(service)
        rep = run_pass(
            service, workload, scale, traces, concurrent=concurrent, recorder=recorder
        )
        means.append(_rep_metrics(rep)["step_ms_mean"])
        samples += rep.samples
    return min(means), samples


def _traced_metrics(
    stack: Stack, workload: Workload, scale: Scale, traces: Traces
) -> tuple[dict[str, float | None], dict[str, Any]]:
    """Interpose the span proxies, run the single-session passes, replay the leaves."""
    service = stack.service
    metrics: dict[str, float | None] = {
        "process.alloc_kb_per_step": _alloc_kb_per_step(service, workload, scale, traces)
    }
    # The overhead baseline has the traced passes' shape — one session, from
    # the reset state — with the proxies not yet in place.
    baseline, _ = _best_of_two(service, workload, scale, traces)
    recorder = tracing.SpanRecorder()
    endpoint = tracing.interpose(service, recorder)
    traced, samples = _best_of_two(endpoint, workload, scale, traces, recorder)
    metrics["trace.overhead_ratio"] = traced / baseline - 1.0

    tree = tracing.SpanTree(recorder.spans, lambda moment: factor_at(samples, moment))
    captured = recorder.captured
    metrics.update(tracing.layer_times(tree))
    if captured.rows_returned:
        engine_ms = sum(tree.ms(span) for span in tree.of(tracing.ENGINE))
        metrics["minisql.us_per_row"] = engine_ms * 1e3 / captured.rows_returned

    leaves, skipped = probes.replay_leaves(service, captured, scale.replay_cap)
    metrics.update(leaves)
    return metrics, {
        "summary": tree.summary(),
        "sample": _span_sample(tree),
        "skipped_replays": skipped,
    }


def _span_sample(tree: tracing.SpanTree, steps: int = 8) -> list[list[Any]]:
    """The spans of the first few steps, as ``[id, name, start_us, dur_us, parent, request]``.

    Raw microseconds.  Aggregates are in the summary; the sample shows the
    shape of a step (what nests under what, what ran in parallel) without
    megabytes of rows.
    """
    first = {span.id for span in tree.of(tracing.STEP)[:steps]}
    chosen = [span for span in tree.spans if span.request in first]
    origin = min((span.start for span in chosen), default=0.0)
    return [
        [
            span.id,
            span.name,
            round((span.start - origin) * 1e6, 1),
            round((span.end - span.start) * 1e6, 1),
            span.parent,
            span.request,
        ]
        for span in sorted(chosen, key=lambda span: span.start)
    ]


def _build(workload: Workload, scale: Scale, seed: int) -> tuple[Stack, dict[str, float]]:
    """One set-up; its stage timings in reference seconds (see :mod:`.calibration`)."""
    before = speed_factor()
    stack = build_stack(workload, scale, seed)
    factor = (before + speed_factor()) / 2.0
    return stack, {stage: s / factor for stage, s in stack.timings.items()}


def _set_up(
    workload: Workload, scale: Scale, seed: int, times: int
) -> tuple[Stack, list[dict[str, float]]]:
    """Build the stack ``times`` times; the last one is kept for measuring."""
    stack, timings = _build(workload, scale, seed)
    setups = [timings]
    for _ in range(times - 1):
        stack.service.close()
        del stack
        # The previous stack's rows must not sit in memory beside the next one's.
        gc.collect()
        stack, timings = _build(workload, scale, seed)
        setups.append(timings)
    return stack, setups


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale = FULL,
) -> dict[str, Any]:
    """Run one workload end to end and return its full result document."""
    workload = WORKLOADS[name]
    traces = session_traces(workload, scale, seed)
    positions = [p for sessions in traces for session in sessions for p in session]

    # Several set-ups when untraced, so setup_s can be their median.
    stack, setups = _set_up(workload, scale, seed, 1 if trace else scale.setups)
    try:
        run_pass(stack.service, workload, scale, traces)  # warm-up, untimed
        # A traced run spends half its seconds on the untraced phase that
        # supplies counters and the overhead baseline.
        measured = measure(
            stack.service, workload, scale, traces, seconds / 2 if trace else seconds
        )
        metrics, spread = _untraced_metrics(measured)
        checked, mismatches = verify(stack, workload, scale, positions, seed)

        spans: dict[str, Any] = {}
        if trace:
            traced, spans = _traced_metrics(stack, workload, scale, traces)
            metrics.update(traced)
            if name == "cluster_cold":
                metrics["telemetry.on_cost_ratio"] = _telemetry_on_cost(
                    workload, scale, seed, traces
                )
        replicated = probes.shard_rows_replicated_ratio(stack.service)
    finally:
        stack.service.close()

    timed_failed = sum(rep.failed for rep in measured.reps)
    attempted = measured.steps + checked
    failed = timed_failed + len(mismatches)
    metrics["failed_step_ratio"] = failed / attempted
    metrics["setup_s"] = statistics.median(s["total"] for s in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = setups[-1]
    metrics.update(
        {
            "setup.load_s": last["load"],
            "setup.compile_s": last["compile"],
            "setup.precompute_s": last["precompute"],
            "setup.shard_build_s": last.get("shard_build"),
            "setup.shard_rows_replicated_ratio": replicated,
        }
    )
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "steps": len(positions),
        "reps": len(measured.reps),
        "timed_steps": measured.steps,
        "verified": checked,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": mismatches + [e for rep in measured.reps for e in rep.errors][:3],
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "spread": spread,
        "setups": setups,
        "spans": spans,
    }
