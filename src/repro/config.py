"""Global configuration objects for the Kyrix reproduction.

The original Kyrix reads a ``config.txt`` file naming the backing DBMS and
the web-server ports.  Here the equivalent is :class:`KyrixConfig`, a plain
dataclass that applications pass to :class:`repro.core.application.Application`.
It bundles the storage-engine configuration, the simulated network link
parameters and the interactivity budget (the paper's 500 ms goal).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from .errors import KyrixError

#: The interactivity budget the paper targets for every interaction (ms).
INTERACTIVITY_BUDGET_MS = 500.0


@dataclass
class StorageConfig:
    """Configuration of the embedded storage engine.

    Attributes
    ----------
    page_size:
        Size of a heap-file page in bytes.  Records never span pages, so the
        page size bounds the maximum record size.
    buffer_pool_pages:
        Number of pages the buffer pool keeps in memory before evicting.
    simulate_io:
        When true, the pager charges ``page_read_ms`` / ``page_write_ms`` of
        simulated latency for every page miss, emulating a disk-backed DBMS.
    page_read_ms / page_write_ms:
        Simulated latency per page read / write miss, in milliseconds.
    """

    page_size: int = 8192
    buffer_pool_pages: int = 1024
    simulate_io: bool = False
    page_read_ms: float = 0.05
    page_write_ms: float = 0.08

    def validate(self) -> None:
        if self.page_size < 512:
            raise KyrixError(f"page_size must be >= 512 bytes, got {self.page_size}")
        if self.buffer_pool_pages < 8:
            raise KyrixError(
                f"buffer_pool_pages must be >= 8, got {self.buffer_pool_pages}"
            )
        if self.page_read_ms < 0 or self.page_write_ms < 0:
            raise KyrixError("simulated I/O latencies must be non-negative")


@dataclass
class NetworkConfig:
    """Parameters of the simulated frontend <-> backend link.

    The paper's experiments ran the browser and the backend on the same EC2
    instance, so the defaults model a fast local link.  The per-request
    round-trip time is the term that penalises fetching schemes that issue
    many small requests (e.g. 256-pixel tiles); the bandwidth term penalises
    schemes that transfer a lot of data (e.g. 4096-pixel tiles).
    """

    rtt_ms: float = 2.0
    bandwidth_mbps: float = 1000.0
    per_object_bytes: int = 64
    request_overhead_bytes: int = 256
    simulate_delay: bool = False

    def validate(self) -> None:
        if self.rtt_ms < 0:
            raise KyrixError("rtt_ms must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise KyrixError("bandwidth_mbps must be positive")
        if self.per_object_bytes <= 0:
            raise KyrixError("per_object_bytes must be positive")


@dataclass
class CacheConfig:
    """Sizes of the two response caches (number of cached responses).

    ``backend_entries`` sizes the one server-side cache of a stack — over
    the backend of a single-backend server, over the scatter-gather of a
    cluster router; ``frontend_entries`` sizes each frontend's own.
    """

    backend_entries: int = 256
    frontend_entries: int = 64
    enabled: bool = True

    def validate(self) -> None:
        if self.backend_entries < 0 or self.frontend_entries < 0:
            raise KyrixError("cache sizes must be non-negative")


@dataclass
class PrefetchConfig:
    """Configuration of the momentum-based prefetcher (Section 4)."""

    enabled: bool = False
    strategy: str = "momentum"
    lookahead_steps: int = 1
    history_window: int = 4

    def validate(self) -> None:
        if self.strategy not in ("momentum", "semantic", "none"):
            raise KyrixError(f"unknown prefetch strategy: {self.strategy!r}")
        if self.lookahead_steps < 0:
            raise KyrixError("lookahead_steps must be non-negative")
        if self.history_window < 1:
            raise KyrixError("history_window must be >= 1")


#: The replica selection policies a cluster's replica sets understand
#: (:class:`~repro.serving.replica.ReplicaService` re-exports this).
REPLICA_POLICIES = ("round_robin", "least_inflight")


@dataclass
class AutopilotConfig:
    """Configuration of the self-driving control loop (:mod:`repro.cluster.autopilot`).

    Attributes
    ----------
    enabled:
        When true, :func:`repro.cluster.builder.build_cluster` attaches a
        running :class:`~repro.cluster.autopilot.ClusterAutopilot` to the
        built cluster: a background daemon thread that periodically
        snapshots load skew and replica health, triggers online rebalances,
        autoscales the shard and replica counts, and read-repairs divergent
        replicas.  Off by default — nothing moves unless asked to.
    interval_s:
        Seconds between control-loop ticks (wall-clock, for the background
        thread; tests drive :meth:`~repro.cluster.autopilot.ClusterAutopilot.tick`
        directly on a :class:`~repro.metrics.timer.VirtualClock`).
    cooldown_s:
        Minimum clock time between two autopilot *migrations* (rebalance,
        grow, shrink, replica re-scale).  Damping: however noisy the load
        signal, topology changes cannot happen more often than this.
    hysteresis:
        Re-arm band below the skew threshold.  After a skew-triggered
        migration the loop is *disarmed* and stays disarmed until observed
        skew falls below ``rebalance_skew_threshold - hysteresis`` — a
        hotspot oscillating right at the threshold therefore produces at
        most one migration per cooldown window instead of thrashing.
    rearm_windows:
        Persistent-skew escape hatch for the hysteresis disarm: when skew
        *never* leaves the trigger band (the previous migration did not
        fix it, e.g. it split on a stale load histogram), the loop re-arms
        anyway after this many cooldown windows and retries with fresher
        load data.  Without it a single bad split would disarm the
        autopilot forever; with it, retries still pace at a multiple of
        the cooldown, so the thrash bound holds.
    min_shards / max_shards:
        Bounds of the shard-count autoscaler (grow doubles, shrink halves,
        always clamped into ``[min_shards, max_shards]``).
    grow_requests:
        Scatter-gathers per tick above which traffic counts as sustained
        load and the shard count grows (2→4→8 under a heavy workload).
    shrink_idle_ticks:
        Consecutive idle ticks (fewer than ``shrink_requests`` scatters
        each) after which the shard count shrinks toward ``min_shards``.
    shrink_requests:
        Scatter-gathers per tick at or below which a tick counts as idle.
    replica_pressure:
        Mean per-replica attempts per tick above which every shard gains a
        replica (capped at ``max_replicas``); an idle shrink drops the
        replica count back toward 1.
    max_replicas:
        Upper bound of the replica autoscaler.
    read_repair:
        When true, a tick that finds
        :meth:`~repro.cluster.router.ShardTable.divergent_replicas`
        non-empty rebuilds each flagged replica from a fresh
        :class:`~repro.serving.worker.ShardSpec` and swaps it in behind
        its circuit breaker without dropping in-flight requests.
    """

    enabled: bool = False
    interval_s: float = 5.0
    cooldown_s: float = 30.0
    hysteresis: float = 0.25
    rearm_windows: int = 2
    min_shards: int = 1
    max_shards: int = 8
    grow_requests: int = 256
    shrink_idle_ticks: int = 3
    shrink_requests: int = 8
    replica_pressure: int = 128
    max_replicas: int = 4
    read_repair: bool = True

    def validate(self) -> None:
        if self.interval_s <= 0:
            raise KyrixError("autopilot interval_s must be positive")
        if self.cooldown_s < 0:
            raise KyrixError("autopilot cooldown_s must be non-negative")
        if self.hysteresis < 0:
            raise KyrixError("autopilot hysteresis must be non-negative")
        if self.rearm_windows < 1:
            raise KyrixError("autopilot rearm_windows must be >= 1")
        if self.min_shards < 1:
            raise KyrixError(
                f"autopilot min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise KyrixError(
                "autopilot max_shards must be >= min_shards, got "
                f"{self.max_shards} < {self.min_shards}"
            )
        if self.grow_requests < 1:
            raise KyrixError("autopilot grow_requests must be >= 1")
        if self.shrink_idle_ticks < 1:
            raise KyrixError("autopilot shrink_idle_ticks must be >= 1")
        if self.shrink_requests < 0:
            raise KyrixError("autopilot shrink_requests must be non-negative")
        if self.shrink_requests >= self.grow_requests:
            raise KyrixError(
                "autopilot shrink_requests must be below grow_requests "
                f"(got {self.shrink_requests} >= {self.grow_requests})"
            )
        if self.replica_pressure < 1:
            raise KyrixError("autopilot replica_pressure must be >= 1")
        if self.max_replicas < 1:
            raise KyrixError("autopilot max_replicas must be >= 1")

#: How shard replicas execute: ``"threads"`` keeps every shard engine in
#: the router's process behind a lock; ``"processes"`` forks one worker
#: process per shard replica speaking the shard wire over localhost TCP
#: (:mod:`repro.serving.worker`), removing the GIL from the scatter path.
WORKER_MODES = ("threads", "processes")


@dataclass
class ClusterConfig:
    """Configuration of the sharded serving cluster (:mod:`repro.cluster`).

    Attributes
    ----------
    enabled:
        When true, :func:`repro.bench.apps.build_dots_backend` (and the
        stack builders layered on it) additionally shard the precomputed
        backend and expose a :class:`~repro.cluster.router.ClusterRouter`
        as the stack's ``serving`` endpoint.
    shard_count:
        Number of shard backends each canvas is partitioned across.
    strategy:
        Spatial partitioning strategy: ``"grid"`` (uniform grid of shard
        regions) or ``"kd"`` (balanced KD splits driven by the observed
        object-density statistics).
    coalescing:
        When true, identical in-flight requests from concurrent sessions are
        coalesced behind one backend scatter-gather.
    kd_sample_limit:
        Maximum number of object centres sampled per canvas when the KD
        strategy measures the spatial distribution.
    parallel_shards:
        When true, multi-shard scatter-gathers execute their shard queries
        on a thread pool instead of sequentially, so measured wall-clock
        matches the modelled critical path.  Gathered responses are
        byte-identical to the sequential path (shard results are merged in
        shard-id order either way).
    wire_shards:
        When true, every shard call crosses a wire-level transport
        (``encode -> decode -> handle -> encode -> decode`` through
        :mod:`repro.net.columnar`), so shard conversations are exactly what
        a multi-node deployment would put on the network.
    replicas:
        Number of interchangeable replicas serving each shard.  With more
        than one, the cluster builder fronts every shard with a
        :class:`~repro.serving.replica.ReplicaService` that load-balances,
        circuit-breaks and fails over across the replicas; ``1`` keeps the
        single-copy serving stack.
    replica_policy:
        Replica selection policy: ``"round_robin"`` (even spread) or
        ``"least_inflight"`` (steer to the least-loaded replica).
    replica_retry_limit:
        Maximum replica attempts per request; ``0`` means try every replica
        once before raising
        :class:`~repro.errors.AllReplicasFailedError`.
    breaker_threshold:
        Consecutive failures after which a replica's circuit breaker opens
        and the replica stops receiving traffic.
    breaker_reset_s:
        Seconds an open breaker waits before letting one trial request
        probe the replica again.
    worker_mode:
        ``"threads"`` (default) serves every shard replica in-process
        behind a :class:`~repro.serving.middleware.SerializedService`
        lock; ``"processes"`` forks one worker process per shard replica
        (:mod:`repro.serving.worker`) speaking the shard wire over
        length-prefixed frames on localhost TCP, so pure-Python shard
        queries execute on real parallel cores.
    worker_port_base:
        First TCP port assigned to worker processes (worker ``i`` binds
        ``worker_port_base + i``); ``0`` (default) lets every worker bind
        an ephemeral port and report it back.  Across rebalances, each
        worker generation offsets its ports by ``generation * pool size``
        so a new pool can come up while the old one still serves.
    worker_spawn_timeout_s:
        Seconds the cluster builder waits for each worker process to
        report ready before failing the build.
    rebalance_skew_threshold:
        Load-skew trigger for :meth:`LoadRebalancer.should_rebalance`:
        the maximum per-shard request count divided by the mean, above
        which the observed traffic counts as skewed.  ``1.0`` is perfect
        balance; the default ``2.0`` means one shard carries at least
        twice the average load.
    rebalance_min_requests:
        Minimum number of scatter-gathers that must have been observed
        before the skew metric is trusted (a handful of requests can look
        arbitrarily skewed without meaning anything).
    rebalance_load_samples:
        Per-canvas cap on the recorded request-footprint centres the
        router keeps for the load-weighted repartitioner (a ring buffer:
        old samples fall off, so the histogram tracks *recent* traffic).
    rebalance_drain_timeout_s:
        Seconds an online swap waits for in-flight requests against the
        retired shard table to drain before closing its shard stacks (and
        worker pool) anyway.
    autopilot:
        The self-driving control loop's own section
        (:class:`AutopilotConfig`): tick interval, migration cooldown,
        skew hysteresis band, shard/replica autoscaling bounds and the
        read-repair switch.
    """

    enabled: bool = False
    shard_count: int = 4
    strategy: str = "grid"
    coalescing: bool = True
    kd_sample_limit: int = 50_000
    parallel_shards: bool = True
    wire_shards: bool = True
    replicas: int = 1
    replica_policy: str = "round_robin"
    replica_retry_limit: int = 0
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    worker_mode: str = "threads"
    worker_port_base: int = 0
    worker_spawn_timeout_s: float = 10.0
    rebalance_skew_threshold: float = 2.0
    rebalance_min_requests: int = 64
    rebalance_load_samples: int = 4096
    rebalance_drain_timeout_s: float = 30.0
    autopilot: AutopilotConfig = field(default_factory=AutopilotConfig)

    def __post_init__(self) -> None:
        # ``KyrixConfig.from_dict`` builds this section with
        # ``ClusterConfig(**data)``, so a round-tripped configuration hands
        # the nested autopilot section in as a plain dict; coerce it back.
        if isinstance(self.autopilot, dict):
            self.autopilot = AutopilotConfig(**self.autopilot)

    def validate(self) -> None:
        if self.shard_count < 1:
            raise KyrixError(f"shard_count must be >= 1, got {self.shard_count}")
        if self.strategy not in ("grid", "kd"):
            raise KyrixError(f"unknown partitioning strategy: {self.strategy!r}")
        if self.kd_sample_limit < 1:
            raise KyrixError("kd_sample_limit must be >= 1")
        if self.replicas < 1:
            raise KyrixError(f"replicas must be >= 1, got {self.replicas}")
        if self.replica_policy not in REPLICA_POLICIES:
            raise KyrixError(f"unknown replica policy: {self.replica_policy!r}")
        if self.replica_retry_limit < 0:
            raise KyrixError("replica_retry_limit must be non-negative")
        if self.breaker_threshold < 1:
            raise KyrixError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_s < 0:
            raise KyrixError("breaker_reset_s must be non-negative")
        if self.worker_mode not in WORKER_MODES:
            raise KyrixError(f"unknown worker mode: {self.worker_mode!r}")
        if not 0 <= self.worker_port_base <= 65535:
            raise KyrixError(
                f"worker_port_base must be in [0, 65535], got {self.worker_port_base}"
            )
        if self.worker_spawn_timeout_s <= 0:
            raise KyrixError("worker_spawn_timeout_s must be positive")
        if self.rebalance_skew_threshold < 1.0:
            raise KyrixError(
                "rebalance_skew_threshold must be >= 1.0 (1.0 is perfect "
                f"balance), got {self.rebalance_skew_threshold}"
            )
        if self.rebalance_min_requests < 1:
            raise KyrixError("rebalance_min_requests must be >= 1")
        if self.rebalance_load_samples < 1:
            raise KyrixError("rebalance_load_samples must be >= 1")
        if self.rebalance_drain_timeout_s <= 0:
            raise KyrixError("rebalance_drain_timeout_s must be positive")
        self.autopilot.validate()


@dataclass
class TelemetryConfig:
    """Configuration of the tracing + metrics plane (:mod:`repro.telemetry`).

    Attributes
    ----------
    enabled:
        When true, every serving layer opens timed spans and feeds the
        process-wide latency histograms.  Off by default: disabled tracing
        reduces to a shared no-op span object on the hot path.
    sample_rate:
        Fraction of traces recorded in full span detail (``1.0`` keeps
        every trace).  Sampling is deterministic (counter-based), so a rate
        of ``0.1`` keeps exactly every tenth trace.  Unsampled requests
        still feed the duration histograms.
    trace_buffer:
        Number of newest completed traces retained in the in-memory ring
        buffer served by ``GET /trace/<trace_id>``.
    export_path:
        Optional path of a JSONL file that every sampled trace is appended
        to (one line per trace), consumable by
        ``python -m repro.telemetry.dump``.
    """

    enabled: bool = False
    sample_rate: float = 1.0
    trace_buffer: int = 256
    export_path: str | None = None

    def validate(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise KyrixError(
                f"sample_rate must be in [0.0, 1.0], got {self.sample_rate}"
            )
        if self.trace_buffer < 1:
            raise KyrixError(f"trace_buffer must be >= 1, got {self.trace_buffer}")


@dataclass
class KyrixConfig:
    """Top-level configuration for a Kyrix application.

    The equivalent of the ``config.txt`` file referenced in the paper's
    example (``new App("usmap", "config.txt")``).
    """

    app_name: str = "kyrix-app"
    storage: StorageConfig = field(default_factory=StorageConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    interactivity_budget_ms: float = INTERACTIVITY_BUDGET_MS
    viewport_width: int = 1000
    viewport_height: int = 1000

    def validate(self) -> None:
        """Raise :class:`KyrixError` if any sub-configuration is invalid."""
        if not self.app_name:
            raise KyrixError("app_name must be a non-empty string")
        if self.viewport_width <= 0 or self.viewport_height <= 0:
            raise KyrixError("viewport dimensions must be positive")
        if self.interactivity_budget_ms <= 0:
            raise KyrixError("interactivity_budget_ms must be positive")
        self.storage.validate()
        self.network.validate()
        self.cache.validate()
        self.prefetch.validate()
        self.cluster.validate()
        self.telemetry.validate()

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable dictionary of this configuration."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KyrixConfig":
        """Build a configuration from a (possibly partial) dictionary."""
        known = dict(data)
        storage = StorageConfig(**known.pop("storage", {}))
        network = NetworkConfig(**known.pop("network", {}))
        cache = CacheConfig(**known.pop("cache", {}))
        prefetch = PrefetchConfig(**known.pop("prefetch", {}))
        cluster = ClusterConfig(**known.pop("cluster", {}))
        telemetry = TelemetryConfig(**known.pop("telemetry", {}))
        config = cls(
            storage=storage,
            network=network,
            cache=cache,
            prefetch=prefetch,
            cluster=cluster,
            telemetry=telemetry,
            **known,
        )
        config.validate()
        return config

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "KyrixConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "KyrixConfig":
        """Load a configuration from a JSON file (the ``config.txt`` analogue)."""
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())
