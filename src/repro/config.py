"""Global configuration objects for the Kyrix reproduction.

The original Kyrix reads a ``config.txt`` file naming the backing DBMS and
the web-server ports.  Here the equivalent is :class:`KyrixConfig`, a plain
dataclass that applications pass to :class:`repro.core.application.Application`.
It bundles the storage-engine configuration, the modelled network hop,
the two cache sizes and the cluster / telemetry sections.  A field lives
here only while a non-test caller sets it to a second value
(``docs/operations.md`` names that caller per field); a value nobody varies
is a module constant beside the code that reads it (``docs/extending.md``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

from .errors import KyrixError

#: The interactivity budget the paper targets for every interaction (ms).
INTERACTIVITY_BUDGET_MS = 500.0


#: Largest heap page: a slotted page names offsets in 16 bits (``<H``), and a
#: record id keeps the slot number in its low 16.
MAX_PAGE_SIZE = 0xFFFF


@dataclass
class StorageConfig:
    """Configuration of the embedded storage engine.

    Attributes
    ----------
    page_size:
        Size of a heap-file page in bytes, 512 to 65 535.  Records never
        span pages, so the page size bounds the maximum record size.
    buffer_pool_pages:
        Number of pages the buffer pool keeps in memory before evicting.
        Misses are counted (``Database.pager_stats``), never charged: the
        engine's time is what a stopwatch measures.
    """

    page_size: int = 8192
    buffer_pool_pages: int = 1024

    def validate(self) -> None:
        if not 512 <= self.page_size <= MAX_PAGE_SIZE:
            raise KyrixError(
                f"storage.page_size must be 512 to {MAX_PAGE_SIZE} bytes, got {self.page_size}"
            )
        if self.buffer_pool_pages < 8:
            raise KyrixError(
                f"buffer_pool_pages must be >= 8, got {self.buffer_pool_pages}"
            )


@dataclass
class NetworkConfig:
    """Parameters of the modelled frontend <-> backend hop.

    The only modelled time in the package: ``LatencyBreakdown.network_ms``
    is ``rtt_ms`` plus payload bytes over ``bandwidth_mbps`` per request
    (:class:`~repro.net.link.SimulatedLink`), added by the frontend; nothing
    on the serving path reads these fields.

    The paper's experiments ran the browser and the backend on the same EC2
    instance, so the defaults model a fast local link.  The per-request
    round-trip time is the term that penalises fetching schemes that issue
    many small requests (e.g. 256-pixel tiles); the bandwidth term penalises
    schemes that transfer a lot of data (e.g. 4096-pixel tiles).
    """

    rtt_ms: float = 2.0
    bandwidth_mbps: float = 1000.0

    def validate(self) -> None:
        if self.rtt_ms < 0:
            raise KyrixError("rtt_ms must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise KyrixError("bandwidth_mbps must be positive")


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

    def validate(self) -> None:
        # ``enabled`` is the only off-switch; there is no "none" strategy.
        if self.strategy not in ("momentum", "semantic"):
            raise KyrixError(f"unknown prefetch strategy: {self.strategy!r}")


#: Replica selection policies (:mod:`repro.serving.replica` re-exports this).
REPLICA_POLICIES = ("round_robin", "least_inflight")


@dataclass
class AutopilotConfig:
    """Configuration of the self-driving control loop (:mod:`repro.cluster.autopilot`).

    Attributes
    ----------
    enabled:
        When true, :func:`repro.cluster.builder.build_cluster` attaches a
        running :class:`~repro.cluster.autopilot.ClusterAutopilot`: a daemon
        thread that watches per-shard load skew and re-splits the shards
        online when it crosses the rebalancer's threshold.  Off by
        default — nothing moves unless asked to.
    interval_s:
        Seconds between control-loop ticks (wall-clock, for the background
        thread; tests drive :meth:`~repro.cluster.autopilot.ClusterAutopilot.tick`
        directly on a :class:`~repro.metrics.timer.VirtualClock`).
    cooldown_s:
        Minimum clock time between two autopilot migrations.  Damping:
        however noisy the load signal, re-splits cannot happen more often
        than this.
    hysteresis:
        Re-arm band below the rebalancer's skew threshold.  After a
        skew-triggered migration the loop stays *disarmed* until observed
        skew falls below ``threshold - hysteresis`` — a hotspot oscillating
        right at the threshold therefore produces at most one migration
        per cooldown window instead of thrashing.
    rearm_windows:
        Persistent-skew escape hatch for the hysteresis disarm: when skew
        *never* leaves the trigger band (the previous migration did not
        fix it, e.g. it split on a stale load histogram), the loop re-arms
        anyway after this many cooldown windows.  Without it a single bad
        split would disarm the autopilot forever; with it, retries still
        pace at a multiple of the cooldown, so the thrash bound holds.
    """

    enabled: bool = False
    interval_s: float = 5.0
    cooldown_s: float = 30.0
    hysteresis: float = 0.25
    rearm_windows: int = 2

    def validate(self) -> None:
        if self.interval_s <= 0:
            raise KyrixError("autopilot interval_s must be positive")
        for name in ("cooldown_s", "hysteresis"):
            if getattr(self, name) < 0:
                raise KyrixError(f"autopilot {name} must be non-negative")
        if self.rearm_windows < 1:
            raise KyrixError(
                f"autopilot rearm_windows must be >= 1, got {self.rearm_windows}"
            )


#: How shard replicas execute (see :attr:`ClusterConfig.worker_mode`).
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
    parallel_shards:
        When true, multi-shard scatter-gathers execute their shard queries
        on a thread pool instead of sequentially, so the measured
        ``query_ms`` approaches the slowest shard's.  Gathered responses are
        byte-identical to the sequential path.
    wire_shards:
        When true, every shard call crosses a wire-level transport
        (``encode -> decode -> handle -> encode -> decode`` through
        :mod:`repro.net.columnar`), so shard conversations are exactly what
        a multi-node deployment would put on the network.
    replicas:
        Number of interchangeable replicas serving each shard.  With more
        than one, every shard is fronted by a
        :class:`~repro.serving.replica.ReplicaService` that load-balances,
        circuit-breaks and fails over across them.
    replica_policy:
        Replica selection policy: ``"round_robin"`` (even spread) or
        ``"least_inflight"`` (steer to the least-loaded replica).
    breaker_threshold:
        Consecutive failures after which a replica's circuit breaker opens
        and the replica stops receiving traffic.
    breaker_reset_s:
        Seconds an open breaker waits before letting one trial request
        probe the replica again.
    worker_mode:
        ``"threads"`` serves every shard replica in-process behind a
        :class:`~repro.serving.middleware.SerializedService` lock;
        ``"processes"`` forks one worker process per shard replica
        (:mod:`repro.serving.worker`) speaking the shard wire over
        localhost TCP, so shard queries execute on real parallel cores.
    worker_port_base:
        First TCP port assigned to worker processes (worker ``i`` binds
        ``worker_port_base + i``); ``0`` (default) lets every worker bind
        an ephemeral port and report it back.  Across rebalances, each
        worker generation offsets its ports by ``generation * pool size``
        so a new pool can come up while the old one still serves.
    autopilot:
        The self-driving control loop's own section (:class:`AutopilotConfig`).
    """

    enabled: bool = False
    shard_count: int = 4
    strategy: str = "grid"
    parallel_shards: bool = True
    wire_shards: bool = True
    replicas: int = 1
    replica_policy: str = "round_robin"
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    worker_mode: str = "threads"
    worker_port_base: int = 0
    autopilot: AutopilotConfig = field(default_factory=AutopilotConfig)

    def validate(self) -> None:
        if self.shard_count < 1:
            raise KyrixError(f"shard_count must be >= 1, got {self.shard_count}")
        if self.strategy not in ("grid", "kd"):
            raise KyrixError(f"unknown partitioning strategy: {self.strategy!r}")
        if self.replicas < 1:
            raise KyrixError(f"replicas must be >= 1, got {self.replicas}")
        if self.replica_policy not in REPLICA_POLICIES:
            raise KyrixError(f"unknown replica policy: {self.replica_policy!r}")
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
        self.autopilot.validate()


@dataclass
class TelemetryConfig:
    """Configuration of the tracing + metrics plane (:mod:`repro.telemetry`).

    Attributes
    ----------
    enabled:
        When true, every serving layer opens timed spans and feeds the
        process-wide latency histograms.  Off by default: disabled tracing
        reduces to a shared no-op span object on the hot path.  Enabled,
        every trace is recorded.
    export_path:
        Optional path of a JSONL file every trace is appended to (one line
        per trace; ``python -m repro.telemetry.dump`` reads it).
    """

    enabled: bool = False
    export_path: str | None = None


#: JSON value types accepted per default-value type (a ``bool`` is an
#: ``int`` to Python, so it passes only where ``bool`` is listed).
_SCALAR_TYPES: dict[type, tuple[type, ...]] = {
    bool: (bool,), int: (int,), float: (int, float), str: (str,),
    type(None): (str, type(None)),
}


def _load(cls: type, data: Any, where: str) -> Any:
    """Build config dataclass ``cls`` from outside input (a parsed
    ``config.txt``).  Every complaint is a :class:`KyrixError` naming section
    and key — a key deleted since the file was saved included: no aliases."""
    if not isinstance(data, dict):
        kind = type(data).__name__
        raise KyrixError(
            f"config section {where or '<top level>'!r} must be a mapping, got {kind}"
        )
    section = cls()
    known = {spec.name for spec in fields(cls)}
    for key, value in data.items():
        path = f"{where}.{key}" if where else str(key)
        if key not in known:
            raise KyrixError(f"unknown config key {path!r}")
        default = getattr(section, key)
        if is_dataclass(default):
            value = _load(type(default), value, path)
        else:
            expected = _SCALAR_TYPES[type(default)]
            if not isinstance(value, expected) or (
                isinstance(value, bool) and bool not in expected
            ):
                names = " or ".join(kind.__name__ for kind in expected)
                raise KyrixError(f"config key {path!r} must be {names}, got {value!r}")
        setattr(section, key, value)
    return section


@dataclass
class KyrixConfig:
    """Top-level configuration for a Kyrix application: the equivalent of the
    ``config.txt`` in the paper's example (``new App("usmap", "config.txt")``).
    """

    app_name: str = "kyrix-app"
    storage: StorageConfig = field(default_factory=StorageConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    viewport_width: int = 1000
    viewport_height: int = 1000

    def validate(self) -> None:
        """Raise :class:`KyrixError` if any sub-configuration is invalid."""
        if not self.app_name:
            raise KyrixError("app_name must be a non-empty string")
        if self.viewport_width <= 0 or self.viewport_height <= 0:
            raise KyrixError("viewport dimensions must be positive")
        for section in (self.storage, self.network, self.cache, self.prefetch,
                        self.cluster):
            section.validate()

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable dictionary of this configuration."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KyrixConfig":
        """Build a configuration from a (possibly partial) dictionary."""
        config = _load(cls, data, "")
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
