"""Global configuration objects for the Kyrix reproduction.

The original Kyrix reads a ``config.txt`` file naming the backing DBMS and
the web-server ports.  Here the equivalent is :class:`KyrixConfig`, a plain
dataclass that applications pass to :class:`repro.core.application.Application`.
It bundles the storage-engine configuration, the two cache sizes, the
cluster / telemetry sections and the viewport size.  A field lives
here only while a non-test caller sets it to a second value
(``docs/operations.md`` names that caller per field); a value nobody varies
is a module constant beside the code that reads it (``docs/extending.md``),
and a choice nobody makes is made once in code (a replica set always picks
round-robin; a frontend prefetches exactly when it is handed a prefetcher).
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
class CacheConfig:
    """Sizes of the two response caches (number of cached responses).

    ``backend_entries`` sizes the one server-side cache of a stack — over
    the backend of a single-backend server, over the scatter-gather of a
    cluster router; ``frontend_entries`` sizes each frontend's own.  ``0``
    turns that cache off.
    """

    backend_entries: int = 256
    frontend_entries: int = 64

    def validate(self) -> None:
        if self.backend_entries < 0 or self.frontend_entries < 0:
            raise KyrixError("cache sizes must be non-negative")


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
        circuit-breaks (with that class's own breaker defaults) and fails
        over across them, picking round-robin among the replicas whose
        breakers admit traffic.
    worker_mode:
        ``"threads"`` serves every shard replica in-process behind a
        :class:`~repro.serving.middleware.SerializedService` lock;
        ``"processes"`` forks one worker process per shard replica
        (:mod:`repro.serving.worker`) speaking the shard wire over
        localhost TCP, so shard queries execute on real parallel cores.
    """

    enabled: bool = False
    shard_count: int = 4
    strategy: str = "grid"
    parallel_shards: bool = True
    wire_shards: bool = True
    replicas: int = 1
    worker_mode: str = "threads"

    def validate(self) -> None:
        if self.shard_count < 1:
            raise KyrixError(f"shard_count must be >= 1, got {self.shard_count}")
        if self.strategy not in ("grid", "kd"):
            raise KyrixError(f"unknown partitioning strategy: {self.strategy!r}")
        if self.replicas < 1:
            raise KyrixError(f"replicas must be >= 1, got {self.replicas}")
        if self.worker_mode not in WORKER_MODES:
            raise KyrixError(f"unknown worker mode: {self.worker_mode!r}")


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
    bool: (bool,), int: (int,), str: (str,),
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

    storage: StorageConfig = field(default_factory=StorageConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    viewport_width: int = 1000
    viewport_height: int = 1000

    def validate(self) -> None:
        """Raise :class:`KyrixError` if any sub-configuration is invalid."""
        if self.viewport_width <= 0 or self.viewport_height <= 0:
            raise KyrixError("viewport dimensions must be positive")
        for section in (self.storage, self.cache, self.cluster):
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
