"""Process-based shard workers: the scatter path without the GIL.

Every topology so far kept shard engines in the router's process behind a
:class:`~repro.serving.middleware.SerializedService` lock, so multi-shard
scatter-gathers parallelised I/O but never pure-Python query execution.
This module moves each shard replica into its **own worker process**:

* :class:`ShardSpec` — a fully serialisable description of one shard: the
  application's compiled plan (:meth:`CompiledApplication.to_dict`,
  closures dropped), the configuration, and a dump of every table in the
  shard's database (schema, rows, index definitions).  Replicas run the
  same spec; each worker checks the :func:`database_checksum` of its own
  *rebuilt* index against :meth:`ShardSpec.checksum` before it reports
  ready, so a rebuild that differs from its spec is a failed spawn.
* :func:`replica_stack` — the serving stack of one shard replica, the same
  in every topology: a lock over a bare engine
  (``SerializedService ∘ KyrixBackend``), behind the wire when asked.
* :func:`worker_main` — the worker process entry point: rebuild the shard
  database from the spec, put a :class:`LocalTransport` over the replica
  stack, then answer :mod:`repro.net.columnar` messages over
  length-prefixed frames on a localhost TCP socket until told to stop.
  ``SIGTERM`` drains: in-flight requests finish, the listener closes, the
  process exits 0.
* :class:`WorkerPool` — the parent-side manager: forks one process per
  spec, waits for each worker's ready report (bound port) within
  ``spawn_timeout_s``, hands out
  :class:`~repro.net.socket_transport.SocketTransport` endpoints, and on
  ``close()`` terminates and joins every worker.

The wire above the socket is byte-identical to the in-process transport
pair, which is what makes the cross-topology parity suite
(``tests/cluster/test_topology_parity.py``) possible: the router cannot
tell a :class:`~repro.serving.transport.LocalTransport` from a worker
process on the other end of a frame stream.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import signal
import socket
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..compiler.plan import CompiledApplication
from ..config import KyrixConfig
from ..errors import WorkerError, WorkerSpawnError
from ..net.socket_transport import SocketTransport, serve_connection
from .middleware import SerializedService
from .transport import LocalTransport, TransportService

if TYPE_CHECKING:
    from ..server.backend import KyrixBackend
    from ..storage.database import Database
    from .base import DataService

__all__ = [
    "GENERATION_PORT_STRIDE",
    "ShardSpec",
    "TableDump",
    "WorkerHandle",
    "WorkerPool",
    "build_shard_spec",
    "database_checksum",
    "replica_stack",
    "worker_main",
]


# ---------------------------------------------------------------------------
# Shard specification (what crosses the process boundary)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableDump:
    """One table of a shard database in transportable form."""

    name: str
    #: ``(column_name, type_name)`` pairs, schema order.
    columns: tuple[tuple[str, str], ...]
    #: Heap rows in scan order (plain tuples of column values).
    rows: tuple[tuple, ...]
    #: ``(index_name, column, kind, unique)`` definitions.
    indexes: tuple[tuple[str, str, str, bool], ...]


def _dump_database(database: "Database") -> tuple[TableDump, ...]:
    """Dump every table of a database, sorted by table name."""
    dumps: list[TableDump] = []
    for name in database.table_names:
        table = database.table(name)
        dumps.append(
            TableDump(
                name=name,
                columns=tuple(
                    (column.name, column.type.value)
                    for column in table.schema.columns
                ),
                rows=tuple(table.scan_rows()),
                indexes=tuple(
                    sorted(
                        (info.name, info.column, info.kind, info.unique)
                        for info in table.indexes.values()
                    )
                ),
            )
        )
    return tuple(dumps)


def _restore_database(dumps: tuple[TableDump, ...], config: KyrixConfig) -> "Database":
    """Materialise a database from a dump (the worker-side inverse)."""
    from ..storage.database import Database

    database = Database(config.storage)
    for dump in dumps:
        table = database.create_table(dump.name, list(dump.columns))
        table.bulk_load(dump.rows)
        for index_name, column, kind, unique in dump.indexes:
            table.create_index(index_name, column, kind, unique=unique)
    return database


def _checksum_dumps(dumps: tuple[TableDump, ...]) -> str:
    """A stable content hash over a table dump (schema + rows + indexes)."""
    digest = hashlib.sha256()
    for dump in dumps:
        digest.update(repr((dump.name, dump.columns, dump.indexes)).encode("utf-8"))
        for row in dump.rows:
            digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()


def database_checksum(database: "Database") -> str:
    """Content hash of a live database (the algorithm of :meth:`ShardSpec.checksum`).

    A worker hashes its rebuilt database with it and refuses to report
    ready when the hash differs from its spec's.
    """
    return _checksum_dumps(_dump_database(database))


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to serve one shard.

    Replica identity is deliberately *not* part of the spec: every replica
    of a shard rebuilds from the identical bytes, so the pool pickles one
    payload per shard and assigns replica indexes on the parent side.
    """

    shard_id: int
    #: ``KyrixConfig.to_dict()`` of the cluster's configuration.
    config: dict
    #: ``CompiledApplication.to_dict()`` — the plan without live closures.
    plan: dict
    tables: tuple[TableDump, ...]

    def checksum(self) -> str:
        return _checksum_dumps(self.tables)

    def to_payload(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_payload(cls, payload: bytes) -> "ShardSpec":
        spec = pickle.loads(payload)
        if not isinstance(spec, cls):
            raise WorkerError(
                f"worker payload decoded to {type(spec).__name__}, not ShardSpec"
            )
        return spec


def build_shard_spec(
    database: "Database",
    compiled: CompiledApplication,
    config: KyrixConfig,
    *,
    shard_id: int,
) -> ShardSpec:
    """Serialise one shard's database into a worker-transportable spec."""
    return ShardSpec(
        shard_id=shard_id,
        config=config.to_dict(),
        plan=compiled.to_dict(),
        tables=_dump_database(database),
    )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def replica_stack(
    backend: "KyrixBackend",
    *,
    lock: threading.Lock | None = None,
    wire: bool = False,
) -> "DataService":
    """The serving stack of one shard replica, identical in every topology.

    A :class:`~repro.serving.middleware.SerializedService` guarding the
    replica's engine (``lock`` is the shard's, shared by in-process
    replicas of one index; a worker process owns its own) and nothing else:
    shards do not cache — the router above them does.  With ``wire=True`` a
    :class:`~repro.serving.transport.TransportService` sits on top, so
    every call crosses the :mod:`repro.net.columnar` encoding both ways —
    exactly the bytes a worker process exchanges over its socket.
    """
    stack: "DataService" = SerializedService(backend, lock=lock)
    return TransportService(stack) if wire else stack


def _build_worker_stack(spec: ShardSpec) -> tuple[LocalTransport, "Database"]:
    """The worker's end of the wire: ``LocalTransport`` over the replica stack."""
    from ..server.backend import KyrixBackend
    from ..telemetry import configure as configure_telemetry

    config = KyrixConfig.from_dict(spec.config)
    # The worker process has its own telemetry singletons; configuring
    # them from the spec makes spans recorded here flow back across the
    # socket (LocalTransport ships them inside the response message).
    configure_telemetry(config.telemetry)
    compiled = CompiledApplication.from_dict(spec.plan)
    database = _restore_database(spec.tables, config)
    backend = KyrixBackend(database, compiled, config)
    return LocalTransport(replica_stack(backend)), database


def worker_main(payload: bytes, port: int, ready_conn: Any) -> None:
    """Entry point of one shard worker process.

    ``payload`` is a pickled :class:`ShardSpec`; ``port`` the TCP port to
    bind (0 for an ephemeral port); ``ready_conn`` a pipe the worker reports
    ``{"port", "pid"}`` on once it is accepting connections (or
    ``{"error": ...}`` if it failed to come up — including a rebuilt
    database whose checksum differs from the spec's).
    """
    stop = threading.Event()

    def _terminate(_signum: int, _frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    try:
        spec = ShardSpec.from_payload(payload)
        transport, database = _build_worker_stack(spec)
        # Hash of the *rebuilt* database, not of the received spec: the
        # served copy is read-only, so this one check at spawn covers the
        # worker's whole lifetime.
        rebuilt, expected = database_checksum(database), spec.checksum()
        if rebuilt != expected:
            raise WorkerError(
                f"rebuilt index checksum mismatch: {rebuilt} != spec {expected}"
            )
        listener = socket.create_server(("127.0.0.1", port))
    except Exception as error:  # noqa: BLE001 - reported to the parent
        try:
            ready_conn.send({"error": f"{type(error).__name__}: {error}"})
        finally:
            ready_conn.close()
        return

    listener.settimeout(0.1)
    ready_conn.send({"port": listener.getsockname()[1], "pid": os.getpid()})
    ready_conn.close()

    active: list[threading.Thread] = []

    def _serve(conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in serve_connection(conn, transport.roundtrip):
                if stop.is_set():
                    # Drain semantics: the reply that was just written
                    # completes the in-flight request; stop reading more.
                    return

    try:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(target=_serve, args=(conn,), daemon=True)
            thread.start()
            active.append(thread)
            active = [t for t in active if t.is_alive()]
    finally:
        listener.close()
        # Drain: give in-flight request threads a moment to write replies.
        for thread in active:
            thread.join(timeout=1.0)
        transport.close()


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------

#: Fixed-port pools reserve this many ports per rebalance generation, so a
#: new pool can bind while the previous generation still serves its block.
GENERATION_PORT_STRIDE = 128


@dataclass
class WorkerHandle:
    """One live worker process as seen from the parent."""

    shard_id: int
    replica_index: int
    process: Any
    port: int
    pid: int

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def transport(self, **kwargs: Any) -> SocketTransport:
        return SocketTransport("127.0.0.1", self.port, **kwargs)


class WorkerPool:
    """Forks, tracks and terminates the shard worker processes of a cluster.

    ``specs`` holds one entry per worker; passing the *same* spec object
    several times runs that many replicas of the shard (the payload is
    pickled once per distinct spec and replica indexes are assigned in
    list order per shard).  ``port_base`` of 0 (the default) lets every
    worker bind an ephemeral port and report it back; a positive base
    assigns ``base + index`` per worker (useful when firewalls need
    predictable ports).  Workers that do not report ready within
    ``spawn_timeout_s`` — or report an error — fail the whole
    :meth:`start`, which tears down anything already running.

    ``generation`` supports the online-rebalance handoff: while a new
    shard set spawns, the previous generation's pool is still serving, so
    the new one must not collide with it.  The generation is baked into
    the worker process names (``kyrix-worker-g1-s0r0``, so both
    generations stay tellable apart in ``ps`` during the handoff) and,
    with a fixed ``port_base``, offsets the port range by
    ``generation * GENERATION_PORT_STRIDE`` — the old pool keeps its ports
    until it drains and the new one binds its own block (the stride, not
    the pool size, keeps a shrinking rebalance from landing inside the
    still-bound old range).
    """

    def __init__(
        self,
        specs: list[ShardSpec],
        *,
        port_base: int = 0,
        spawn_timeout_s: float = 10.0,
        generation: int = 0,
    ) -> None:
        if not specs:
            raise WorkerError("a worker pool needs at least one shard spec")
        if generation < 0:
            raise WorkerError(f"generation must be >= 0, got {generation}")
        self.specs = list(specs)
        self.port_base = port_base
        self.spawn_timeout_s = spawn_timeout_s
        self.generation = generation
        self._port_offset = generation * GENERATION_PORT_STRIDE
        # fork is dramatically cheaper than spawn and the specs are fully
        # picklable either way; fall back where fork is absent.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.handles: list[WorkerHandle] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> list[WorkerHandle]:
        """Fork every worker and wait for all of them to report ready.

        All forks go out before the first wait, so the workers rebuild
        their indexes concurrently.  A worker that does not report within
        ``spawn_timeout_s`` — or reports an error, such as a rebuilt index
        whose checksum differs from its spec's — fails the whole call with
        :class:`~repro.errors.WorkerSpawnError` after every process forked
        here has been terminated and joined.
        """
        if self.handles:
            raise WorkerError("worker pool already started")
        # Replicas of one shard rebuild from identical bytes: pickle each
        # distinct spec object once, not once per replica.
        payloads: dict[int, bytes] = {}
        replica_counts: dict[int, int] = {}
        pending: list[tuple[ShardSpec, int, Any, Any]] = []
        handles: list[WorkerHandle] = []
        try:
            for index, spec in enumerate(self.specs):
                replica_index = replica_counts.get(spec.shard_id, 0)
                replica_counts[spec.shard_id] = replica_index + 1
                port = (
                    self.port_base + self._port_offset + index if self.port_base else 0
                )
                payload = payloads.get(id(spec))
                if payload is None:
                    payload = payloads[id(spec)] = spec.to_payload()
                parent_conn, child_conn = self._context.Pipe(duplex=False)
                process = self._context.Process(
                    target=worker_main,
                    args=(payload, port, child_conn),
                    name=f"kyrix-worker-g{self.generation}"
                    f"-s{spec.shard_id}r{replica_index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                pending.append((spec, replica_index, process, parent_conn))
            for spec, replica_index, process, parent_conn in pending:
                worker = f"worker shard{spec.shard_id}/replica{replica_index}"
                if not parent_conn.poll(self.spawn_timeout_s):
                    raise WorkerSpawnError(
                        f"{worker} did not report ready within "
                        f"{self.spawn_timeout_s}s"
                    )
                report = parent_conn.recv()
                if "error" in report:
                    raise WorkerSpawnError(
                        f"{worker} failed to start: {report['error']}"
                    )
                handles.append(
                    WorkerHandle(
                        shard_id=spec.shard_id,
                        replica_index=replica_index,
                        process=process,
                        port=report["port"],
                        pid=report["pid"],
                    )
                )
        except BaseException:
            for _, _, process, _ in pending:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=2.0)
            raise
        finally:
            for _, _, _, parent_conn in pending:
                parent_conn.close()
        self.handles = handles
        # The specs (full table dumps) were only needed to seed the forks;
        # dropping them keeps the parent from holding every shard's rows a
        # second time for the pool's whole serving lifetime.
        self.specs = []
        return list(self.handles)

    def handle_for(self, shard_id: int, replica_index: int = 0) -> WorkerHandle:
        for handle in self.handles:
            if handle.shard_id == shard_id and handle.replica_index == replica_index:
                return handle
        raise WorkerError(
            f"no worker for shard{shard_id}/replica{replica_index} in this pool"
        )

    def kill(self, shard_id: int, replica_index: int = 0) -> WorkerHandle:
        """SIGKILL one worker (the chaos seam used by ``kill_worker``)."""
        handle = self.handle_for(shard_id, replica_index)
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)
        return handle

    def close(self) -> None:
        """SIGTERM every worker (drain) and join them all."""
        if self._closed:
            return
        self._closed = True
        for handle in self.handles:
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self.handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)

    # -- introspection -------------------------------------------------------

    def describe(self) -> list[dict[str, Any]]:
        return [
            {
                "shard_id": handle.shard_id,
                "replica_index": handle.replica_index,
                "generation": self.generation,
                "pid": handle.pid,
                "port": handle.port,
                "alive": handle.alive,
            }
            for handle in self.handles
        ]

    def __repr__(self) -> str:
        return f"WorkerPool(workers={len(self.handles) or len(self.specs)})"
