"""Process-based shard workers: the scatter path without the GIL.

Every topology so far kept shard engines in the router's process behind a
:class:`~repro.serving.middleware.SerializedService` lock, so multi-shard
scatter-gathers parallelised I/O but never pure-Python query execution.
This module moves each shard replica into its **own worker process**:

* :func:`replica_stack` — the serving stack of one shard replica, the same
  in every topology: a lock over a bare engine
  (``SerializedService ∘ KyrixBackend``), behind the wire when asked.
* :func:`worker_main` — the worker process entry point: put a
  :class:`LocalTransport` over the replica stack of the shard backend the
  process inherited when it was forked, then answer
  :mod:`repro.net.columnar` messages over length-prefixed frames on a
  localhost TCP socket until told to stop.  ``SIGTERM`` drains: in-flight
  requests finish, the listener closes, the process exits 0.
* :class:`WorkerPool` — the parent-side manager: forks one process per
  ``(shard_id, backend)`` entry, waits for each worker's ready report
  (bound port) within ``spawn_timeout_s``, hands out
  :class:`~repro.net.socket_transport.SocketTransport` endpoints, and on
  ``close()`` terminates and joins every worker.

Nothing is serialised to start a worker: a forked child holds the
parent's built shard backend — its tables, heap pages and packed indexes —
as copy-on-write memory, so a worker serves the very index the parent
built.  That is why workers are always
forked (:meth:`~repro.config.ClusterConfig.validate` refuses
``worker_mode="processes"`` where ``fork`` is missing).  The child touches
only its own backend, which the forking thread built and no parent thread
has served, and the telemetry singletons, which it reconfigures.

The wire above the socket is byte-identical to the in-process transport
pair, which is what makes the cross-topology parity suite
(``tests/cluster/test_topology_parity.py``) possible: the router cannot
tell a :class:`~repro.serving.transport.LocalTransport` from a worker
process on the other end of a frame stream.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import WorkerError, WorkerSpawnError
from ..net.socket_transport import SocketTransport, serve_connection
from ..telemetry import configure as configure_telemetry
from .middleware import SerializedService
from .transport import LocalTransport, TransportService

if TYPE_CHECKING:
    from ..server.backend import KyrixBackend
    from .base import DataService

__all__ = [
    "WorkerHandle",
    "WorkerPool",
    "replica_stack",
    "worker_main",
]


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


def worker_main(backend: "KyrixBackend", ready_conn: Any) -> None:
    """Entry point of one shard worker process.

    ``backend`` is the shard's :class:`~repro.server.backend.KyrixBackend`,
    inherited by the fork; ``ready_conn`` a pipe the worker reports
    ``{"port", "pid"}`` on once it is accepting connections on an
    ephemeral localhost port (or ``{"error": ...}`` if it failed to come
    up — for instance a backend whose configuration does not validate).
    """
    stop = threading.Event()

    def _terminate(_signum: int, _frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    try:
        backend.config.validate()
        # The worker process has its own telemetry singletons; configuring
        # them from the backend's config makes spans recorded here flow
        # back across the socket (LocalTransport ships them inside the
        # response message).
        configure_telemetry(backend.config.telemetry)
        transport = LocalTransport(replica_stack(backend))
        listener = socket.create_server(("127.0.0.1", 0))
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

    ``backends`` holds one ``(shard_id, backend)`` entry per worker; listing
    the *same* backend several times runs that many replicas of the shard
    (replica indexes are assigned in list order per shard).  Every worker
    binds an ephemeral localhost port and reports it back; nothing outside
    this machine dials a worker, so no port is configured.  Workers that do
    not report ready within ``spawn_timeout_s`` — or report an error — fail
    the whole :meth:`start`, which tears down anything already running.

    ``generation`` names the rebalance epoch the pool serves: while a new
    shard set spawns, the previous generation's pool is still serving, and
    the generation baked into the worker process names
    (``kyrix-worker-g1-s0r0``) keeps both tellable apart in ``ps`` during
    the handoff.
    """

    def __init__(
        self,
        backends: list[tuple[int, "KyrixBackend"]],
        *,
        spawn_timeout_s: float = 10.0,
        generation: int = 0,
    ) -> None:
        if not backends:
            raise WorkerError("a worker pool needs at least one shard backend")
        if generation < 0:
            raise WorkerError(f"generation must be >= 0, got {generation}")
        self.backends = list(backends)
        self.spawn_timeout_s = spawn_timeout_s
        self.generation = generation
        # A fork-context Process hands the child its target's arguments as
        # inherited memory: the backend is never serialised or rebuilt.
        self._context = multiprocessing.get_context("fork")
        self.handles: list[WorkerHandle] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> list[WorkerHandle]:
        """Fork every worker and wait for all of them to report ready.

        A worker that does not report within ``spawn_timeout_s`` — or
        reports an error — fails the whole call with
        :class:`~repro.errors.WorkerSpawnError` after every process forked
        here has been terminated and joined.
        """
        if self.handles:
            raise WorkerError("worker pool already started")
        replica_counts: dict[int, int] = {}
        pending: list[tuple[int, int, Any, Any]] = []
        handles: list[WorkerHandle] = []
        try:
            for shard_id, backend in self.backends:
                replica_index = replica_counts.get(shard_id, 0)
                replica_counts[shard_id] = replica_index + 1
                parent_conn, child_conn = self._context.Pipe(duplex=False)
                process = self._context.Process(
                    target=worker_main,
                    args=(backend, child_conn),
                    name=f"kyrix-worker-g{self.generation}"
                    f"-s{shard_id}r{replica_index}",
                    daemon=True,
                )
                # start() drops the process's target and arguments, so
                # the handle keeps no reference to the backend.
                process.start()
                child_conn.close()
                pending.append((shard_id, replica_index, process, parent_conn))
            for shard_id, replica_index, process, parent_conn in pending:
                worker = f"worker shard{shard_id}/replica{replica_index}"
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
                        shard_id=shard_id,
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
        # The backends were only needed to seed the forks; dropping them
        # lets the parent free every shard's rows once the caller does.
        self.backends = []
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
        return f"WorkerPool(workers={len(self.handles) or len(self.backends)})"
