"""The unified serving API: one protocol, composable middleware, one factory.

This package is the explicit form of the seam the paper draws between the
frontend and the backend serving surface:

* :mod:`repro.serving.base` — the :class:`DataService` protocol (one
  operation, ``handle``, plus ``compiled`` / ``config`` / ``stats`` /
  ``close``; canvas metadata is ``compiled.canvas_info``) and the
  :class:`ServiceMiddleware` composition primitive,
* :mod:`repro.serving.middleware` — :class:`CachingService`,
  :class:`CoalescingService` and :class:`SerializedService`, the
  cross-cutting behaviours previously hard-wired into ``KyrixBackend``
  and ``ClusterRouter``,
* :mod:`repro.serving.transport` — :class:`LocalTransport` /
  :class:`RemoteBackendStub` / :class:`TransportService`, putting the
  :mod:`repro.net.columnar` binary wire format on the shard boundary,
* :mod:`repro.serving.replica` — :class:`ReplicaService`, fronting N
  interchangeable replicas of a shard with load balancing, circuit
  breaking and failover,
* :mod:`repro.serving.faults` — :class:`FaultInjectingService` /
  :class:`FaultInjectingTransport` driven by deterministic
  :class:`FaultSchedule` plans, the sanctioned way to exercise failure
  paths in tests and benchmarks,
* :mod:`repro.serving.factory` — :func:`build_service`, the single entry
  point call sites use instead of assembling stacks by hand.

Quickstart::

    from repro.serving import build_service
    service = build_service(config, database=database, compiled=compiled)
    frontend = KyrixFrontend(service, dbox_scheme())
"""

from .base import DataService, ServiceMiddleware, stack_layers, unwrap
from .factory import build_service
from .faults import (
    FaultInjectingService,
    FaultInjectingTransport,
    FaultRule,
    FaultSchedule,
    InjectedFaultError,
    fault_replica,
    kill_worker,
)
from .middleware import (
    CachingService,
    CoalescingService,
    SerializedService,
)
from .replica import ReplicaService, ReplicaSetStats
from .transport import (
    LocalTransport,
    RemoteBackendStub,
    ShardTransport,
    TransportError,
    TransportService,
    WireStats,
    collect_wire_stats,
)
from .worker import WorkerHandle, WorkerPool, replica_stack, worker_main

__all__ = [
    "CachingService",
    "CoalescingService",
    "DataService",
    "FaultInjectingService",
    "FaultInjectingTransport",
    "FaultRule",
    "FaultSchedule",
    "InjectedFaultError",
    "LocalTransport",
    "RemoteBackendStub",
    "ReplicaService",
    "ReplicaSetStats",
    "SerializedService",
    "ServiceMiddleware",
    "ShardTransport",
    "TransportError",
    "TransportService",
    "WireStats",
    "WorkerHandle",
    "WorkerPool",
    "build_service",
    "collect_wire_stats",
    "fault_replica",
    "kill_worker",
    "replica_stack",
    "stack_layers",
    "unwrap",
    "worker_main",
]
