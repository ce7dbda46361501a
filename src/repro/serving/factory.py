"""One factory for the whole serving stack: :func:`build_service`.

Call sites used to assemble their serving endpoints by hand — construct a
:class:`~repro.server.backend.KyrixBackend`, maybe shard it with
:func:`~repro.cluster.builder.build_cluster`, then duck-type the result into
frontends.  :func:`build_service` replaces those per-call-site builders:
give it a configuration plus either a precomputed backend or the raw
``database``/``compiled`` pair, and it returns one composed
:class:`~repro.serving.base.DataService` driven entirely by
``config.cluster`` and the ``**cluster`` keyword overrides of its fields
(no field is named here: adding or deleting one touches ``config.py`` and
``docs/operations.md`` only).  Either way the stack holds exactly
one server-side response cache, sized by ``config.cache.backend_entries``:
a :class:`~repro.serving.middleware.CachingService` over the backend, or
the router's own over its scatter-gather (the shards below it are bare
engines).

Call sites never construct ``KyrixBackend`` / ``ClusterRouter`` as frontend
endpoints themselves — repolint's ``factory-only`` rule enforces that at
check time; the building blocks stay public.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import KyrixError

if TYPE_CHECKING:
    from ..compiler.plan import CompiledApplication
    from ..config import KyrixConfig
    from ..server.backend import KyrixBackend
    from ..storage.database import Database
    from .base import DataService

def build_service(
    config: "KyrixConfig | None" = None,
    *,
    backend: "KyrixBackend | DataService | None" = None,
    database: "Database | None" = None,
    compiled: "CompiledApplication | None" = None,
    precompute: bool | None = None,
    tile_sizes: tuple[int, ...] = (),
    autopilot: bool | None = None,
    telemetry: bool | None = None,
    **cluster: Any,
) -> "DataService":
    """Build the configured serving stack and return its outermost service.

    For a sharded stack the overrides are folded into one effective
    configuration before anything is built; the returned router's
    ``config`` (and every worker process's) is that configuration, so
    ``service.config.cluster`` always describes what is being served —
    after an online rebalance too.  Every sharded stack carries a
    :class:`~repro.cluster.rebalancer.LoadRebalancer` (reachable as
    ``unwrap(service, ClusterRouter).cluster.rebalancer``) ready to
    migrate the shard set online from observed load skew.

    Parameters
    ----------
    config:
        The application configuration; defaults to the backend's.  The
        ``config.cluster`` section decides whether the stack is a single
        cached backend or a sharded scatter-gather cluster.
    backend:
        An existing (typically precomputed) backend to serve from — or a
        single-backend stack this factory returned earlier, which is
        unwrapped to its backend (build unsharded first, shard the same
        backend later).  When omitted, one is built from ``database`` +
        ``compiled`` and precomputed unless ``precompute=False``.
    precompute:
        Force precomputation on or off.  Default: precompute only when the
        factory constructed the backend itself.
    tile_sizes:
        Tile sizes to pre-build tuple–tile mapping tables for.
    autopilot:
        Per-build override of ``config.cluster.autopilot.enabled``: when
        true the built cluster attaches **and starts** a
        :class:`~repro.cluster.autopilot.ClusterAutopilot` background
        control loop (reachable as
        ``unwrap(service, ClusterRouter).cluster.autopilot``) that
        re-splits skewed shards on its own; closing the returned stack stops it.  Only
        meaningful for sharded stacks.
    telemetry:
        Per-build override of ``config.telemetry.enabled``: when true the
        process-wide :mod:`repro.telemetry` tracer is (re)configured from
        ``config.telemetry`` and every layer of the built stack opens
        spans.  For sharded stacks the flag is folded into the effective
        configuration, so process-mode workers trace too.
    **cluster:
        Per-build overrides of :class:`~repro.config.ClusterConfig` fields,
        by the field's own name (the table in ``docs/operations.md``).
        Passing any turns sharding on even when ``config.cluster.enabled``
        is false; an unknown name is a ``TypeError`` before any shard is
        built.
    """
    from ..server.backend import KyrixBackend
    from .base import unwrap

    if backend is None:
        if database is None or compiled is None:
            raise KyrixError(
                "build_service needs either backend=... or database= and compiled=..."
            )
        backend = KyrixBackend(database, compiled, config)
        if precompute is None:
            precompute = True
    else:
        # A stack this factory returned earlier serves from its terminal.
        backend = unwrap(backend)
    if precompute:
        backend.precompute(tile_sizes=tile_sizes)
    config = config or backend.config

    if cluster or config.cluster.enabled:
        from ..cluster.builder import build_cluster

        service: "DataService" = build_cluster(
            backend,
            autopilot=autopilot,
            telemetry=telemetry,
            tile_sizes=tile_sizes,
            **cluster,
        ).router
    else:
        if telemetry is not None or config.telemetry.enabled:
            from ..telemetry import configure as configure_telemetry

            overrides = {} if telemetry is None else {"enabled": telemetry}
            configure_telemetry(config.telemetry, **overrides)
        from .middleware import CachingService

        service = CachingService(
            backend,
            entries=config.cache.backend_entries if config.cache.enabled else 0,
        )
    return service
