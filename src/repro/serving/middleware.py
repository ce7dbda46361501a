"""Composable middleware over the :class:`~repro.serving.base.DataService` protocol.

These classes are the single home of the cross-cutting serving behaviours:

* :class:`CachingService` — the server-side LRU response cache.  A stack
  holds exactly one: :func:`~repro.serving.factory.build_service` puts it
  over the backend of a single-backend server, and
  :class:`~repro.cluster.router.ClusterRouter` puts it over its
  scatter-gather; nothing below a router caches,
* :class:`CoalescingService` — single-flight deduplication of identical
  in-flight requests from concurrent sessions,
* :class:`SerializedService` — a lock serialising access to a service whose
  implementation is not thread-safe (one embedded shard engine).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..server.cache import LRUCache
from ..telemetry import get_tracer
from .base import DataService, ServiceMiddleware

if TYPE_CHECKING:
    from ..cluster.coalescer import RequestCoalescer
    from ..config import KyrixConfig
    from ..net.protocol import DataRequest, DataResponse


class CachingService(ServiceMiddleware):
    """LRU response caching in front of any :class:`DataService`.

    A cache hit is answered without touching ``inner``: the cached objects
    are re-wrapped in a fresh :class:`~repro.net.protocol.DataResponse`
    addressed to the incoming request with ``from_cache=True`` and zero
    query time.  Responses that were themselves cache hits or coalesced
    hand-me-downs are not re-inserted.  ``config``, when given, is the
    configuration the stack serves (the one its cache was sized from);
    otherwise ``inner``'s is reported.
    """

    def __init__(
        self, inner: DataService, *, entries: int, config: "KyrixConfig | None" = None
    ) -> None:
        super().__init__(inner)
        self.cache: "LRUCache[DataResponse]" = LRUCache(entries)
        self._config = config

    @property
    def config(self) -> "KyrixConfig":
        return self._config or self.inner.config

    @property
    def stats(self) -> Any:
        return self.cache.stats

    def handle(self, request: "DataRequest") -> "DataResponse":
        from ..net.protocol import DataResponse

        with get_tracer().span("cache") as span:
            key = request.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                span.set_attribute("hit", True)
                return DataResponse(
                    request=request,
                    objects=cached.objects,
                    query_ms=0.0,
                    from_cache=True,
                    queries_issued=0,
                )
            span.set_attribute("hit", False)
            response = self.inner.handle(request)
            if not response.from_cache and not response.coalesced:
                self.cache.put(key, response)
            return response


class CoalescingService(ServiceMiddleware):
    """Single-flight request coalescing in front of any :class:`DataService`.

    Identical concurrent requests (same cache key) share one ``inner``
    call: the first becomes the leader, the rest block and receive a copy
    of the leader's response marked ``coalesced=True`` with
    ``queries_issued=0`` (they issued no queries of their own).
    """

    def __init__(
        self, inner: DataService, *, coalescer: "RequestCoalescer | None" = None
    ) -> None:
        super().__init__(inner)
        if coalescer is None:
            from ..cluster.coalescer import RequestCoalescer

            coalescer = RequestCoalescer()
        self.coalescer = coalescer

    @property
    def stats(self) -> Any:
        return self.coalescer.stats

    def handle(self, request: "DataRequest") -> "DataResponse":
        from ..net.protocol import DataResponse

        with get_tracer().span("coalesce") as span:
            response, follower = self.coalescer.coalesce(
                request.cache_key(), lambda: self.inner.handle(request)
            )
            span.set_attribute("role", "follower" if follower else "leader")
            if not follower:
                return response
            return DataResponse(
                request=request,
                objects=response.objects,
                query_ms=response.query_ms,
                from_cache=False,
                queries_issued=0,
                coalesced=True,
            )


class SerializedService(ServiceMiddleware):
    """Serialises every call into a service that is not thread-safe.

    The stand-in for a single-threaded worker process: one embedded shard
    engine (``KyrixBackend`` over its own database) can be shared by the
    parallel scatter-gather executor and concurrent sessions as long as a
    lock covers each call end-to-end.
    """

    def __init__(self, inner: DataService, *, lock: threading.Lock | None = None) -> None:
        super().__init__(inner)
        self.lock = lock or threading.Lock()

    def handle(self, request: "DataRequest") -> "DataResponse":
        with self.lock:
            return self.inner.handle(request)
