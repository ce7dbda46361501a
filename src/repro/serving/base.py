"""The ``DataService`` protocol: the one serving surface of the system.

The paper separates the frontend from a backend serving surface behind an
HTTP+JSON protocol.  Everything that can answer
:class:`~repro.net.protocol.DataRequest` objects — a single
:class:`~repro.server.backend.KyrixBackend`, a sharded
:class:`~repro.cluster.router.ClusterRouter`, a wire-level
:class:`~repro.serving.transport.RemoteBackendStub`, or any middleware
stacked on top — implements this protocol, so frontends, sessions and the
benchmark harness never special-case the backend kind.

:class:`ServiceMiddleware` is the composition primitive: a ``DataService``
wrapping another ``DataService``, forwarding every member by default so a
concrete middleware only overrides the calls it intercepts.  Stacks are
plain nesting, e.g.::

    CachingService(CoalescingService(TransportService(backend)))

and :func:`unwrap` walks ``.inner`` links — descending into every branch of
layers that hold multiple children via ``children`` (replica sets) — to find
a specific layer (or the terminal service) inside a composed stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, TypeVar, runtime_checkable

if TYPE_CHECKING:
    from ..compiler.plan import CompiledApplication
    from ..config import KyrixConfig
    from ..net.protocol import DataRequest, DataResponse


@runtime_checkable
class DataService(Protocol):
    """The serving surface every backend, router, stub and middleware exposes.

    :meth:`handle` is the one operation.  ``compiled`` and ``config`` are
    the metadata frontends bootstrap from — canvas metadata is a function of
    the plan (``compiled.canvas_info``), so no layer serves it — and
    ``stats`` is an implementation-specific counters object (every layer of
    a stack keeps its own).  ``isinstance(obj, DataService)`` performs a
    structural check, so existing duck-typed callers keep working.
    """

    @property
    def compiled(self) -> "CompiledApplication": ...

    @property
    def config(self) -> "KyrixConfig": ...

    @property
    def stats(self) -> Any: ...

    def handle(self, request: "DataRequest") -> "DataResponse":
        """Answer one data request."""
        ...

    def close(self) -> None:
        """Release resources (worker pools, transports) held by the service."""
        ...


class ServiceMiddleware:
    """A ``DataService`` that wraps another and forwards everything.

    Subclasses override only the members they intercept (usually
    :meth:`handle` and sometimes ``stats``); metadata and lifecycle calls
    pass straight through to ``inner``.
    """

    def __init__(self, inner: DataService) -> None:
        self.inner = inner

    @property
    def compiled(self) -> "CompiledApplication":
        return self.inner.compiled

    @property
    def config(self) -> "KyrixConfig":
        return self.inner.config

    @property
    def stats(self) -> Any:
        return self.inner.stats

    def handle(self, request: "DataRequest") -> "DataResponse":
        return self.inner.handle(request)

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


ServiceT = TypeVar("ServiceT")


def _child_layers(service: Any) -> list[Any]:
    """The services one layer below ``service``.

    Most middleware wraps a single ``.inner``; layers that hold *multiple*
    children (a :class:`~repro.serving.replica.ReplicaService` fronting N
    replica stacks) expose them as a ``children`` sequence instead, and
    traversal descends into every branch.
    """
    inner = getattr(service, "inner", None)
    if inner is not None:
        return [inner]
    children = getattr(service, "children", None)
    if children:
        return list(children)
    return []


def unwrap(service: DataService, kind: type[ServiceT] | None = None) -> ServiceT | None:
    """Find the first layer of type ``kind`` in a middleware stack.

    Walks the stack outside-in, depth-first in branch order:
    single-``inner`` middleware is followed as before, and layers holding
    multiple children (e.g. ``unwrap(service, ReplicaService)`` returning
    the replica layer itself, or digging *through* it into a replica's
    stack) are traversed into every branch, first branch first.  With
    ``kind=None`` the terminal service of the first branch is returned,
    which is never ``None``; with a ``kind`` absent from the stack the
    result is ``None``.
    """
    stack: list[Any] = [service]
    while stack:
        current = stack.pop()
        if kind is not None and isinstance(current, kind):
            return current
        layers_below = _child_layers(current)
        if not layers_below and kind is None:
            return current
        stack.extend(reversed(layers_below))
    return None


def stack_layers(service: DataService) -> list[DataService]:
    """Every layer of the stack outside-in, depth-first in branch order.

    Ends at the terminal service for a plain single-``inner`` chain; for
    stacks holding a multi-child layer (a replica set) every branch's
    layers are included, first branch first.
    """
    layers: list[DataService] = []
    stack: list[Any] = [service]
    while stack:
        current = stack.pop()
        layers.append(current)
        stack.extend(reversed(_child_layers(current)))
    return layers
