"""Wire-level transport for the serving surface.

The router used to call shard backends in-process with live Python objects;
nothing guaranteed a shard conversation could cross a wire losslessly.
This module puts the wire on the shard boundary for real:

* :class:`LocalTransport` — the server side of the wire: it accepts one
  encoded :mod:`repro.net.columnar` message, decodes it, dispatches to a
  server-side :class:`~repro.serving.base.DataService`, and returns the
  encoded reply.  It is the in-process stand-in for a worker's socket
  endpoint — the bytes that cross it are exactly the bytes a remote
  deployment would send.
* :class:`RemoteBackendStub` — the client side: a :class:`DataService`
  whose every call is encoded, pushed through a transport, and decoded
  back.  Point it at a :class:`LocalTransport` for wire-faithful in-process
  shards, or at a :class:`~repro.net.socket_transport.SocketTransport` for
  worker processes; the router cannot tell the difference.
* :class:`TransportService` — middleware gluing the two together around an
  inner service, so ``TransportService(shard)`` makes every shard call
  round-trip ``encode -> decode -> handle -> encode -> decode``.

There is one wire format and one operation on it: every payload is a
:mod:`repro.net.columnar` message selected by its kind byte — ``handle``
crosses as a request/response pair, and a server-side failure as an error
message the stub re-raises.  Canvas metadata never crosses: it is a
function of the compiled plan both sides hold.  Decoded responses equal
their in-process originals — that is the law this seam exists to enforce.

Every stub counts its real payload traffic (:class:`WireStats`), which is
what the suite reports as ``wire_bytes_per_step``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from ..errors import KyrixError
from ..net import columnar
from ..net.protocol import DataRequest, DataResponse
from ..net.socket_transport import FRAME_HEADER
from ..telemetry import get_tracer
from .base import DataService, ServiceMiddleware

if TYPE_CHECKING:
    from ..compiler.plan import CompiledApplication
    from ..config import KyrixConfig


@runtime_checkable
class ShardTransport(Protocol):
    """One request/reply exchange of encoded :mod:`repro.net.columnar` messages."""

    def roundtrip(self, payload: bytes) -> bytes:
        """Send one encoded message, return the encoded reply."""
        ...

    def close(self) -> None: ...


class TransportError(KyrixError):
    """A server-side error re-raised on the client side of a transport."""


@dataclass(frozen=True)
class WireStats:
    """Measured shard-boundary traffic of one (or a sum of) transport stubs.

    Byte counts are frame payloads plus the 4-byte length header — what a
    socket actually carries per round-trip, whether the transport under
    the stub is a real socket or its in-process stand-in.
    """

    calls: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received

    def __add__(self, other: "WireStats") -> "WireStats":
        return WireStats(
            calls=self.calls + other.calls,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
        )


class LocalTransport:
    """The server end of the wire, answering request messages from a service.

    Every call crosses fully encoded both ways and never leaks live
    objects, which is what makes the pair wire-faithful.  A failure while
    serving — including an undecodable message or one that is not a
    request — is answered with an error message rather than raised, so
    faults cross the wire.
    """

    def __init__(self, service: DataService) -> None:
        self.service = service

    def roundtrip(self, payload: bytes) -> bytes:
        try:
            # A trace context riding the request is lifted off before the
            # request is rebuilt, so server-side caches and responses stay
            # identical whether or not the caller traces.  Any message but a
            # request is a ProtocolError here, answered like every failure.
            request, context = columnar.decode_request(payload)
            with get_tracer().remote_trace(context) as collected:
                response = self.service.handle(request)
            if collected is not None and collected.spans:
                return columnar.encode_response(response, trace=collected.spans)
            return columnar.encode_response(response)
        except Exception as error:  # noqa: BLE001 - faults must cross the wire
            return columnar.encode_error(error)

    def close(self) -> None:
        self.service.close()


class RemoteBackendStub:
    """A :class:`DataService` whose calls travel over a :class:`ShardTransport`.

    ``compiled`` and ``config`` are client-side metadata handed to the stub
    at construction (a remote deployment ships the compiled plan to every
    node; re-sending it per request would be absurd).  Requests and
    responses cross the transport encoded.

    The stub counts its own payload traffic — see :attr:`wire_stats`.
    """

    def __init__(
        self,
        transport: ShardTransport,
        compiled: "CompiledApplication",
        config: "KyrixConfig",
    ) -> None:
        self.transport = transport
        self._compiled = compiled
        self._config = config
        self._wire_lock = threading.Lock()
        self._wire_calls = 0
        self._wire_sent = 0
        self._wire_received = 0

    @property
    def compiled(self) -> "CompiledApplication":
        return self._compiled

    @property
    def config(self) -> "KyrixConfig":
        return self._config

    @property
    def stats(self) -> Any:
        """A stub keeps no counters of its own beyond :attr:`wire_stats`."""
        return None

    @property
    def wire_stats(self) -> WireStats:
        """Payload traffic this stub has pushed through its transport."""
        with self._wire_lock:
            return WireStats(
                calls=self._wire_calls,
                bytes_sent=self._wire_sent,
                bytes_received=self._wire_received,
            )

    # -- the wire ---------------------------------------------------------------------

    def _count_wire(self, sent: int, received: int) -> None:
        with self._wire_lock:
            self._wire_calls += 1
            self._wire_sent += sent + FRAME_HEADER.size
            self._wire_received += received + FRAME_HEADER.size

    def _exchange(self, body: bytes) -> bytes:
        """One round-trip; a reply that is an error message re-raises here."""
        reply = self.transport.roundtrip(body)
        self._count_wire(len(body), len(reply))
        if columnar.message_kind(reply) == columnar.MSG_ERROR:
            name, message = columnar.decode_error(reply)
            raise TransportError(f"{name}: {message}")
        return reply

    # -- DataService ------------------------------------------------------------------

    def handle(self, request: DataRequest) -> DataResponse:
        tracer = get_tracer()
        with tracer.span("rpc", op="handle") as span:
            # The trace context is stamped onto the wire form only — the
            # caller's request object (and any cache keyed on it) never
            # sees it.
            context = tracer.current_context()
            response, remote_spans = columnar.decode_response(
                self._exchange(columnar.encode_request(request, trace=context))
            )
            if remote_spans:
                # Spans recorded on the far side come home inside the
                # reply; draining them here keeps the decoded response
                # byte-identical to an untraced one.
                tracer.ingest(remote_spans)
                span.set_attribute("remote_spans", len(remote_spans))
            return response

    def close(self) -> None:
        self.transport.close()


class TransportService(ServiceMiddleware):
    """Middleware making every call to ``inner`` wire-faithful.

    Composes a :class:`LocalTransport` (server side) and a
    :class:`RemoteBackendStub` (client side) around the inner service; a
    call entering this layer is encoded, decoded, served, re-encoded and
    re-decoded — byte-for-byte what a networked shard would do.
    """

    def __init__(self, inner: DataService) -> None:
        super().__init__(inner)
        self.transport = LocalTransport(inner)
        self.stub = RemoteBackendStub(self.transport, inner.compiled, inner.config)

    def handle(self, request: DataRequest) -> DataResponse:
        return self.stub.handle(request)


def collect_wire_stats(service: DataService) -> WireStats:
    """Sum the measured shard-boundary traffic of every stub in a stack.

    Walks the stack like :func:`~repro.serving.base.stack_layers` and adds
    up the :attr:`RemoteBackendStub.wire_stats` of every transport seam —
    whether the stub sits inside a :class:`TransportService` (threads/wire
    topologies) or terminates a branch directly (worker processes).
    """
    from .base import stack_layers

    total = WireStats()
    for layer in stack_layers(service):
        if isinstance(layer, TransportService):
            total = total + layer.stub.wire_stats
        elif isinstance(layer, RemoteBackendStub):
            total = total + layer.wire_stats
    return total
