"""A real socket transport for shard conversations.

:mod:`repro.serving.transport` put the :mod:`repro.net.columnar` wire
format on the shard boundary; this module puts a *network* under it.
Messages cross a localhost (or any) TCP connection as length-prefixed
frames:

* **Frame codec** — every payload (one encoded message, opaque bytes here)
  is preceded by a 4-byte big-endian length.  :func:`encode_frame` /
  :class:`FrameDecoder` are pure functions of bytes (no sockets), so the
  property suite can hammer them with arbitrary payloads and arbitrary
  chunk boundaries.  Oversized frames raise
  :class:`~repro.errors.FrameTooLargeError`, streams that end mid-frame
  raise :class:`~repro.errors.TruncatedFrameError`, and a peer that sends
  *extra* frames for one round-trip raises
  :class:`~repro.errors.ProtocolViolationError` — typed, so callers can
  distinguish a chatty peer from a dead one.
* :class:`SocketTransport` — the client side of the wire: a
  :class:`~repro.serving.transport.ShardTransport` that connects lazily,
  serialises request/reply pairs on one connection, and reconnects after a
  failure.  Socket-level failures (connection refused, reset, torn reply)
  surface as :class:`~repro.errors.WorkerConnectionError` so the replica
  layer can treat them as a dead worker rather than a query error.
* :func:`serve_connection` — the server side's per-connection loop, used by
  :mod:`repro.serving.worker`: read a frame, hand the payload to a
  handler, write the reply frame, until the peer disconnects.

The framing stays minimal (no multiplexing, no handshake): one frame out,
one frame back, exactly the conversation
:class:`~repro.serving.transport.RemoteBackendStub` already has.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Iterator

from ..errors import (
    FrameTooLargeError,
    ProtocolViolationError,
    TruncatedFrameError,
    WorkerConnectionError,
)

#: 4-byte big-endian unsigned length prefix.
FRAME_HEADER = struct.Struct(">I")

#: Default ceiling on a single frame's payload (64 MiB) — far above any
#: shard response at supported scales, low enough to reject a garbage
#: header (e.g. random bytes decoded as a multi-gigabyte length) up front.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Frame codec (pure bytes; no sockets)
# ---------------------------------------------------------------------------


def encode_frame(payload: bytes, *, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Encode one payload as ``length || bytes``."""
    if len(payload) > max_bytes:
        raise FrameTooLargeError(
            f"frame payload is {len(payload)} bytes (> {max_bytes} byte limit)"
        )
    return FRAME_HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder for a stream of length-prefixed frames.

    Feed it byte chunks of *any* size (single bytes, frames split mid-header,
    several frames glued together) and it yields complete payloads in
    order.  Call :meth:`finish` when the stream ends: a stream that stops
    inside a header or payload raises :class:`TruncatedFrameError`.
    """

    def __init__(self, *, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_bytes = max_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decoded into a complete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[bytes]:
        """Absorb one chunk and return every frame it completed."""
        self._buffer.extend(chunk)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < FRAME_HEADER.size:
                break
            (length,) = FRAME_HEADER.unpack_from(self._buffer)
            if length > self.max_bytes:
                raise FrameTooLargeError(
                    f"frame header declares {length} bytes (> {self.max_bytes} byte limit)"
                )
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[FRAME_HEADER.size:end]))
            del self._buffer[:end]
        return frames

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended mid-frame with {len(self._buffer)} undecoded byte(s)"
            )


# ---------------------------------------------------------------------------
# Socket helpers (blocking I/O over the codec)
# ---------------------------------------------------------------------------


def write_frame(
    sock: socket.socket, payload: bytes, *, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> None:
    """Write one frame to a connected socket."""
    sock.sendall(encode_frame(payload, max_bytes=max_bytes))


def read_frame(
    sock: socket.socket, *, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes | None:
    """Read one frame from a connected socket.

    Returns ``None`` on a clean end-of-stream (the peer closed between
    frames); raises :class:`TruncatedFrameError` if the stream dies inside
    a frame and :class:`ProtocolViolationError` if the peer pipelines
    extra frames into the single round-trip.
    """
    decoder = FrameDecoder(max_bytes=max_bytes)
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            if decoder.pending_bytes == 0:
                return None
            decoder.finish()  # raises TruncatedFrameError
        frames = decoder.feed(chunk)
        if frames:
            # One frame per call: anything beyond the first is a live peer
            # breaking the one-out/one-back conversation — a protocol
            # violation, not a truncated stream.
            if len(frames) > 1 or decoder.pending_bytes:
                raise ProtocolViolationError(
                    "peer sent more than one frame for a single round-trip"
                )
            return frames[0]


def serve_connection(
    sock: socket.socket,
    handler: Callable[[bytes], bytes],
    *,
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Iterator[None]:
    """Serve one connection: frame in, ``handler`` reply, frame out.

    A generator so the caller (the worker's connection thread) can check a
    shutdown flag between requests; iteration ends when the peer closes.
    """
    while True:
        try:
            payload = read_frame(sock, max_bytes=max_bytes)
        except (TruncatedFrameError, FrameTooLargeError, OSError):
            # Peer vanished mid-frame, or sent an over-limit/forged header:
            # nothing sane to reply to — drop the connection quietly.
            return
        if payload is None:
            return
        try:
            write_frame(sock, handler(payload), max_bytes=max_bytes)
        except (OSError, FrameTooLargeError):
            # The peer hung up while we served (client timeout/teardown),
            # or the reply exceeds the frame limit: either way no reply
            # can be delivered — close the connection instead of letting
            # the exception escape the worker's connection thread.
            return
        yield


class SocketTransport:
    """The client end of the wire: one shard worker behind a TCP address.

    Implements the :class:`~repro.serving.transport.ShardTransport` seam
    (``roundtrip(bytes) -> bytes``), so a
    :class:`~repro.serving.transport.RemoteBackendStub` pointed here is
    indistinguishable from one pointed at an in-process
    :class:`~repro.serving.transport.LocalTransport`.

    The connection is created lazily on the first round-trip and request/
    reply pairs are serialised under a lock (the scatter executor may route
    concurrent sessions at the same worker).  Every socket-level failure —
    connection refused, reset, a reply cut off mid-frame — tears the
    connection down and raises :class:`~repro.errors.WorkerConnectionError`;
    the next round-trip reconnects from scratch, so a restarted worker is
    picked up without special handling.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout_s: float = 5.0,
        io_timeout_s: float | None = 30.0,
        max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        #: Per-recv/send budget.  A worker that is alive but wedged (stuck
        #: handler, SIGSTOP) never resets the connection, so without a read
        #: timeout the scatter thread would block forever and failover
        #: would never engage; the timeout surfaces as
        #: :class:`WorkerConnectionError` like any other dead endpoint.
        self.io_timeout_s = io_timeout_s
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._closed = False

    def _connect(self) -> socket.socket:  # repolint: disable=lock-discipline
        # Caller (roundtrip/close) holds self._lock.
        if self._sock is None:
            if self._closed:
                raise WorkerConnectionError(
                    f"transport to {self.host}:{self.port} is closed"
                )
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
            # Round-trips are request/reply over tiny frames; disable Nagle
            # so a frame is not held back waiting for a coalescing window.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.io_timeout_s)
            self._sock = sock
        return self._sock

    def _teardown(self) -> None:  # repolint: disable=lock-discipline
        # Caller (roundtrip/close) holds self._lock.
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def roundtrip(self, payload: bytes) -> bytes:
        with self._lock:
            try:
                sock = self._connect()
                write_frame(sock, payload, max_bytes=self.max_bytes)
                reply = read_frame(sock, max_bytes=self.max_bytes)
            except ProtocolViolationError as error:
                # A live peer pipelined extra frames: the conversation is
                # desynchronised beyond repair — drop the connection, but say
                # what actually happened instead of blaming a truncated
                # stream.
                self._teardown()
                raise WorkerConnectionError(
                    f"worker at {self.host}:{self.port} violated the framing "
                    f"protocol: {error}"
                ) from error
            except (OSError, TruncatedFrameError, FrameTooLargeError) as error:
                # Any failure — dead socket, torn reply, or an over-limit
                # frame whose tail is still buffered on the wire — leaves
                # the connection unusable or desynchronized: drop it so
                # the next round-trip reconnects from a clean stream.
                self._teardown()
                raise WorkerConnectionError(
                    f"worker at {self.host}:{self.port} unreachable: "
                    f"{type(error).__name__}: {error}"
                ) from error
            if reply is None:
                self._teardown()
                raise WorkerConnectionError(
                    f"worker at {self.host}:{self.port} closed the connection "
                    "before replying"
                )
            return reply

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._teardown()

    def __repr__(self) -> str:
        return f"SocketTransport({self.host}:{self.port})"
