"""Per-request distributed tracing over threads, wires and processes.

A *trace* is the full story of one request: a tree of timed *spans*, one
per serving layer (router, cache, coalescer, scatter, shard, replica
attempt, rpc, backend execute).  Traces cross three kinds of boundary:

* **thread pools** — the scatter/gather executor runs shard fan-out on
  worker threads; :meth:`Tracer.attach` re-binds such a thread to the
  caller's trace so its spans land in the same record,
* **the shard wire** — :meth:`Tracer.current_context` produces the
  ``TraceContext`` dict (``trace_id`` / ``span_id`` / ``sampled``) that the
  transport stub stamps onto the request message,
* **process boundaries** — the worker-side transport adopts an incoming
  context with :meth:`Tracer.remote_trace`, collects the spans produced
  while serving the request, and ships them back inside the reply where
  the stub re-ingests them.  Worker-side spans therefore carry the
  *parent* trace id even though they were timed in another process.

Completed traces land in a bounded ring buffer (:data:`TRACE_BUFFER` newest
traces) and, optionally, as one JSON line per trace in ``export_path`` for
offline analysis via ``python -m repro.telemetry.dump``.

When tracing is disabled every ``span()`` call returns the shared
:data:`NULL_SPAN` singleton — no allocation, no locking, no timestamps —
so the instrumentation is effectively free on the serving hot path.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

#: Newest completed traces retained for ``GET /trace/<trace_id>``.
TRACE_BUFFER = 256


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass


#: The singleton handed out whenever tracing is off.
NULL_SPAN = _NullSpan()


class Span:
    """One timed operation inside a trace (mutable while open).

    Used as a context manager: entering starts the clock, exiting stops it,
    records the span into its trace and feeds the duration histogram.  An
    exception escaping the block stamps an ``error`` attribute before
    propagating.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix_ms",
        "duration_ms",
        "attributes",
        "events",
        "_start_perf",
        "_tracer",
        "_record",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        tracer: "Tracer",
        record: "_TraceRecord",
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        # Wall-clock epoch timestamp for export alignment, not a duration
        # (durations come from the perf_counter pair below).
        self.start_unix_ms = time.time() * 1000.0  # repolint: disable=span-discipline
        self.duration_ms = 0.0
        self.attributes: dict[str, Any] = {}
        self.events: list[dict[str, Any]] = []
        self._start_perf = time.perf_counter()
        self._tracer = tracer
        self._record = record

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        offset = (time.perf_counter() - self._start_perf) * 1000.0
        self.events.append({"name": name, "offset_ms": round(offset, 3), **attributes})

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_ms": self.start_unix_ms,
            "duration_ms": self.duration_ms,
            "attributes": self.attributes,
            "events": self.events,
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ms = (time.perf_counter() - self._start_perf) * 1000.0
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._finish_span(self)
        return False


class _TraceRecord:
    """Shared per-trace accumulator; appended to from several threads."""

    __slots__ = ("trace_id", "remote", "parent_id", "spans", "lock")

    def __init__(
        self,
        trace_id: str,
        *,
        remote: bool = False,
        parent_id: str | None = None,
    ) -> None:
        self.trace_id = trace_id
        #: Remote records adopt a context from the wire; their spans are
        #: returned to the caller instead of entering the ring buffer.
        self.remote = remote
        #: Span id on the far side of the wire that spawned this record.
        self.parent_id = parent_id
        self.spans: list[dict[str, Any]] = []
        self.lock = threading.Lock()

    def add(self, span_dict: dict[str, Any]) -> None:
        with self.lock:
            self.spans.append(span_dict)

    def extend(self, span_dicts: list[dict[str, Any]]) -> None:
        with self.lock:
            self.spans.extend(span_dicts)

    def to_dict(self) -> dict[str, Any]:
        with self.lock:
            spans = list(self.spans)
        return {"trace_id": self.trace_id, "spans": spans}


class _State(threading.local):
    """Per-thread trace binding: active record + open-span stack."""

    def __init__(self) -> None:
        self.record: _TraceRecord | None = None
        self.stack: list[Span] = []
        #: Parent span id for spans opened with an empty stack — ``None``
        #: for a locally-started root, the caller's span id for attached
        #: pool threads and wire-adopted contexts.
        self.base_parent: str | None = None
        #: True only on the thread that *began* the trace; that thread
        #: finalises the record when its outermost span closes.
        self.owns: bool = False


class Tracer:
    """Thread-safe tracer with a ring buffer and JSONL export.

    When enabled it records every trace.
    """

    def __init__(self, registry=None) -> None:
        self.registry = registry
        self.enabled = False
        self.export_path: str | None = None
        self._state = _State()
        self._lock = threading.Lock()
        self._export_lock = threading.Lock()
        self._active: dict[str, _TraceRecord] = {}
        self._finished: deque[_TraceRecord] = deque(maxlen=TRACE_BUFFER)

    # -- configuration -----------------------------------------------------------

    def configure(
        self,
        *,
        enabled: bool = False,
        trace_buffer: int = TRACE_BUFFER,
        export_path: str | None = None,
    ) -> None:
        """Reconfigure and reset: active traces and the ring buffer are dropped."""
        with self._lock:
            self.enabled = bool(enabled)
            self.export_path = export_path
            self._active = {}
            self._finished = deque(maxlen=max(1, int(trace_buffer)))

    # -- span lifecycle ----------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span under the current trace (starting one if needed).

        Returns :data:`NULL_SPAN` when tracing is disabled, so callers can
        unconditionally ``with tracer.span(...) as span:``.
        """
        if not self.enabled:
            return NULL_SPAN
        state = self._state
        record = state.record
        if record is None:
            record = self._begin_trace()
            state.record = record
            state.base_parent = None
            state.owns = True
        parent_id = state.stack[-1].span_id if state.stack else state.base_parent
        span = Span(name, record.trace_id, parent_id, self, record)
        if attributes:
            span.attributes.update(attributes)
        state.stack.append(span)
        return span

    def _finish_span(self, span: Span) -> None:
        state = self._state
        record: _TraceRecord = span._record
        record.add(span.to_dict())
        if self.registry is not None:
            self.registry.observe_span(span.name, span.duration_ms)
        if state.stack and state.stack[-1] is span:
            state.stack.pop()
        if not state.stack and state.record is record:
            owns = state.owns
            state.record = None
            state.owns = False
            if owns and not record.remote:
                self._complete(record)

    def current_span(self):
        """The innermost open span on this thread (``NULL_SPAN`` if none)."""
        stack = self._state.stack
        return stack[-1] if stack else NULL_SPAN

    # -- trace lifecycle ---------------------------------------------------------

    def _begin_trace(self) -> _TraceRecord:
        record = _TraceRecord(_new_id(16))
        with self._lock:
            self._active[record.trace_id] = record
        return record

    def _complete(self, record: _TraceRecord) -> None:
        with self._lock:
            self._active.pop(record.trace_id, None)
            self._finished.append(record)
        if self.export_path:
            line = json.dumps(record.to_dict(), sort_keys=True)
            with self._export_lock:
                with open(self.export_path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")

    # -- propagation -------------------------------------------------------------

    def current_context(self) -> dict[str, Any] | None:
        """The wire-safe ``TraceContext`` for the current thread, or ``None``."""
        if not self.enabled:
            return None
        state = self._state
        record = state.record
        if record is None:
            return None
        parent_id = state.stack[-1].span_id if state.stack else state.base_parent
        # ``sampled`` stays in the wire shape; every trace is recorded.
        return {"trace_id": record.trace_id, "span_id": parent_id, "sampled": True}

    @contextmanager
    def attach(self, context: dict[str, Any] | None) -> Iterator[None]:
        """Bind this thread to the (local, still-active) trace in ``context``.

        Used by thread pools: the submitting thread captures
        :meth:`current_context` and the pool thread attaches so its spans
        join the same trace record.  Safe to nest and to call on the
        originating thread itself (the scatter fast path); a no-op when
        tracing is off, ``context`` is ``None``, or the trace has already
        finished.
        """
        if not self.enabled or not context:
            yield
            return
        with self._lock:
            record = self._active.get(context.get("trace_id", ""))
        if record is None:
            yield
            return
        state = self._state
        saved = (state.record, state.stack, state.base_parent, state.owns)
        # Share the live record but start a fresh stack rooted at the
        # context's span id; attached threads never finalise the trace.
        state.record = record
        state.stack = []
        state.base_parent = context.get("span_id")
        state.owns = False
        try:
            yield
        finally:
            state.record, state.stack, state.base_parent, state.owns = saved

    @contextmanager
    def remote_trace(
        self, context: dict[str, Any] | None
    ) -> Iterator[_TraceRecord | None]:
        """Adopt a ``TraceContext`` that arrived over the wire.

        Yields a detached collector record: spans opened inside the block
        belong to the remote caller's trace (same trace id, parents rooted
        at the caller's span id) but accumulate locally so the transport
        can ship them back inside the reply.  Yields ``None`` when tracing
        is off or no context arrived.
        """
        if not self.enabled or not context:
            yield None
            return
        record = _TraceRecord(
            context.get("trace_id") or _new_id(16),
            remote=True,
            parent_id=context.get("span_id"),
        )
        state = self._state
        saved = (state.record, state.stack, state.base_parent, state.owns)
        state.record = record
        state.stack = []
        state.base_parent = record.parent_id
        state.owns = True
        try:
            yield record
        finally:
            state.record, state.stack, state.base_parent, state.owns = saved

    def ingest(self, spans: list[dict[str, Any]]) -> None:
        """Merge span dicts returned by a remote peer into the current trace."""
        if not self.enabled or not spans:
            return
        record = self._state.record
        if record is None:
            return
        record.extend(spans)

    # -- inspection --------------------------------------------------------------

    def traces(self) -> list[dict[str, Any]]:
        """Completed traces, oldest first (bounded by ``trace_buffer``)."""
        with self._lock:
            records = list(self._finished)
        return [record.to_dict() for record in records]

    def get_trace(self, trace_id: str) -> dict[str, Any] | None:
        """One completed trace by id, or ``None`` if it has left the buffer."""
        with self._lock:
            for record in self._finished:
                if record.trace_id == trace_id:
                    return record.to_dict()
        return None

    def last_trace(self) -> dict[str, Any] | None:
        with self._lock:
            record = self._finished[-1] if self._finished else None
        return record.to_dict() if record is not None else None
