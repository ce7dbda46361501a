"""The benchmark's own tracing: spans recorded from outside the program.

Nothing here touches the program's telemetry plane (it stays off).  A
:class:`SpanProxy` is slipped in at public composition seams only — the
service handed to the frontend, ``ShardHandle.service``,
``LocalTransport.service``, ``ServiceMiddleware.inner`` and
``KyrixBackend.engine`` — and times every call crossing the seam.  Seams are
discovered with ``getattr``: one that a refactor removed is simply not
interposed, and the metrics derived from it come out absent.

Spans stay in memory as :class:`Span` tuples; :class:`SpanTree` and
:func:`layer_times` turn them into per-layer self times (a span's duration
minus the part of it its children cover).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

from repro.serving import stack_layers

#: Seam kinds, outside-in; span names are ``"<seam>:<TargetClass>"``.
STEP = "step"
ENDPOINT = "endpoint"
SHARD = "shard"
WIRE = "wire"
INNER = "inner"
ENGINE = "engine"

class Span(NamedTuple):
    """One timed call across a seam; the spans of one step share ``request``."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def seam(self) -> str:
        return self.name.split(":", 1)[0]



@dataclass
class Captured:
    """Inputs seen at the seams, kept for the isolated leaf replays."""

    requests: list[Any] = field(default_factory=list)
    shard_responses: list[Any] = field(default_factory=list)
    sql: list[str] = field(default_factory=list)
    rows_returned: int = 0


class SpanRecorder:
    """Collects spans from the single traced session and its pool threads.

    A span opened on a thread with no open span of its own (a shard call
    on the router's pool) is parented under the innermost span the session
    thread has open — unambiguous because the traced run drives exactly one
    session, which is blocked in the scatter while its shard calls run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Open ``(span id, request id)`` pairs of the session thread.
        self._session_stack: list[tuple[int, int]] = []
        self.captured = Captured()

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def step(self):
        """One user interaction; opens the root span on the session thread."""
        local = self._local
        local.stack = self._session_stack
        return self.span(STEP)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        above = stack[-1] if stack else None
        if above is None and self._session_stack:
            above = self._session_stack[-1]
        span_id = next(self._ids)
        parent, request = above if above is not None else (None, span_id)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(Span(span_id, name, start, end, parent, request))


class SpanProxy:
    """A ``DataService`` that forwards every member and times ``handle``."""

    def __init__(self, target: Any, recorder: SpanRecorder, seam: str) -> None:
        self._target = target
        self._recorder = recorder
        self._seam = seam
        self._name = f"{seam}:{type(target).__name__}"

    def handle(self, request: Any) -> Any:
        captured = self._recorder.captured
        if self._seam == ENDPOINT:
            captured.requests.append(request)
        with self._recorder.span(self._name):
            response = self._target.handle(request)
        if self._seam == SHARD:
            captured.shard_responses.append(response)
        return response

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


class EngineProxy:
    """Forwards to a ``SQLEngine`` and times ``execute``."""

    def __init__(self, target: Any, recorder: SpanRecorder) -> None:
        self._target = target
        self._recorder = recorder
        self._name = f"{ENGINE}:{type(target).__name__}"

    def execute(self, sql: str) -> Any:
        with self._recorder.span(self._name):
            result = self._target.execute(sql)
        captured = self._recorder.captured
        captured.sql.append(sql)
        captured.rows_returned += len(result)
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


def interpose(service: Any, recorder: SpanRecorder) -> Any:
    """Slip proxies into every seam of ``service``; returns the endpoint proxy.

    The stack is walked once before anything is replaced, so each seam is
    wrapped exactly once.
    """
    for layer in stack_layers(service):
        for shard in getattr(layer, "shards", None) or ():
            if getattr(shard, "service", None) is not None:
                shard.service = SpanProxy(shard.service, recorder, SHARD)
        transport = getattr(layer, "transport", None)
        if getattr(transport, "service", None) is not None:
            # A transport layer serves through transport.service, never
            # through its own .inner.
            transport.service = SpanProxy(transport.service, recorder, WIRE)
        elif hasattr(getattr(layer, "inner", None), "handle"):
            layer.inner = SpanProxy(layer.inner, recorder, INNER)
        if hasattr(getattr(layer, "engine", None), "execute"):
            layer.engine = EngineProxy(layer.engine, recorder)
    return SpanProxy(service, recorder, ENDPOINT)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def _covered(spans: list[Span]) -> float:
    """Seconds covered by the union of ``spans`` (the critical path of parallel children)."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted((span.start, span.end) for span in spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


class SpanTree:
    """Spans indexed by seam and by parent, with times in reference milliseconds.

    ``speed_at`` gives the machine's speed factor at a moment (see
    :mod:`.calibration`); every span is divided by the factor at its start.
    """

    def __init__(self, spans: list[Span], speed_at: Callable[[float], float]) -> None:
        self.spans = spans
        self.speed_at = speed_at
        self._children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self._children.setdefault(span.parent, []).append(span)
        self._by_id = {span.id: span for span in spans}

    def of(self, seam: str) -> list[Span]:
        return [span for span in self.spans if span.seam == seam]

    def children(self, span: Span, seam: str | None = None) -> list[Span]:
        below = self._children.get(span.id, [])
        return below if seam is None else [c for c in below if c.seam == seam]

    def parent(self, span: Span) -> Span | None:
        return self._by_id.get(span.parent) if span.parent is not None else None

    def _scaled_ms(self, span: Span, seconds: float) -> float:
        return seconds * 1e3 / self.speed_at(span.start)

    def ms(self, span: Span) -> float:
        return self._scaled_ms(span, span.end - span.start)

    def self_ms(self, span: Span, seam: str | None = None) -> float:
        """Duration minus the part of it the children (of ``seam``) cover."""
        own = span.end - span.start - _covered(self.children(span, seam))
        return self._scaled_ms(span, own)

    def covered_ms(self, span: Span, seam: str) -> float:
        """The part of ``span`` its children of ``seam`` cover (their critical path)."""
        return self._scaled_ms(span, _covered(self.children(span, seam)))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: how many, their total and their self milliseconds."""
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += self.ms(span)
            row["self_ms"] += self.self_ms(span)
        return table


def layer_times(tree: SpanTree) -> dict[str, float | None]:
    """Per-layer times in milliseconds from the traced passes (``None`` = no such span)."""
    steps = tree.of(STEP)
    endpoints = tree.of(ENDPOINT)
    shards = tree.of(SHARD)
    engines = tree.of(ENGINE)
    lock_waits = [
        (below[0].start - wire.start) * 1e3 / tree.speed_at(wire.start)
        for wire in tree.of(WIRE)
        if (below := tree.children(wire, INNER))
    ]
    # The span an engine call sits under is its backend's handle().
    backends = {parent.id: parent for e in engines if (parent := tree.parent(e))}
    return {
        "client.self_ms_per_step": _mean([tree.self_ms(s, ENDPOINT) for s in steps]),
        "cluster.router_self_ms_per_request": _mean(
            [tree.self_ms(span, SHARD) for span in endpoints]
        )
        if shards
        else None,
        "cluster.shard_critical_path_ms_per_request": _mean(
            [tree.covered_ms(span, SHARD) for span in endpoints if tree.children(span, SHARD)]
        ),
        "serving.transport_ms_per_shard_call": _mean(
            [tree.self_ms(span, WIRE) for span in shards if tree.children(span, WIRE)]
        ),
        "serving.lock_wait_ms_per_step": sum(lock_waits) / len(steps)
        if lock_waits and steps
        else None,
        "server.backend_self_ms_per_query": _mean(
            [tree.self_ms(span, ENGINE) for span in backends.values()]
        ),
        "minisql.execute_ms_per_query": _mean([tree.ms(span) for span in engines]),
    }
