"""Wire protocol between the Kyrix frontend and backend.

Requests and responses are plain dataclasses with a JSON encoding, mirroring
the HTTP+JSON protocol of the original system.  Behind the HTTP edge,
shard conversations carry the same dataclasses as
:mod:`repro.net.columnar` binary messages; the JSON encoding here is the
reference the parity suites compare that codec against.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, repeat
from typing import Any

from ..errors import FetchError, ProtocolError


@dataclass(frozen=True)
class DataRequest:
    """A frontend -> backend request for the data of one region of a layer.

    ``granularity`` is ``"tile"`` (fetch one static tile by id) or ``"box"``
    (fetch an arbitrary rectangle — the dynamic-box scheme).
    """

    app_name: str
    canvas_id: str
    layer_index: int
    granularity: str
    #: Database design answering the request: "spatial" or "mapping".
    design: str = "spatial"
    # Tile requests:
    tile_id: int | None = None
    tile_size: int | None = None
    # Box requests (canvas coordinates):
    xmin: float | None = None
    ymin: float | None = None
    xmax: float | None = None
    ymax: float | None = None
    #: When routed through a sharded cluster, the shard this copy of the
    #: request targets.  ``None`` for direct (single-backend) requests and
    #: for the router-level identity of a scatter-gather request, so shard
    #: caches and the shared router cache never alias each other.
    shard_id: int | None = None
    #: Optional distributed-tracing context (``{"trace_id", "span_id",
    #: "sampled"}``) stamped onto the wire form by the transport stub so a
    #: worker on the far side can parent its spans under the caller's
    #: trace.  Never part of the cache identity; old peers that don't
    #: understand tracing simply carry it through untouched.
    trace: dict[str, Any] | None = None

    def cache_key(self) -> tuple[Any, ...]:
        """A hashable identity used by the frontend, backend and router caches."""
        if self.granularity == "tile":
            return (
                self.app_name, self.canvas_id, self.layer_index,
                "tile", self.design, self.tile_size, self.tile_id, self.shard_id,
            )
        return (
            self.app_name, self.canvas_id, self.layer_index,
            "box", self.xmin, self.ymin, self.xmax, self.ymax, self.shard_id,
        )

    def for_shard(self, shard_id: int) -> "DataRequest":
        """The same request addressed to one shard (shard-aware cache key)."""
        return replace(self, shard_id=shard_id)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-serialisable form."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DataRequest":
        return cls(**json.loads(text))


def _canonical_value(value: Any) -> Any:
    """Restore one decoded column value to its canonical form, recursively.

    Sequences are tuples at every nesting level (a polygon column decoded
    as list-of-point-pairs becomes a tuple of point tuples), and mapping
    values are canonicalised through.  Recursing is what keeps the wire
    encoding lossless for nested columns — converting only the top level
    would leave ``from_json(to_json(r)) != r`` for any response holding a
    nested sequence.
    """
    if isinstance(value, list):
        return tuple(_canonical_value(item) for item in value)
    if isinstance(value, dict):
        return {name: _canonical_value(item) for name, item in value.items()}
    return value


def _canonical_object(obj: dict[str, Any]) -> dict[str, Any]:
    """Restore the canonical row representation after a JSON decode.

    Rows are immutable: sequence-valued columns (``bbox``) are tuples in
    every in-process response, but JSON has no tuple type and decodes them
    as lists.  Converting them back — at every nesting depth — makes the
    JSON encoding lossless — ``DataResponse.from_json(r.to_json()) == r``
    — the same canonical form the binary shard wire decodes to.
    """
    return {name: _canonical_value(value) for name, value in obj.items()}


def _reject_unencodable(value: Any) -> Any:
    """The ``default=`` hook for response encoders: refuse, don't coerce.

    A column value with no JSON representation must fail the encode with a
    typed :class:`~repro.errors.ProtocolError`; stringifying it (the old
    ``default=str``) would produce a payload that decodes to something
    other than the original response, silently violating the
    round-trip-is-lossless invariant.
    """
    raise ProtocolError(
        f"column value of type {type(value).__name__} ({value!r}) has no "
        "lossless wire encoding"
    )


class _Absent:
    """The cell of a row that does not carry the column's key."""


ABSENT = _Absent()


class RowBatch(Sequence):
    """The objects of a response as the engine made them: names + row tuples.

    To a reader a batch *is* the list of row dictionaries it stands for (``len``,
    iteration, indexing, ``==``), but it holds no dictionary: a read builds the
    rows it reads, fresh, and keeps none.  Below the edge nobody reads a row:
    the backend hands over ``ResultSet``'s tuples, the shard wire transposes
    them, the router sorts them, the caches and the frontend pass the batch on.
    Nobody writes a batch once it is built, so its holders share it without a
    lock, and no reader's edit reaches another.  ``rows`` are tuples in
    ``names`` order; ``names`` are distinct; a ``sparse`` batch may hold
    :data:`ABSENT` cells.
    """

    __slots__ = ("names", "rows", "sparse")

    def __init__(self, names: Iterable[str], rows: list[tuple], sparse: bool = False) -> None:
        self.names = tuple(names)
        self.rows = rows
        self.sparse = sparse

    def _dict(self, row: tuple[Any, ...]) -> dict[str, Any]:
        if self.sparse:
            return {name: cell for name, cell in zip(self.names, row) if cell is not ABSENT}
        return dict(zip(self.names, row))

    def to_dicts(self) -> list[dict[str, Any]]:
        """New ``{column: value}`` rows on every call: the edge's call (repolint ``edge-rows``)."""
        return list(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        if self.sparse:
            return map(self._dict, self.rows)
        return map(dict, map(zip, repeat(self.names), self.rows))

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(map(self._dict, self.rows[index]))
        return self._dict(self.rows[index])

    def __eq__(self, other: object) -> bool:
        return self.to_dicts() == (other.to_dicts() if isinstance(other, RowBatch) else other)

    def __repr__(self) -> str:
        return repr(self.to_dicts())


def concat_rows(parts: Sequence[Sequence[dict[str, Any]]]) -> RowBatch:
    """The parts' rows in order as one batch: a layer's tiles, a request's shards.

    A lone batch is the answer itself; empty parts are skipped (the codec
    decodes zero rows with names ``()``).  A list of dictionaries (from JSON,
    or built by hand) is laid out against all the parts' names, ABSENT where a
    row lacks one.  One layer, one table: other names are a :class:`FetchError`.
    """
    if len(parts) == 1 and isinstance(parts[0], RowBatch):
        return parts[0]
    filled = [part for part in parts if len(part)]
    names = tuple(dict.fromkeys(chain(  # the batches' names first: JSON sorts a row's keys
        *(part.names for part in filled if isinstance(part, RowBatch)),
        *(chain.from_iterable(part) for part in filled if not isinstance(part, RowBatch)),
    )))
    batches = [
        part if isinstance(part, RowBatch)
        else RowBatch(names, [tuple(map(obj.get, names, repeat(ABSENT))) for obj in part], True)
        for part in filled
    ]
    if any(batch.names != names for batch in batches):  # one layer, one table, one schema
        raise FetchError(f"parts answered with columns other than {names}")
    rows = list(chain.from_iterable(batch.rows for batch in batches))
    return RowBatch(names, rows, any(batch.sparse for batch in batches))


@dataclass
class DataResponse:
    """A backend -> frontend response carrying placed objects.

    Each object is a dictionary of the layer's transform columns plus the
    placement outputs ``cx``, ``cy`` and ``bbox``.  The JSON encoding is
    lossless: decoding restores sequence-valued columns to their canonical
    tuple form, so a response that crosses the wire compares equal to the
    in-process original.
    """

    request: DataRequest
    #: A :class:`RowBatch` below the edge; a list when decoded from JSON or built by hand.
    objects: Sequence[dict[str, Any]] = field(default_factory=list)
    #: Milliseconds the backend spent running database queries.  For
    #: scatter-gather responses this is the measured wall time of the whole
    #: scatter-gather, routing to merge — never less than the slowest shard.
    query_ms: float = 0.0
    #: Whether the response was served from the backend cache.
    from_cache: bool = False
    #: Number of distinct DBMS queries issued to produce this response.
    queries_issued: int = 0
    #: Per-shard query milliseconds (``{"shard0": 1.2, ...}``) when the
    #: response was produced by a cluster scatter-gather; empty otherwise.
    #: Keeps latency breakdowns attributable per shard.
    shard_ms: dict[str, float] = field(default_factory=dict)
    #: Whether this response was shared from a coalesced in-flight request
    #: issued by another concurrent session.
    coalesced: bool = False
    #: Span dictionaries recorded on the far side of a transport while the
    #: request was served there; the near-side stub drains these into its
    #: own tracer, so responses above the transport always carry ``[]`` and
    #: stay byte-identical across topologies.
    trace: list[dict[str, Any]] = field(default_factory=list)

    def object_count(self) -> int:
        return len(self.objects)

    def to_dicts(self) -> list[dict[str, Any]]:
        """The objects as a list of row dictionaries: the edge's read of a response."""
        objects = self.objects
        return objects.to_dicts() if isinstance(objects, RowBatch) else objects

    def to_json(self) -> str:
        """Canonical JSON encoding."""
        return json.dumps(
            {
                "request": asdict(self.request),
                "objects": self.to_dicts(),
                "query_ms": self.query_ms,
                "from_cache": self.from_cache,
                "queries_issued": self.queries_issued,
                "shard_ms": self.shard_ms,
                "coalesced": self.coalesced,
                "trace": self.trace,
            },
            sort_keys=True,
            default=_reject_unencodable,
        )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DataResponse":
        """Rebuild a response from its decoded JSON dictionary."""
        return cls(
            request=DataRequest(**data["request"]),
            objects=[_canonical_object(obj) for obj in data["objects"]],
            query_ms=data["query_ms"],
            from_cache=data["from_cache"],
            queries_issued=data.get("queries_issued", 0),
            shard_ms=data.get("shard_ms", {}),
            coalesced=data.get("coalesced", False),
            trace=list(data.get("trace", [])),
        )

    @classmethod
    def from_json(cls, text: str) -> "DataResponse":
        return cls.from_dict(json.loads(text))

    def payload_size(self, per_object_bytes: int | None = None) -> int:
        """Estimated serialized size in bytes.

        When ``per_object_bytes`` is given, a fast estimate (count x bytes)
        is used; otherwise the exact JSON encoding is measured.
        """
        if per_object_bytes is not None:
            return len(self.objects) * per_object_bytes
        return len(self.to_json().encode("utf-8"))
