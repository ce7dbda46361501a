"""Wire protocol between the Kyrix frontend and backend.

Requests and responses are plain dataclasses with a JSON encoding, mirroring
the HTTP+JSON protocol of the original system.  Behind the HTTP edge,
shard conversations carry the same dataclasses as
:mod:`repro.net.columnar` binary messages; the JSON encoding here is the
reference the parity suites compare that codec against.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

from ..errors import FetchError, ProtocolError


@dataclass(frozen=True)
class DataRequest:
    """A frontend -> backend request for the data of one region of a layer.

    ``granularity`` is ``"tile"`` (fetch one static tile by id) or ``"box"``
    (fetch an arbitrary rectangle — the dynamic-box scheme).
    """

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

    def cache_key(self) -> tuple[Any, ...]:
        """The region as a hashable identity: the frontend, backend and router caches' key."""
        if self.granularity == "tile":
            return (
                self.canvas_id, self.layer_index,
                "tile", self.design, self.tile_size, self.tile_id,
            )
        return (
            self.canvas_id, self.layer_index,
            "box", self.xmin, self.ymin, self.xmax, self.ymax,
        )

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


class RowBatch(Sequence):
    """The objects of a response as the engine made them: names + row tuples.

    To a reader a batch *is* the list of row dictionaries it stands for (``len``,
    iteration, indexing, ``==``), but it holds no dictionary: a read builds the
    rows it reads, fresh, and keeps none.  Below the edge nobody reads a row:
    the backend hands over ``ResultSet``'s tuples, the shard wire transposes
    them, the router sorts them, the caches and the frontend pass the batch on.
    Nobody writes a batch once it is built, so its holders share it without a
    lock, and no reader's edit reaches another.  ``rows`` are tuples in
    ``names`` order and ``names`` are distinct: every row carries every name,
    and a NULL is ``None``.

    ``types`` is what the engine knows of each column: its storage type
    (a :class:`~repro.storage.types.ColumnType`, whose values storage
    decodes to exact ``int`` / ``float`` / ``str`` / 4-float tuples or
    ``None``), or None for a computed column.  Only the engine's batches
    carry types; any other batch (gathered, decoded, built by hand) has
    none, and the shard wire inspects its cells instead.
    """

    __slots__ = ("names", "rows", "types")

    def __init__(self, names: Iterable[str], rows: list[tuple], types: Iterable[Any] = ()) -> None:
        self.names = tuple(names)
        self.rows = rows
        self.types = tuple(types)

    def _dict(self, row: tuple[Any, ...]) -> dict[str, Any]:
        return dict(zip(self.names, row))

    def to_dicts(self) -> list[dict[str, Any]]:
        """New ``{column: value}`` rows on every call: the edge's call (repolint ``edge-rows``)."""
        return list(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
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
    or built by hand) is laid out against the first batch's names, or else the
    first row's keys, and every row must carry exactly those keys.  One layer,
    one table: other names, or a ragged list, are a :class:`FetchError`.
    """
    if len(parts) == 1 and isinstance(parts[0], RowBatch):
        return parts[0]
    filled = [part for part in parts if len(part)]
    names = next((part.names for part in filled if isinstance(part, RowBatch)), None)
    if names is None:
        names = tuple(filled[0][0]) if filled else ()
    batches = [part if isinstance(part, RowBatch) else _laid_out(part, names) for part in filled]
    if any(batch.names != names for batch in batches):  # one layer, one table, one schema
        raise FetchError(f"parts answered with columns other than {names}")
    return RowBatch(names, list(chain.from_iterable(batch.rows for batch in batches)))


def _laid_out(objects: Sequence[dict[str, Any]], names: tuple[str, ...]) -> RowBatch:
    """Dictionaries as rows of ``names``: each must carry exactly those keys."""
    keys = set(names)
    if any(obj.keys() != keys for obj in objects):
        raise FetchError(f"parts answered with rows keyed other than {names}")
    return RowBatch(names, [tuple(map(obj.__getitem__, names)) for obj in objects])


def gather_rows(shard_objects: list[Sequence[dict[str, Any]]]) -> RowBatch:
    """Merge the shards' rows, as tuples, into one batch in *canonical* order.

    Rows sort by their dedup identity, so the gathered batch is byte-identical
    between the parallel and sequential paths AND invariant under the
    partitioning itself — an online rebalance can re-split shards without
    changing a response byte (a shard returns rows in index order, which
    depends on what rows it holds; the sort erases that).  A boundary row
    replicated into several shards is kept once, the first shard's copy; the
    rows of a fan-out of one are only sorted.  A row's identity is its
    ``tuple_id``, or without one (a NULL, or a raw table without the column)
    the row as sorted ``(name, value)`` pairs; identities of mixed types (an
    int ``tuple_id`` beside such a row) have no natural order and ``repr``
    gives a deterministic one.  The indexer's tables take
    neither detour: whole-list calls, no statement per row.  The HTTP edge
    sorts every response through here as one part, so ``/dbox`` and
    ``/tile`` answer in this order on every topology.
    """
    # One layout for the gather (a canned or fault-injected shard answers with
    # a list built by hand), and one set of columns on every shard.
    gathered = concat_rows(shard_objects)
    names, rows = gathered.names, gathered.rows
    by_id = itemgetter(names.index("tuple_id")) if "tuple_id" in names else None
    ids = list(map(by_id, rows)) if by_id else [None]
    identity: Callable[[tuple[Any, ...]], Any] = by_id
    if None in ids:
        def identity(row: tuple[Any, ...]) -> Any:
            tuple_id = by_id(row) if by_id else None
            return tuple(sorted(zip(names, row))) if tuple_id is None else tuple_id
    if len(shard_objects) == 1:
        try:
            rows = sorted(rows, key=identity)
        except TypeError:
            rows = sorted(rows, key=lambda row: repr(identity(row)))
    else:
        if identity is not by_id:
            ids = list(map(identity, rows))
        # Filled back to front, so the row an identity ends up with is its first...
        first = dict(zip(reversed(ids), reversed(rows)))
        try:
            keys = sorted(first)
        except TypeError:
            # ...but under its last key object, and ``repr`` tells 1 from True.
            keys = sorted(dict.fromkeys(ids), key=repr)
        rows = list(map(first.__getitem__, keys))
    return RowBatch(names, rows)


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
    #: Whether this response was shared from a coalesced in-flight request
    #: issued by another concurrent session.
    coalesced: bool = False

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
                "coalesced": self.coalesced,
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
            queries_issued=data["queries_issued"],
            coalesced=data["coalesced"],
        )

    @classmethod
    def from_json(cls, text: str) -> "DataResponse":
        return cls.from_dict(json.loads(text))
