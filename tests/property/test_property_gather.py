"""Property suite for the router's gather and the frontend's concatenation.

``repro.net.protocol.gather_rows`` merges the shards' rows as tuples —
one ``itemgetter``, one ``dict``, one ``sorted`` — where the router used to
walk a dictionary per object.  ``tests/cluster/reference_merge.py`` is that
walk, kept; every scatter of engine-shaped rows hypothesis can build —
boundary duplicates, shard frames in any order, ``None`` or missing
``tuple_id`` (a separable layer's raw table may lack the column), empty
shards, fan-out 1 to 4, local batches, wire- and JSON-decoded parts and lists
built by hand — must come out of both as the same rows in the same order with
the same number of duplicates removed.  A part whose rows carry different
keys is no shape a shard makes, and is refused typed.  The same parts read as one layer's
tiles go through ``concat_rows``, the layout step the gather starts with, and
must come out as the list the frontend once extended with each part's dicts.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import FetchError, ProtocolError
from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse, RowBatch, concat_rows, gather_rows

from tests.cluster import reference_merge as reference

_BOX = DataRequest(
    canvas_id="dots", layer_index=0, granularity="box",
    xmin=0.0, ymin=0.0, xmax=256.0, ymax=256.0,
)

#: What a ``tuple_id`` column holds: the engine's INTEGER, with or without
#: NULLs.  A NULL's identity is the whole row, and the ints and those row
#: identities have no common order (the ``repr`` fallback).
_ID_KINDS = [st.integers(0, 12), st.one_of(st.none(), st.integers(0, 6))]
#: One storage type per other column, from small pools so that rows without
#: a ``tuple_id`` repeat whole.
_CELL_KINDS = [
    st.integers(0, 2),
    st.sampled_from([0.5, -1.5]),
    st.sampled_from(["p", "q"]),
    st.sampled_from([(0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0)]),
]


def _strict(rows) -> str:
    """Rows as text that tells 1 from 1.0 from True, key order aside."""
    return repr([sorted(row.items()) for row in rows])


@st.composite
def scatters(draw):
    """``(rows per shard as dicts, names)``: a pool of rows dealt to 1-4 shards."""
    names = draw(st.sampled_from([("tuple_id", "x", "label"), ("x", "label"), ("label", "tuple_id")]))
    kinds = {
        name: draw(st.sampled_from(_ID_KINDS)) if name == "tuple_id"
        else st.one_of(draw(st.sampled_from(_CELL_KINDS)), st.none())
        for name in names
    }
    pool = [
        {name: draw(kinds[name]) for name in names} for _ in range(draw(st.integers(0, 8)))
    ]
    fan_out = draw(st.integers(1, 4))
    # Drawn with replacement and in any order: a row may sit on several
    # shards (a boundary duplicate), twice on one, or on none.
    dealt = st.lists(st.sampled_from(pool), max_size=10) if pool else st.just([])
    return [draw(dealt) for _ in range(fan_out)], names


def _check(shard_objects, shard_rows) -> None:
    expected, duplicates = reference.gather(shard_rows)
    gathered = gather_rows(shard_objects)
    assert isinstance(gathered, RowBatch)
    assert all(type(row) is tuple for row in gathered.rows)
    assert sum(map(len, shard_objects)) - len(gathered) == duplicates
    assert _strict(gathered) == _strict(expected)
    # The parts as a layer's tiles: in order, every row, nothing merged away.
    extended = []
    for objects in shard_objects:
        extended.extend(objects.to_dicts() if isinstance(objects, RowBatch) else objects)
    concatenated = concat_rows(shard_objects)
    assert all(type(row) is tuple for row in concatenated.rows)
    assert _strict(concatenated) == _strict(extended)


class TestGatherAgainstReference:
    @given(scatters(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_dense_rows_as_batches_and_lists(self, scatter, data):
        shard_rows, names = scatter
        # A shard answers with the engine's batch; a canned or fault-injected
        # one with a list built by hand.
        shard_objects = [
            RowBatch(names, [tuple(row.values()) for row in rows])
            if data.draw(st.booleans())
            else [dict(row) for row in rows]
            for rows in shard_rows
        ]
        _check(shard_objects, shard_rows)

    @given(scatters(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_dense_rows_off_the_wire(self, scatter, binary):
        shard_rows, _ = scatter
        # What a transport stub hands the router: every shard's frame decoded
        # (names in wire order; no row, no column, no name) — or what a JSON
        # client decodes.
        shard_objects = [
            columnar.decode_response(columnar.encode_response(_sent(rows)))[0].objects
            if binary else _json_decoded(rows)
            for rows in shard_rows
        ]
        _check(shard_objects, shard_rows)

    @given(scatters(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_that_lack_keys_are_refused(self, scatter, data):
        shard_rows, names = scatter
        assume(any(shard_rows))
        # A row without one of the table's keys, in a part built by hand or
        # decoded from JSON, beside at least one complete row.
        ragged = dict(data.draw(st.sampled_from([row for rows in shard_rows for row in rows])))
        del ragged[data.draw(st.sampled_from(names))]
        target = data.draw(st.integers(0, len(shard_rows) - 1))
        shard_objects = [
            [*rows, ragged] if shard == target else _json_decoded(rows)
            for shard, rows in enumerate(shard_rows)
        ]
        for merge in (gather_rows, concat_rows):
            with pytest.raises(FetchError, match="other than"):
                merge(shard_objects)
        with pytest.raises(ProtocolError, match="dense rows only: .*keyed other than"):
            columnar.encode_response(_sent([row for part in shard_objects for row in part]))


def _sent(rows) -> DataResponse:
    return DataResponse(request=_BOX, objects=rows)


def _json_decoded(rows) -> list:
    return DataResponse.from_json(_sent(rows).to_json()).objects


def test_an_empty_scatter_gathers_to_an_empty_batch():
    assert gather_rows([RowBatch(("tuple_id",), []), []]) == []
    assert gather_rows([[]]) == []
    # The codec decodes zero rows with names (): an empty tile joins any layer.
    tile = RowBatch(("tuple_id", "x"), [(1, 0.5)])
    assert concat_rows([RowBatch((), []), tile, []]).rows == [(1, 0.5)]
    assert concat_rows([]) == [] and concat_rows([tile]) is tile


def test_batches_that_disagree_on_their_columns_are_refused():
    # One layer, one table, one set of columns on every shard: anything else
    # is a corrupted answer, and tuples cannot paper over it as dicts did.
    disagreeing = [RowBatch(("tuple_id", "x"), [(1, 2)]), RowBatch(("tuple_id",), [(3,)])]
    for merge in (gather_rows, concat_rows):
        with pytest.raises(FetchError, match="answered with columns other than"):
            merge(disagreeing)
