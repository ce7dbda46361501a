"""Property suite for the router's gather and the frontend's concatenation.

``repro.cluster.router.gather_rows`` merges the shards' rows as tuples —
one ``itemgetter``, one ``dict``, one ``sorted`` — where the router used to
walk a dictionary per object.  ``tests/cluster/reference_merge.py`` is that
walk, kept; every scatter hypothesis can build — boundary duplicates, shard
frames in any order, ``None`` / mixed-type / missing ``tuple_id``, empty
shards, fan-out 1 to 4, local batches, wire- and JSON-decoded parts and lists
built by hand — must come out of both as the same rows in the same order with
the same number of duplicates removed.  The same parts read as one layer's
tiles go through ``concat_rows``, the layout step the gather starts with, and
must come out as the list the frontend once extended with each part's dicts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.router import gather_rows
from repro.errors import FetchError
from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse, RowBatch, concat_rows

from tests.cluster import reference_merge as reference

_BOX = DataRequest(
    app_name="dots", canvas_id="dots", layer_index=0, granularity="box",
    xmin=0.0, ymin=0.0, xmax=256.0, ymax=256.0,
)

#: What a ``tuple_id`` column may hold, narrowest first.  The last two mix
#: types with no natural order (the ``repr`` fallback) and values that are
#: equal across types (1 == 1.0 == True) but print differently.
_ID_KINDS = [
    st.integers(0, 12),
    st.one_of(st.none(), st.integers(0, 6)),
    st.one_of(st.integers(0, 4), st.sampled_from(["a", "b", "3"])),
    st.one_of(st.none(), st.integers(0, 2), st.booleans(), st.sampled_from([1.0, 2.5, "a"])),
]
_cells = st.one_of(st.integers(0, 2), st.none(), st.sampled_from([0.5, "p", (0.0, 1.0)]))


def _strict(rows) -> str:
    """Rows as text that tells 1 from 1.0 from True, key order aside."""
    return repr([sorted(row.items()) for row in rows])


@st.composite
def scatters(draw, *, sparse: bool):
    """``(rows per shard as dicts, names)``: a pool of rows dealt to 1-4 shards."""
    names = draw(st.sampled_from([("tuple_id", "x", "label"), ("x", "label"), ("label", "tuple_id")]))
    ids = draw(st.sampled_from(_ID_KINDS))
    pool = []
    for _ in range(draw(st.integers(0, 8))):
        row = {name: draw(ids if name == "tuple_id" else _cells) for name in names}
        if sparse:
            for name in draw(st.sets(st.sampled_from(names))):
                del row[name]
        pool.append(row)
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
    @given(scatters(sparse=False), st.data())
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

    @given(scatters(sparse=False), st.booleans())
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

    @given(scatters(sparse=True), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_that_lack_keys(self, scatter, data):
        shard_rows, _ = scatter
        # Built by hand, or decoded from JSON (canonical dicts, keys sorted).
        _check(
            [
                _json_decoded(rows) if data.draw(st.booleans()) else [dict(row) for row in rows]
                for rows in shard_rows
            ],
            shard_rows,
        )


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
