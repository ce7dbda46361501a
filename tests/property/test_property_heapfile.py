"""Model-based property tests for the heap file and the compiled row decoder.

A generated schema and a generated sequence of ``insert_many`` (of one row
or several) / ``rewrite`` / ``fetch`` / ``fetch_many`` / ``scan`` calls run
against a :class:`HeapFile` on small pages (so records spread over many) in
a pool of 4 or 8 pages and against a plain dict; the two must agree after
every step, and a rid the model does not hold -- moved away by a rewrite,
or another heap's -- must raise :class:`RecordNotFoundError` from every
entry point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool, PageStore
from repro.storage.row import RecordId, compile_decoder, compile_encoder, encode_row
from repro.storage.schema import TableSchema
from repro.storage.types import ColumnType, decode_value

floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
VALUES = {
    ColumnType.INTEGER: st.integers(-(2**63), 2**63 - 1),
    ColumnType.FLOAT: floats,
    ColumnType.TEXT: st.text(max_size=12),
    ColumnType.BBOX: st.tuples(floats, floats, floats, floats),
}
schemas = st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5).map(
    lambda types: TableSchema.build("t", [(f"c{i}", t) for i, t in enumerate(types)])
)


def rows_of(schema: TableSchema) -> st.SearchStrategy[tuple]:
    return st.tuples(*(st.one_of(st.none(), VALUES[column.type]) for column in schema.columns))


def reference_decode(payload: bytes, schema: TableSchema) -> tuple:
    """The per-value decode the compiled decoder must agree with."""
    values, offset = [], 0
    for column in schema.columns:
        value, offset = decode_value(payload, offset, column.type)
        values.append(value)
    assert offset == len(payload)
    return tuple(values)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_compiled_codec_matches_the_per_value_reference(data):
    schema = data.draw(schemas)
    decode, encode = compile_decoder(schema), compile_encoder(schema)
    for row in data.draw(st.lists(rows_of(schema), min_size=1, max_size=6)):
        payload = encode_row(row, schema)
        assert bytes(encode(row)) == payload
        assert decode(payload, 0, len(payload)) == reference_decode(payload, schema) == row
        # Off a larger buffer at an offset, the way the heap file calls it.
        page = bytearray(b"\xff" * 7 + payload + b"\xff" * 5)
        assert decode(page, 7, len(payload)) == row


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_heap_file_agrees_with_a_dict_model(data):
    schema = data.draw(schemas)
    # Smaller than the heap: pages get evicted, mid-rewrite too.
    pool = BufferPool(PageStore(512), data.draw(st.sampled_from([4, 8])))
    heap = HeapFile(pool, schema)
    stranger = HeapFile(pool, schema)
    model: dict[int, tuple] = {}
    dead: list[int] = [*stranger.insert_many([data.draw(rows_of(schema))]), RecordId(10_000, 0)]

    for _ in range(data.draw(st.integers(1, 40))):
        action = data.draw(st.sampled_from(["insert"] * 3 + ["insert_many", "rewrite", "fetch_many"]))
        if action == "insert" or not model:
            row = data.draw(rows_of(schema))
            (rid,) = heap.insert_many([row])
            assert rid not in model
            model[rid] = row
        elif action == "insert_many":
            rows = data.draw(st.lists(rows_of(schema), max_size=8))
            rids = heap.insert_many(rows)
            assert len(set(rids)) == len(rows) and not set(rids) & set(model)
            model.update(zip(rids, rows))
        elif action == "rewrite":
            order = data.draw(st.permutations(sorted(model)))
            # One missing, one stale, one named twice.
            wrongs = [order[:-1], [*order[:-1], dead[-1]], [order[0], *order[1:-1], order[0]]]
            for wrong in wrongs[: 2 + (len(order) > 1)]:
                with pytest.raises(StorageError):  # and nothing moved
                    heap.rewrite(wrong)
            moved = heap.rewrite(order)
            assert [rid for rid, _ in heap.scan()] == moved  # the new physical order
            dead.extend(order)
            model = {new: model[old] for old, new in zip(order, moved)}
        else:
            wanted = data.draw(st.lists(st.sampled_from(sorted(model)), max_size=12))
            assert heap.fetch_many(wanted) == [model[rid] for rid in wanted]  # request order
            if wanted:
                assert heap.fetch(wanted[0]) == model[wanted[0]]
            with pytest.raises(RecordNotFoundError):
                heap.fetch_many([*wanted, data.draw(st.sampled_from(dead))])

        assert len(heap) == len(model)
        gone = data.draw(st.sampled_from(dead))
        for call in (heap.fetch, lambda rid: heap.fetch_many([rid])):
            with pytest.raises(RecordNotFoundError):
                call(gone)

    scanned = list(heap.scan())
    assert dict(scanned) == model
    assert [rid for rid, _ in scanned] == sorted(model)  # physical order
    assert list(heap.scan_rows()) == [row for _, row in scanned]
    assert len(stranger) == 1  # nothing reached the other heap through this one
