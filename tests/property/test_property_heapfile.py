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

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool, PageStore
from repro.storage.row import compile_decoder, compile_encoder, encode_row
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
    dead: list[int] = [*stranger.insert_many([data.draw(rows_of(schema))]), 10_000 << 16]

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


#: A column the fixed-width reader can read: every type but TEXT.
FIXED_TYPES = [ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.BBOX]


def fixed_schemas_with_or_without_text() -> st.SearchStrategy[TableSchema]:
    """INTEGER / FLOAT / BBOX columns, and a TEXT column among them or not."""

    def build(types: list[ColumnType], text_at: int | None) -> TableSchema:
        if text_at is not None:
            types = [*types[:text_at], ColumnType.TEXT, *types[text_at:]]
        return TableSchema.build("t", [(f"c{i}", t) for i, t in enumerate(types)])

    return st.lists(st.sampled_from(FIXED_TYPES), min_size=1, max_size=4).flatmap(
        lambda types: st.builds(build, st.just(types), st.none() | st.integers(0, len(types)))
    )


def random_value(rng, column_type: ColumnType):
    if column_type is ColumnType.INTEGER:
        return rng.randrange(-(2**63), 2**63)
    if column_type is ColumnType.FLOAT:
        return rng.uniform(-1e9, 1e9)
    if column_type is ColumnType.TEXT:
        return "".join(rng.choice("abcé☃") for _ in range(rng.randrange(8)))
    x, y = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
    return (x, y, x + rng.uniform(0, 50), y + rng.uniform(0, 50))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_column_read_equals_the_decoded_rows_column(data):
    """``column(i)`` is ``[row[i] for row in scan_rows()]`` and ``rids()``
    is ``scan()``'s rids: on pages whose records all have the fixed width
    (one column-only unpack), on pages mixing NULL and present records and
    on a TEXT schema's pages (decoded record by record), after loads and
    after a rewrite."""
    schema = data.draw(fixed_schemas_with_or_without_text())
    page_size = data.draw(st.sampled_from([512, 1024, 2048, 4096, 8192]))
    heap = HeapFile(BufferPool(PageStore(page_size), data.draw(st.sampled_from([4, 64]))), schema)
    # Seeded once: a heap of many pages drawn value by value from hypothesis
    # exceeds its entropy budget (the ``data_too_large`` health check).
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    null_rate = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    all_null = data.draw(st.none() | st.integers(0, len(schema.columns) - 1))

    def rows(count: int, null_rate: float) -> list[tuple]:
        return [
            tuple(
                None if i == all_null or rng.random() < null_rate else random_value(rng, column.type)
                for i, column in enumerate(schema.columns)
            )
            for _ in range(count)
        ]

    def check(model: list[tuple]) -> None:
        scanned = list(heap.scan())
        assert [row for _, row in scanned] == model
        assert heap.rids() == [rid for rid, _ in scanned]
        for i in range(len(schema.columns)):
            assert heap.column(i) == [row[i] for row in model]

    # Whole pages of all-present records, then a page that mixes NULL and
    # present ones between them (one NULL in a run), then random NULLs.
    model = rows(data.draw(st.integers(0, 2 * page_size // 16)), 0.0)
    model += [*rows(3, 0.0), tuple(None for _ in schema.columns), *rows(3, 0.0)]
    model += rows(data.draw(st.integers(0, 200)), null_rate)
    at = 0
    while at < len(model):  # in loads of one row or many
        step = rng.randint(1, 80)
        heap.insert_many(model[at : at + step])
        at += step
        check(model[:at])
    order = heap.rids()
    by_rid = dict(zip(order, model))
    rng.shuffle(order)
    heap.rewrite(order)
    check([by_rid[rid] for rid in order])


def fetched_with_checkouts(heap: HeapFile, call, rids: list[int]):
    """``call(rids)``'s result -- or the :class:`RecordNotFoundError` it
    raised -- and the pages it checked out, in order."""
    pool, pages = heap._pool, []
    get_page = pool.get_page
    pool.get_page = lambda page_no: pages.append(page_no) or get_page(page_no)
    try:
        return call(rids), pages
    except RecordNotFoundError as error:
        return str(error), pages
    finally:
        del pool.get_page


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_a_fetch_equals_the_rid_by_rid_reference(data):
    """``fetch_many`` -- a page at a time when the rids strictly ascend,
    rid by rid otherwise -- returns what decoding each stored record
    returns (``records`` reads them through ``_locate``), checks out the
    same pages in the same order, and refuses the same first bad rid with
    the same message: on schemas with and without TEXT, pages of
    all-present records and pages mixing NULL and present ones, page sizes
    512 to 8192, before and after a rewrite."""
    schema = data.draw(fixed_schemas_with_or_without_text())
    page_size = data.draw(st.sampled_from([512, 1024, 2048, 4096, 8192]))
    pool = BufferPool(PageStore(page_size), data.draw(st.sampled_from([4, 64])))
    heap, stranger = HeapFile(pool, schema), HeapFile(pool, schema)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))  # seeded once, as above
    null_rate = data.draw(st.sampled_from([0.0, 0.05, 0.3]))

    def rows(count: int, null_rate: float) -> list[tuple]:
        return [
            tuple(
                None if rng.random() < null_rate else random_value(rng, column.type)
                for column in schema.columns
            )
            for _ in range(count)
        ]

    # Whole pages of all-present records, a page mixing NULL and present
    # ones, then random NULLs.
    heap.insert_many(rows(rng.randint(0, 2 * page_size // 16), 0.0))
    heap.insert_many([*rows(3, 0.0), tuple(None for _ in schema.columns), *rows(3, 0.0)])
    heap.insert_many(rows(rng.randint(0, 200), null_rate))
    stranger.insert_many(rows(1, 0.0))
    if data.draw(st.booleans()):
        order = heap.rids()
        rng.shuffle(order)
        heap.rewrite(order)

    decode = compile_decoder(schema)

    def reference(rids: list[int]) -> list[tuple]:
        return [decode(bytes(record), 0, len(record)) for record in heap.records(rids)]

    stored = heap.rids()
    start = rng.randrange(len(stored))
    requests = [
        [],
        stored,
        sorted(rng.sample(stored, rng.randint(1, len(stored)))),  # ascending subset
        stored[start : start + rng.randint(1, 300)],  # a run that may cross pages
        rng.sample(stored, rng.randint(1, len(stored))),  # any order
        sorted(rng.choices(stored, k=rng.randint(2, 40))),  # repeated rids ascend, not strictly
        stored[::-1],
    ]
    for rids in requests:
        got = fetched_with_checkouts(heap, heap.fetch_many, rids)
        assert got == fetched_with_checkouts(heap, reference, rids)
        assert got[0][:9] == [heap.fetch(rid) for rid in rids[:9]]

    # A foreign page, a slot past the page's last, a negative rid or a page
    # no heap has, inside an ascending request; two of them, the first wins.
    last_page = stored[-1] >> 16
    bad = [
        *stranger.rids(),
        (last_page << 16) + (stored[-1] & 0xFFFF) + 1,
        (stored[0] >> 16 << 16) + 0xFFFF,
        -1,
        -(5 << 16) + 3,
        10_000 << 16,
    ]
    for wrong in rng.sample(bad, 2) + [rng.sample(bad, 2)]:
        wrongs = wrong if isinstance(wrong, list) else [wrong]
        rids = sorted(set(rng.sample(stored, rng.randint(0, len(stored))) + wrongs))
        got = fetched_with_checkouts(heap, heap.fetch_many, rids)
        assert isinstance(got[0], str)  # refused
        assert got == fetched_with_checkouts(heap, reference, rids)
