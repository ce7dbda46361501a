"""Tests for the slotted-page heap file."""

import pytest

from repro.errors import PageError, RecordNotFoundError, StorageError
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool, PageStore
from repro.storage.row import RecordId
from repro.storage.schema import TableSchema


@pytest.fixture()
def heap() -> HeapFile:
    pool = BufferPool(PageStore(1024), 64)
    schema = TableSchema.build("t", [("id", "int"), ("name", "text")])
    return HeapFile(pool, schema)


def put(heap: HeapFile, row: tuple) -> RecordId:
    """Append one row; its rid, page and slot named."""
    (rid,) = heap.insert_many([row])
    return RecordId(rid >> 16, rid & 0xFFFF)


class TestInsertFetch:
    def test_insert_returns_rid_and_fetch_roundtrips(self, heap):
        rid = put(heap, (1, "alpha"))
        assert heap.fetch(rid) == (1, "alpha")

    def test_len_counts_live_records(self, heap):
        for i in range(10):
            put(heap, (i, f"row{i}"))
        assert len(heap) == 10

    def test_records_span_multiple_pages(self, heap):
        # Long strings force page overflow with 1 KiB pages.
        rids = [put(heap, (i, "x" * 200)) for i in range(20)]
        assert heap.page_count > 1
        for i, rid in enumerate(rids):
            assert heap.fetch(rid) == (i, "x" * 200)

    def test_record_larger_than_page_rejected(self, heap):
        with pytest.raises(PageError):
            put(heap, (1, "y" * 5000))

    def test_fetch_unknown_page_raises(self, heap):
        put(heap, (1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.fetch(RecordId(page_no=99, slot_no=0))

    def test_fetch_unknown_slot_raises(self, heap):
        rid = put(heap, (1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.fetch(RecordId(page_no=rid.page_no, slot_no=50))


class TestRecordId:
    def test_a_rid_is_its_packed_integer(self):
        rid = RecordId(page_no=3, slot_no=5)
        assert rid == 3 << 16 | 5 and isinstance(rid, int)
        assert (rid.page_no, rid.slot_no) == (3, 5)
        assert hash(rid) == hash(3 << 16 | 5) and {rid: "row"}[3 << 16 | 5] == "row"
        assert RecordId(7, 65_535).slot_no == 65_535

    def test_orders_by_page_then_slot_as_before(self):
        rids = [RecordId(2, 0), RecordId(1, 9), RecordId(1, 10), RecordId(0, 65_535)]
        by_halves = sorted(rids, key=lambda rid: (rid.page_no, rid.slot_no))
        assert sorted(rids) == by_halves == [rids[3], rids[1], rids[2], rids[0]]

    def test_survives_copy_and_pickle(self):
        import copy
        import pickle

        rid = RecordId(4, 2)
        for clone in (copy.deepcopy(rid), pickle.loads(pickle.dumps(rid))):
            assert clone == rid and type(clone) is RecordId

    def test_heap_hands_back_and_scans_the_same_integers(self, heap):
        inserted = heap.insert_many([(i, "x" * 200) for i in range(12)])  # several pages
        scanned = [rid for rid, _ in heap.scan()]
        assert scanned == inserted and all(type(rid) is int for rid in scanned)
        named = [RecordId(rid >> 16, rid & 0xFFFF) for rid in inserted]
        assert heap.fetch_many(named) == heap.fetch_many(inserted)


class TestFetchMany:
    def test_rows_come_back_in_request_order_with_repeats(self, heap):
        rids = [put(heap, (i, "x" * 200)) for i in range(20)]  # several pages
        wanted = [rids[17], rids[0], rids[17], rids[9], rids[1]]
        assert [row[0] for row in heap.fetch_many(wanted)] == [17, 0, 17, 9, 1]
        assert heap.fetch_many([]) == []

    def test_a_page_run_is_one_checkout(self, heap):
        rids = [put(heap, (i, "v")) for i in range(10)]  # one page
        before = heap._pool.stats.hits
        heap.fetch_many(rids)
        assert heap._pool.stats.hits == before + 1

    def test_one_bad_rid_fails_the_batch(self, heap):
        rids = [put(heap, (i, "v")) for i in range(3)]
        with pytest.raises(RecordNotFoundError):
            heap.fetch_many([rids[0], RecordId(rids[1].page_no, 50), rids[2]])


class TestRidValidation:
    """Every rid goes through one check, and it always raises RecordNotFoundError."""

    def test_fetch_through_another_heaps_rid_raises(self, heap):
        other = HeapFile(heap._pool, TableSchema.build("other", [("v", "int")]))
        foreign = put(other, (7,))
        put(heap, (1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.fetch(foreign)
        assert list(other.scan_rows()) == [(7,)]

    def test_negative_slot_raises(self, heap):
        rid = put(heap, (1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.fetch(RecordId(page_no=rid.page_no, slot_no=-1))

    @pytest.mark.parametrize("bad", [-1, -(1 << 16), -(5 << 16 | 3), 99 << 16, 1 << 40])
    def test_negative_or_foreign_integer_raises_from_every_entry_point(self, heap, bad):
        rid = put(heap, (1, "a"))
        for call in (heap.fetch, lambda r: heap.fetch_many([rid, r])):
            with pytest.raises(RecordNotFoundError):
                call(bad)
        assert heap.fetch(rid) == (1, "a") and len(heap) == 1

    def test_the_slot_just_past_the_directory_raises(self, heap):
        rids = heap.insert_many([(1, "a"), (2, "b")])
        with pytest.raises(RecordNotFoundError, match="slot out of range"):
            heap.fetch(rids[-1] + 1)
        assert heap.fetch_many(rids) == [(1, "a"), (2, "b")]

    def test_error_names_page_and_slot(self, heap):
        put(heap, (1, "a"))
        with pytest.raises(RecordNotFoundError, match=r"page=99, slot=7"):
            heap.fetch(99 << 16 | 7)


class TestScan:
    def test_scan_yields_all_live_rows_in_order(self, heap):
        for i in range(25):
            put(heap, (i, f"row{i}"))
        rows = [row for _, row in heap.scan()]
        assert rows == [(i, f"row{i}") for i in range(25)]

    def test_scan_rids_resolve(self, heap):
        for i in range(8):
            put(heap, (i, "v"))
        for rid, row in heap.scan():
            assert heap.fetch(rid) == row

    def test_null_values_roundtrip(self, heap):
        rid = put(heap, (None, None))
        assert heap.fetch(rid) == (None, None)


class TestAppend:
    """``insert_many`` is the heap's one way in: rows go after the last one."""

    def test_an_empty_append_writes_nothing(self, heap):
        assert heap.insert_many([]) == []
        assert len(heap) == 0 and heap.page_count == 0 and list(heap.scan()) == []

    def test_rids_ascend_in_append_order_across_pages(self, heap):
        rows = [(i, "x" * 150) for i in range(30)]
        rids = heap.insert_many(rows)
        assert heap.page_count > 1
        assert rids == sorted(rids) and len(set(rids)) == len(rids)
        assert list(heap.scan()) == list(zip(rids, rows))

    def test_a_second_append_continues_the_last_page(self, heap):
        (first,) = heap.insert_many([(1, "a")])
        (second,) = heap.insert_many([(2, "b")])
        assert second == first + 1  # same page, next slot
        assert heap.page_count == 1 and list(heap.scan_rows()) == [(1, "a"), (2, "b")]

    def test_a_record_too_large_keeps_the_rows_before_it(self, heap):
        with pytest.raises(PageError):
            heap.insert_many(iter([(1, "a"), (2, "b"), (3, "y" * 5000), (4, "d")]))
        assert list(heap.scan_rows()) == [(1, "a"), (2, "b")] and len(heap) == 2
        assert heap.insert_many([(5, "e")]) == [2]  # the tail is where the scan ends


class TestRewrite:
    """``rewrite`` stores every record afresh in the order it is given."""

    @pytest.fixture()
    def rids(self, heap):
        return heap.insert_many([(i, "x" * 150) for i in range(15)])  # several pages

    def test_rows_land_in_the_given_order(self, heap, rids):
        order = rids[::-1]
        moved = heap.rewrite(order)
        assert [row[0] for row in heap.scan_rows()] == list(range(14, -1, -1))
        assert heap.fetch_many(moved) == [(i, "x" * 150) for i in range(14, -1, -1)]
        assert moved == sorted(moved) and len(heap) == 15

    def test_old_rids_stop_resolving(self, heap, rids):
        moved = heap.rewrite(rids[::-1])
        stale = max(rids, key=lambda rid: rid >> 16)  # a page that was freed
        assert stale >> 16 not in {rid >> 16 for rid in moved}
        with pytest.raises(RecordNotFoundError):
            heap.fetch(stale)

    @pytest.mark.parametrize("change", ["drop_one", "repeat_one"])
    def test_every_record_is_named_exactly_once(self, heap, rids, change):
        order = rids[1:] if change == "drop_one" else rids[:-1] + rids[:1]
        with pytest.raises(StorageError, match="names each of the 15 records once"):
            heap.rewrite(order)
        assert heap.fetch_many(rids) == [(i, "x" * 150) for i in range(15)]

    def test_appends_after_a_rewrite_follow_the_rewritten_rows(self, heap, rids):
        heap.rewrite(rids[::-1])
        heap.insert_many([(99, "last")])
        rows = list(heap.scan_rows())
        assert rows[-1] == (99, "last") and [row[0] for row in rows[:-1]] == list(range(14, -1, -1))
