"""Tests for the slotted-page heap file."""

import pytest

from repro.errors import PageError, RecordNotFoundError
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool, PageStore
from repro.storage.row import RecordId
from repro.storage.schema import TableSchema


@pytest.fixture()
def heap() -> HeapFile:
    pool = BufferPool(PageStore(1024), 64)
    schema = TableSchema.build("t", [("id", "int"), ("name", "text")])
    return HeapFile(pool, schema)


class TestInsertFetch:
    def test_insert_returns_rid_and_fetch_roundtrips(self, heap):
        rid = heap.insert((1, "alpha"))
        assert heap.fetch(rid) == (1, "alpha")

    def test_len_counts_live_records(self, heap):
        for i in range(10):
            heap.insert((i, f"row{i}"))
        assert len(heap) == 10

    def test_records_span_multiple_pages(self, heap):
        # Long strings force page overflow with 1 KiB pages.
        rids = [heap.insert((i, "x" * 200)) for i in range(20)]
        assert heap.page_count > 1
        for i, rid in enumerate(rids):
            assert heap.fetch(rid) == (i, "x" * 200)

    def test_record_larger_than_page_rejected(self, heap):
        with pytest.raises(PageError):
            heap.insert((1, "y" * 5000))

    def test_fetch_unknown_page_raises(self, heap):
        heap.insert((1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.fetch(RecordId(page_no=99, slot_no=0))

    def test_fetch_unknown_slot_raises(self, heap):
        rid = heap.insert((1, "a"))
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
        inserted = [heap.insert((i, "x" * 200)) for i in range(12)]  # several pages
        assert all(type(rid) is RecordId for rid in inserted)
        scanned = [rid for rid, _ in heap.scan()]
        assert scanned == inserted and all(type(rid) is int for rid in scanned)
        assert heap.fetch_many([int(rid) for rid in inserted]) == heap.fetch_many(inserted)


class TestFetchMany:
    def test_rows_come_back_in_request_order_with_repeats(self, heap):
        rids = [heap.insert((i, "x" * 200)) for i in range(20)]  # several pages
        wanted = [rids[17], rids[0], rids[17], rids[9], rids[1]]
        assert [row[0] for row in heap.fetch_many(wanted)] == [17, 0, 17, 9, 1]
        assert heap.fetch_many([]) == []

    def test_a_page_run_is_one_checkout(self, heap):
        rids = [heap.insert((i, "v")) for i in range(10)]  # one page
        before = heap._pool.stats.hits
        heap.fetch_many(rids)
        assert heap._pool.stats.hits == before + 1

    def test_one_bad_rid_fails_the_batch(self, heap):
        rids = [heap.insert((i, "v")) for i in range(3)]
        heap.delete(rids[1])
        with pytest.raises(RecordNotFoundError):
            heap.fetch_many(rids)


class TestRidValidation:
    """Every rid goes through one check, and it always raises RecordNotFoundError."""

    def test_update_through_another_heaps_rid_raises_and_leaves_it_alone(self, heap):
        other = HeapFile(heap._pool, TableSchema.build("other", [("v", "int")]))
        foreign = other.insert((7,))
        heap.insert((1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.update(foreign, (None, None))
        with pytest.raises(RecordNotFoundError):
            heap.delete(foreign)
        assert list(other.scan_rows()) == [(7,)]

    def test_negative_slot_raises(self, heap):
        rid = heap.insert((1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.fetch(RecordId(page_no=rid.page_no, slot_no=-1))

    @pytest.mark.parametrize("bad", [-1, -(1 << 16), -(5 << 16 | 3), 99 << 16, 1 << 40])
    def test_negative_or_foreign_integer_raises_from_every_entry_point(self, heap, bad):
        rid = heap.insert((1, "a"))
        for call in (
            heap.fetch,
            heap.delete,
            lambda r: heap.update(r, (2, "b")),
            lambda r: heap.fetch_many([rid, r]),
        ):
            with pytest.raises(RecordNotFoundError):
                call(bad)
        assert heap.fetch(rid) == (1, "a") and len(heap) == 1

    def test_error_names_page_and_slot(self, heap):
        heap.insert((1, "a"))
        with pytest.raises(RecordNotFoundError, match=r"page=99, slot=7"):
            heap.fetch(99 << 16 | 7)

    def test_delete_on_unknown_page_raises_record_not_found(self, heap):
        heap.insert((1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.delete(RecordId(page_no=99, slot_no=0))

    def test_update_beyond_the_slot_directory_raises(self, heap):
        rid = heap.insert((1, "a"))
        with pytest.raises(RecordNotFoundError):
            heap.update(RecordId(page_no=rid.page_no, slot_no=50), (2, "b"))
        assert heap.fetch(rid) == (1, "a")


class TestDeleteUpdate:
    def test_delete_tombstones_record(self, heap):
        rid = heap.insert((1, "a"))
        heap.delete(rid)
        assert len(heap) == 0
        with pytest.raises(RecordNotFoundError):
            heap.fetch(rid)

    def test_double_delete_raises(self, heap):
        rid = heap.insert((1, "a"))
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.delete(rid)

    def test_update_in_place_when_smaller(self, heap):
        rid = heap.insert((1, "abcdef"))
        new_rid = heap.update(rid, (1, "abc"))
        assert new_rid == rid
        assert heap.fetch(rid) == (1, "abc")

    def test_update_moves_when_larger(self, heap):
        rid = heap.insert((1, "a"))
        new_rid = heap.update(rid, (1, "a" * 100))
        assert heap.fetch(new_rid) == (1, "a" * 100)
        assert len(heap) == 1

    def test_update_deleted_record_raises(self, heap):
        rid = heap.insert((1, "a"))
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.update(rid, (2, "b"))


class TestScan:
    def test_scan_yields_all_live_rows_in_order(self, heap):
        for i in range(25):
            heap.insert((i, f"row{i}"))
        rows = [row for _, row in heap.scan()]
        assert rows == [(i, f"row{i}") for i in range(25)]

    def test_scan_skips_deleted(self, heap):
        rids = [heap.insert((i, "x")) for i in range(5)]
        heap.delete(rids[2])
        ids = [row[0] for row in heap.scan_rows()]
        assert ids == [0, 1, 3, 4]

    def test_scan_rids_resolve(self, heap):
        for i in range(8):
            heap.insert((i, "v"))
        for rid, row in heap.scan():
            assert heap.fetch(rid) == row

    def test_null_values_roundtrip(self, heap):
        rid = heap.insert((None, None))
        assert heap.fetch(rid) == (None, None)
