"""Tests for the B+tree index."""

import random

import pytest

from repro.errors import DuplicateKeyError, StorageError
from repro.storage.btree import BTreeIndex
from repro.storage.row import RecordId


def rid(n: int) -> RecordId:
    return RecordId(page_no=n // 100, slot_no=n % 100)


@pytest.fixture()
def index() -> BTreeIndex:
    return BTreeIndex("idx", order=8)


def load(index: BTreeIndex, keys) -> BTreeIndex:
    """``index`` bulk-loaded with ``key -> rid(key)`` for every key."""
    index.bulk_load((key, rid(key)) for key in sorted(keys))
    return index


class TestLoadSearch:
    def test_search_missing_key_returns_empty(self, index):
        assert index.search(42) == []

    def test_load_then_search(self, index):
        index.bulk_load([(5, rid(1))])
        assert index.search(5) == [rid(1)]

    def test_duplicate_keys_come_back_in_load_order(self, index):
        index.bulk_load([(5, rid(2)), (5, rid(1))])
        assert index.search(5) == [rid(2), rid(1)]

    def test_unique_index_rejects_duplicates(self):
        index = BTreeIndex("u", unique=True)
        with pytest.raises(DuplicateKeyError):
            index.bulk_load([(1, rid(1)), (1, rid(2))])

    def test_keys_out_of_order_rejected(self, index):
        with pytest.raises(StorageError, match="out of order"):
            index.bulk_load([(2, rid(2)), (1, rid(1))])

    def test_a_large_load_builds_levels_and_stays_searchable(self, index):
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        load(index, keys)
        assert index.height() > 1
        for key in (0, 17, 250, 499):
            assert index.search(key) == [rid(key)]
        index.validate()

    def test_a_load_replaces_the_contents(self, index):
        load(index, range(50))
        load(index, [3])
        assert len(index) == 1 and index.search(7) == []

    def test_string_keys(self, index):
        index.bulk_load([("alpha", rid(1)), ("beta", rid(2))])
        assert index.search("alpha") == [rid(1)]

    def test_search_many(self, index):
        load(index, range(10))
        assert index.search_many([2, 5, 9]) == [rid(2), rid(5), rid(9)]


    def test_an_empty_load_is_an_empty_index(self, index):
        load(index, range(20))
        index.bulk_load([])
        assert len(index) == 0 and index.height() == 1
        assert index.search(3) == [] and list(index.items()) == []
        index.validate()

    def test_search_many_skips_missing_keys_and_keeps_key_order(self, index):
        index.bulk_load([(1, rid(1)), (3, rid(3)), (3, rid(4)), (5, rid(5))])
        assert index.search_many([5, 2, 3, 9]) == [rid(5), rid(3), rid(4)]

    def test_a_unique_load_over_many_leaves_validates(self):
        index = load(BTreeIndex("u", order=4, unique=True), range(300))
        assert index.height() > 2 and len(index) == 300
        assert index.search_many([0, 150, 299]) == [rid(0), rid(150), rid(299)]
        index.validate()

    def test_an_equal_key_run_across_leaves_comes_back_whole(self, index):
        index.bulk_load([(1, rid(0))] + [(2, rid(n)) for n in range(1, 30)] + [(3, rid(30))])
        assert index.search(2) == [rid(n) for n in range(1, 30)]
        assert [k for k, _ in index.range_search(2, 2)] == [2] * 29


class TestRemap:
    """A rewritten heap moves the rids; keys and the order within a key stay."""

    def test_entries_follow_their_records(self, index):
        index.bulk_load([(key, rid(n)) for n, key in enumerate([1, 1, 2, 3, 3, 3])])
        moved = {rid(n): rid(50 + (n * 7) % 6) for n in range(6)}
        index.remap(moved)
        assert index.search(1) == [moved[rid(0)], moved[rid(1)]]
        assert index.search(3) == [moved[rid(3)], moved[rid(4)], moved[rid(5)]]
        assert index.rids() == [moved[rid(n)] for n in range(6)]
        index.validate()

    def test_a_rid_the_mapping_lacks_is_an_error(self, index):
        load(index, range(3))
        with pytest.raises(KeyError):
            index.remap({rid(0): rid(9)})


class TestRangeSearch:
    def test_string_key_ranges(self, index):
        words = ["apple", "banana", "cherry", "date", "elder", "fig"]
        index.bulk_load((word, rid(n)) for n, word in enumerate(words))
        assert [k for k, _ in index.range_search("b", "e")] == ["banana", "cherry", "date"]


    def test_full_range_in_key_order(self, index):
        keys = [7, 3, 9, 1, 5]
        load(index, keys)
        assert [k for k, _ in index.items()] == sorted(keys)

    def test_bounded_range(self, index):
        load(index, range(20))
        result = [k for k, _ in index.range_search(5, 10)]
        assert result == [5, 6, 7, 8, 9, 10]

    def test_exclusive_bounds(self, index):
        load(index, range(10))
        result = [
            k for k, _ in index.range_search(2, 6, include_low=False, include_high=False)
        ]
        assert result == [3, 4, 5]

    def test_open_ended_ranges(self, index):
        load(index, range(10))
        assert [k for k, _ in index.range_search(low=7)] == [7, 8, 9]
        assert [k for k, _ in index.range_search(high=2)] == [0, 1, 2]

    def test_keys_iterator(self, index):
        load(index, (3, 1, 2))
        assert list(index.keys()) == [1, 2, 3]


class TestValidation:
    def test_order_too_small_rejected(self):
        with pytest.raises(StorageError):
            BTreeIndex("bad", order=2)

    def test_validate_detects_corruption(self, index):
        load(index, range(100))
        # Corrupt the recorded count deliberately.
        index._count += 1
        with pytest.raises(StorageError):
            index.validate()
