"""Tests for the B-tree index (one sorted array of keys beside the rids)."""

import random

import pytest

from array import array
from operator import itemgetter

from repro.errors import DuplicateKeyError, StorageError
from repro.storage.btree import BTreeIndex


def rid(n: int) -> int:
    """Record ``n % 100`` of page ``n // 100``."""
    return n // 100 << 16 | n % 100


@pytest.fixture()
def index() -> BTreeIndex:
    return BTreeIndex("idx")


def load(index: BTreeIndex, keys) -> BTreeIndex:
    """``index`` bulk-loaded with ``key -> rid(key)`` for every key."""
    keys = list(keys)
    index.bulk_load(keys, [rid(key) for key in keys])
    return index


def reference_entries(keys, rids) -> tuple[list, array]:
    """What a load of the column ``keys`` must store, built from pairs: the
    non-NULL ``(key, rid)`` pairs sorted by key, equal keys in column order."""
    pairs = sorted(
        ((key, r) for key, r in zip(keys, rids) if key is not None), key=itemgetter(0)
    )
    return [key for key, _ in pairs], array("q", [r for _, r in pairs])


class TestLoadSearch:
    def test_search_missing_key_returns_empty(self, index):
        assert index.search(42) == []

    def test_load_then_search(self, index):
        index.bulk_load([5], [rid(1)])
        assert index.search(5) == [rid(1)]

    def test_duplicate_keys_come_back_in_column_order(self, index):
        index.bulk_load([5, 4, 5], [rid(2), rid(9), rid(1)])
        assert index.search(5) == [rid(2), rid(1)]

    def test_unique_index_rejects_duplicates(self):
        index = load(BTreeIndex("u", unique=True), [7, 8])
        with pytest.raises(DuplicateKeyError, match="duplicate key 1"):
            index.bulk_load([3, 1, 2, 1], [rid(1), rid(2), rid(3), rid(4)])
        assert index._keys == [7, 8] and index.rids() == [rid(7), rid(8)]  # as it was

    def test_the_load_orders_the_column_and_skips_its_nulls(self, index):
        keys = [4, None, 2, 9, None, 2, 0]
        rids = [rid(n) for n in range(len(keys))]
        index.bulk_load(keys, rids)
        assert (index._keys, index._rids) == reference_entries(keys, rids)
        assert index._keys == [0, 2, 2, 4, 9]
        assert index.search(2) == [rid(2), rid(5)]
        index.validate()

    def test_a_unique_index_takes_nulls_beside_distinct_keys(self):
        index = BTreeIndex("u", unique=True)
        index.bulk_load([None, 3, None, 1], [rid(0), rid(1), rid(2), rid(3)])
        assert index.rids() == [rid(3), rid(1)]

    def test_a_large_load_stays_searchable(self, index):
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        load(index, keys)
        assert len(index) == 500
        for key in (0, 17, 250, 499):
            assert index.search(key) == [rid(key)]
        index.validate()

    def test_a_load_replaces_the_contents(self, index):
        load(index, range(50))
        load(index, [3])
        assert len(index) == 1 and index.search(7) == []

    def test_string_keys(self, index):
        index.bulk_load(["beta", "alpha"], [rid(2), rid(1)])
        assert index.search("alpha") == [rid(1)]

    def test_search_many(self, index):
        load(index, range(10))
        assert index.search_many([2, 5, 9]) == [rid(2), rid(5), rid(9)]


    def test_an_empty_load_is_an_empty_index(self, index):
        load(index, range(20))
        index.bulk_load([], [])
        assert len(index) == 0 and index.rids() == [] and list(index.keys()) == []
        assert index.search(3) == [] and index.search_many([3, 4]) == []
        index.validate()

    def test_search_many_skips_missing_keys_and_keeps_key_order(self, index):
        index.bulk_load([1, 3, 3, 5], [rid(1), rid(3), rid(4), rid(5)])
        assert index.search_many([5, 2, 3, 9]) == [rid(5), rid(3), rid(4)]

    def test_a_300_key_unique_load_validates_and_finds_every_key(self):
        index = load(BTreeIndex("u", unique=True), range(300))
        index.validate()
        assert len(index) == 300
        assert index.search_many(range(300)) == [rid(key) for key in range(300)]
        assert index.search_many([299, 0, 150, 300, -1, 0]) == [rid(299), rid(0), rid(150), rid(0)]

    def test_an_equal_key_run_comes_back_whole(self, index):
        index.bulk_load([1] + [2] * 29 + [3], [rid(n) for n in range(31)])
        assert index.search(2) == [rid(n) for n in range(1, 30)]
        assert index.search_many([3, 2, 1]) == [rid(30)] + [rid(n) for n in range(1, 30)] + [rid(0)]

    def test_search_many_repeats_a_repeated_key(self, index):
        index.bulk_load([1, 1, 4], [rid(1), rid(2), rid(4)])
        assert index.search_many([1, 4, 1]) == [rid(1), rid(2), rid(4), rid(1), rid(2)]


class TestRemap:
    """A rewritten heap moves the rids; keys and the order within a key stay."""

    def test_entries_follow_their_records(self, index):
        index.bulk_load([1, 1, 2, 3, 3, 3], [rid(n) for n in range(6)])
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


class TestKeys:
    def test_string_keys_in_order(self, index):
        words = ["apple", "banana", "cherry", "date"]
        index.bulk_load(words, [rid(n) for n in range(len(words))])
        assert list(index.keys()) == words
        assert index.search_many(["cherry", "b", "apple"]) == [rid(2), rid(0)]

    def test_keys_iterator(self, index):
        load(index, (3, 1, 2))
        assert list(index.keys()) == [1, 2, 3]

    def test_keys_are_distinct_and_rids_are_every_entry(self, index):
        index.bulk_load([1, 1, 2], [rid(5), rid(3), rid(4)])
        assert list(index.keys()) == [1, 2]
        assert index.rids() == [rid(5), rid(3), rid(4)]


class TestValidation:
    def test_validate_detects_keys_planted_out_of_order(self, index):
        load(index, range(100))
        index._keys[40], index._keys[41] = index._keys[41], index._keys[40]
        with pytest.raises(StorageError, match="out of order"):
            index.validate()

    def test_validate_detects_a_duplicate_planted_in_a_unique_index(self):
        index = load(BTreeIndex("u", unique=True), range(100))
        index._keys[41] = 40
        with pytest.raises(DuplicateKeyError):
            index.validate()

    def test_validate_detects_keys_and_rids_of_different_lengths(self, index):
        load(index, range(100))
        index._rids.pop()
        with pytest.raises(StorageError, match="differ in length"):
            index.validate()
