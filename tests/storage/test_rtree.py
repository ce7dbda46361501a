"""Tests for the R-tree spatial index and Rect geometry."""

import math
import random

import pytest

from repro.errors import StorageError
from repro.storage import rtree
from repro.storage.row import RecordId
from repro.storage.rtree import Rect, RTreeIndex


def rid(n: int) -> RecordId:
    return RecordId(page_no=n // 1000, slot_no=n % 1000)


RECORDED_ORDER = [
    rid(n)
    for n in (
        143, 119, 464, 440, 429, 95, 71, 121, 405, 195, 516, 158, 479, 269, 590, 232, 553,
        193, 514, 180, 156, 501, 477, 503, 169, 145, 490, 466, 132, 108, 453, 577, 243, 219,
        564, 540, 206, 182, 527, 304, 267, 588, 230, 551, 280, 256,
    )
]


class TestRect:
    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(StorageError):
            Rect(5, 0, 1, 10)

    @pytest.mark.parametrize("position", range(4))
    def test_nan_coordinate_rejected_infinite_ones_are_legal(self, position):
        coords = [0.0, 0.0, 1.0, 1.0]
        coords[position] = math.nan
        with pytest.raises(StorageError):
            Rect(*coords)
        with pytest.raises(StorageError):
            Rect.from_tuple(coords)
        assert Rect(-math.inf, -math.inf, math.inf, math.inf).contains(Rect(0, 0, 1, 1))

    def test_area_width_height(self):
        rect = Rect(0, 0, 4, 3)
        assert rect.width == 4
        assert rect.height == 3
        assert rect.area == 12
        assert rect.center == (2.0, 1.5)

    def test_intersects_includes_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))

    def test_contains(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains(Rect(2, 2, 8, 8))
        assert not outer.contains(Rect(2, 2, 11, 8))
        assert outer.contains_point(5, 5)
        assert not outer.contains_point(11, 5)

    def test_union_and_intersection(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 3, 3)
        assert a.union(b) == Rect(0, 0, 3, 3)
        assert a.intersection(b) == Rect(1, 1, 2, 2)
        assert a.intersection(Rect(5, 5, 6, 6)) is None

    def test_enlargement(self):
        a = Rect(0, 0, 2, 2)
        assert a.enlargement(Rect(0, 0, 1, 1)) == 0.0
        assert a.enlargement(Rect(0, 0, 4, 2)) == pytest.approx(4.0)

    def test_scaled(self):
        rect = Rect(0, 0, 2, 2).scaled(1.5)
        assert rect.width == pytest.approx(3.0)
        assert rect.center == (1.0, 1.0)
        with pytest.raises(StorageError):
            Rect(0, 0, 1, 1).scaled(0)

    def test_translated(self):
        assert Rect(0, 0, 1, 1).translated(5, 3) == Rect(5, 3, 6, 4)

    def test_tuple_roundtrip(self):
        rect = Rect(1, 2, 3, 4)
        assert Rect.from_tuple(rect.as_tuple()) == rect

    def test_from_point(self):
        rect = Rect.from_point(5, 5, 0.5)
        assert rect == Rect(4.5, 4.5, 5.5, 5.5)


def _random_entries(count: int, seed: int = 0) -> list[tuple[Rect, RecordId]]:
    rng = random.Random(seed)
    entries = []
    for i in range(count):
        x = rng.uniform(0, 1000)
        y = rng.uniform(0, 500)
        entries.append((Rect(x, y, x + 1, y + 1), rid(i)))
    return entries


def _brute_force(entries, query: Rect) -> set[RecordId]:
    return {r for rect, r in entries if rect.intersects(query)}


class TestRTreeInsert:
    def test_empty_tree_returns_nothing(self):
        tree = RTreeIndex("r")
        assert tree.search(Rect(0, 0, 10, 10)) == []

    def test_insert_and_search_single(self):
        tree = RTreeIndex("r")
        tree.insert(Rect(0, 0, 1, 1), rid(1))
        assert tree.search(Rect(0.5, 0.5, 2, 2)) == [rid(1)]
        assert tree.search(Rect(5, 5, 6, 6)) == []

    def test_incremental_inserts_match_brute_force(self):
        entries = _random_entries(400, seed=1)
        tree = RTreeIndex("r", max_entries=8)
        for rect, r in entries:
            tree.insert(rect, r)
        tree.validate()
        for query in (Rect(0, 0, 100, 100), Rect(500, 200, 700, 400), Rect(999, 499, 1000, 500)):
            assert set(tree.search(query)) == _brute_force(entries, query)

    def test_accepts_tuple_bboxes(self):
        tree = RTreeIndex("r")
        tree.insert((0, 0, 1, 1), rid(1))
        assert tree.search((0, 0, 2, 2)) == [rid(1)]

    def test_height_grows_with_size(self):
        tree = RTreeIndex("r", max_entries=4)
        assert tree.height() == 1
        tree.bulk_load(_random_entries(200, seed=2))
        assert tree.height() >= 3

    def test_inserts_wait_in_the_pending_list_until_a_write_repacks(self, monkeypatch):
        monkeypatch.setattr(rtree, "REPACK_THRESHOLD", 16)
        entries = _random_entries(40, seed=8)
        tree = RTreeIndex("r", max_entries=4)
        for rect, r in entries[:16]:
            tree.insert(rect, r)
        assert tree.height() == 1 and len(tree._pending) == 16
        tree.insert(*entries[16])  # the write that outgrows the threshold packs
        assert tree.height() >= 2 and tree._pending == []
        for rect, r in entries[17:]:
            tree.insert(rect, r)
        tree.validate()
        everything = Rect(0, 0, 1001, 501)
        assert set(tree.search(everything)) == {r for _, r in entries}

    def test_search_changes_nothing_but_its_counters(self, monkeypatch):
        # Replicas share a shard's index across their locks: a probe must
        # never restructure, however much is pending.
        monkeypatch.setattr(rtree, "REPACK_THRESHOLD", 8)
        tree = RTreeIndex("r", max_entries=4)
        tree.bulk_load(_random_entries(50, seed=9))
        for rect, r in _random_entries(4, seed=10):
            tree.insert(rect, rid(1000 + r))
        assert tree.delete(*_random_entries(50, seed=9)[0])
        packed, pending, dead = tree._packed, list(tree._pending), tree._dead
        assert len(pending) == 4 and dead == 1
        before = [bytes(column) for column in packed[:5]]
        tree.search(Rect(0, 0, 1001, 501))
        tree.search_entries(Rect(0, 0, 1001, 501))
        assert tree._packed is packed and [bytes(c) for c in packed[:5]] == before
        assert (tree._pending, tree._dead) == (pending, dead)


class TestRTreeBulkLoad:
    def test_bulk_load_matches_brute_force(self):
        entries = _random_entries(2000, seed=3)
        tree = RTreeIndex("r", max_entries=16)
        tree.bulk_load(entries)
        tree.validate()
        assert len(tree) == 2000
        for query in (Rect(0, 0, 50, 50), Rect(100, 100, 400, 300), Rect(900, 0, 1000, 500)):
            assert set(tree.search(query)) == _brute_force(entries, query)

    def test_bulk_load_returns_rids_in_the_order_the_node_tree_did(self):
        # Recorded from the node-object STR tree this index replaced (PR 21's
        # parent): responses are byte-identical only if the order is.
        entries = [
            ((x := (i * 7919) % 1000, y := (i * 104729) % 500, x + i % 7, y + i % 3), rid(i))
            for i in range(600)
        ]
        tree = RTreeIndex("r", max_entries=8)
        tree.bulk_load(entries)
        assert tree.height() == 4
        assert tree.search(Rect(200, 100, 420, 260)) == RECORDED_ORDER

    def test_bulk_load_empty(self):
        tree = RTreeIndex("r")
        tree.bulk_load([])
        assert len(tree) == 0
        assert tree.search(Rect(0, 0, 1, 1)) == []

    def test_bulk_load_replaces_existing_contents(self):
        tree = RTreeIndex("r")
        tree.insert(Rect(0, 0, 1, 1), rid(999))
        tree.bulk_load(_random_entries(10, seed=4))
        assert len(tree) == 10

    def test_search_entries_returns_bboxes(self):
        entries = _random_entries(50, seed=5)
        tree = RTreeIndex("r")
        tree.bulk_load(entries)
        results = tree.search_entries(Rect(0, 0, 1000, 500))
        assert len(results) == 50
        assert all(isinstance(rect, Rect) for rect, _ in results)

    def test_all_entries(self):
        entries = _random_entries(64, seed=6)
        tree = RTreeIndex("r", max_entries=8)
        tree.bulk_load(entries)
        assert len(list(tree.all_entries())) == 64


class TestRTreeDelete:
    def test_delete_existing(self):
        tree = RTreeIndex("r")
        rect = Rect(0, 0, 1, 1)
        tree.insert(rect, rid(1))
        assert tree.delete(rect, rid(1)) is True
        assert tree.search(Rect(0, 0, 2, 2)) == []
        assert len(tree) == 0

    def test_delete_missing_returns_false(self):
        tree = RTreeIndex("r")
        assert tree.delete(Rect(0, 0, 1, 1), rid(1)) is False

    def test_delete_requires_exact_match(self):
        tree = RTreeIndex("r")
        tree.insert(Rect(0, 0, 1, 1), rid(1))
        assert tree.delete(Rect(0, 0, 1, 2), rid(1)) is False
        assert tree.delete(Rect(0, 0, 1, 1), rid(2)) is False

    def test_delete_from_bulk_loaded_tree(self):
        entries = _random_entries(100, seed=7)
        tree = RTreeIndex("r", max_entries=8)
        tree.bulk_load(entries)
        rect, target = entries[42]
        assert tree.delete(rect, target) is True
        assert target not in set(tree.search(rect))


class TestRTreeConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(StorageError):
            RTreeIndex("r", max_entries=2)

    def test_validate_detects_count_mismatch(self):
        tree = RTreeIndex("r")
        tree.insert(Rect(0, 0, 1, 1), rid(1))
        tree._count = 3
        with pytest.raises(StorageError):
            tree.validate()
