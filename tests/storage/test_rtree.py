"""Tests for the R-tree spatial index and Rect geometry."""

import math
import random

import pytest

from repro.errors import StorageError
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

    def test_scaled(self):
        rect = Rect(0, 0, 2, 2).scaled(1.5)
        assert rect.width == pytest.approx(3.0)
        assert rect.center == (1.0, 1.0)
        with pytest.raises(StorageError):
            Rect(0, 0, 1, 1).scaled(0)

    def test_tuple_roundtrip(self):
        rect = Rect(1, 2, 3, 4)
        assert Rect.from_tuple(rect.as_tuple()) == rect


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


class TestRTreeSearch:
    def test_empty_tree_returns_nothing(self):
        tree = RTreeIndex("r")
        assert tree.search(Rect(0, 0, 10, 10)) == []

    def test_load_and_search_single(self):
        tree = RTreeIndex("r")
        tree.bulk_load([(Rect(0, 0, 1, 1), rid(1))])
        assert tree.search(Rect(0.5, 0.5, 2, 2)) == [rid(1)]
        assert tree.search(Rect(5, 5, 6, 6)) == []

    def test_accepts_tuple_bboxes(self):
        tree = RTreeIndex("r")
        tree.bulk_load([((0, 0, 1, 1), rid(1))])
        assert tree.search((0, 0, 2, 2)) == [rid(1)]

    def test_height_grows_with_size(self):
        tree = RTreeIndex("r", max_entries=4)
        assert tree.height() == 1
        tree.bulk_load(_random_entries(200, seed=2))
        assert tree.height() >= 3

    def test_search_changes_nothing_but_its_counter(self):
        # Replicas share a shard's index across their locks: a probe must
        # never restructure.
        tree = RTreeIndex("r", max_entries=4)
        tree.bulk_load(_random_entries(50, seed=9))
        packed = tree._packed
        before = [bytes(column) for column in packed[:5]]
        assert len(tree.search(Rect(0, 0, 1001, 501))) == 50
        tree.search(Rect(10, 10, 200, 300))
        assert tree._packed is packed and [bytes(c) for c in packed[:5]] == before
        assert tree.lookups == 2


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
        tree.bulk_load([(Rect(0, 0, 1, 1), rid(999))])
        tree.bulk_load(_random_entries(10, seed=4))
        assert len(tree) == 10
        assert rid(999) not in tree.rids()

    def test_all_entries(self):
        entries = _random_entries(64, seed=6)
        tree = RTreeIndex("r", max_entries=8)
        tree.bulk_load(entries)
        assert sorted((rect.as_tuple(), r) for rect, r in tree.all_entries()) == sorted(
            (rect.as_tuple(), r) for rect, r in entries
        )
        assert [r for _, r in tree.all_entries()] == tree.rids()


class TestRTreeRemap:
    """A rewritten heap moves the rids; the packed tree keeps its shape."""

    def test_answers_follow_their_records_in_the_same_order(self):
        entries = _random_entries(120, seed=12)
        tree = RTreeIndex("r", max_entries=6)
        tree.bulk_load(entries)
        query = Rect(100, 50, 700, 400)
        before, order = tree.search(query), tree.rids()
        moved = {r: rid(5000 + n) for n, r in enumerate(reversed(order))}
        tree.remap(moved)
        assert tree.search(query) == [moved[r] for r in before]
        assert tree.rids() == [moved[r] for r in order]
        tree.validate()

    def test_remap_leaves_the_boxes_alone(self):
        tree = RTreeIndex("r", max_entries=4)
        tree.bulk_load(_random_entries(30, seed=13))
        boxes = [bytes(column) for column in tree._packed[:4]]
        tree.remap({r: r + 1 for r in tree.rids()})
        assert [bytes(column) for column in tree._packed[:4]] == boxes


class TestRTreeLoadChecks:
    @pytest.mark.parametrize(
        "bbox", [(0, 0, 1), (1, 0, 0, 1), (0.0, math.nan, 1.0, 1.0)], ids=["arity", "inverted", "nan"]
    )
    def test_a_bad_box_refuses_the_whole_load(self, bbox):
        tree = RTreeIndex("r")
        tree.bulk_load([((0, 0, 1, 1), rid(1))])
        with pytest.raises(StorageError):
            tree.bulk_load([((0, 0, 2, 2), rid(2)), (bbox, rid(3))])
        assert tree.rids() == [rid(1)]  # the old tree still stands

    def test_an_empty_tree_validates(self):
        tree = RTreeIndex("r")
        tree.validate()
        assert tree.rids() == [] and list(tree.all_entries()) == []


class TestRTreeConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(StorageError):
            RTreeIndex("r", max_entries=2)

    def test_validate_detects_an_entry_outside_its_leaf(self):
        tree = RTreeIndex("r", max_entries=4)
        tree.bulk_load(_random_entries(40, seed=11))
        tree.validate()
        *_, first = tree._packed
        tree._packed[2][first] += 5000.0  # an entry's xmax past every node's
        with pytest.raises(StorageError, match="does not contain"):
            tree.validate()
