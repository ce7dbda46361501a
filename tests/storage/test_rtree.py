"""Tests for the R-tree spatial index and Rect geometry."""

import math
import random

import pytest

from repro.errors import StorageError
from repro.storage.rtree import DEFAULT_MAX_ENTRIES, Rect, RTreeIndex


def rid(n: int) -> int:
    """Record ``n % 1000`` of page ``n // 1000``."""
    return n // 1000 << 16 | n % 1000


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


def _random_column(count: int, seed: int = 0) -> tuple[list[tuple], list[int]]:
    """A BBOX column of ``count`` unit boxes and its rids."""
    rng = random.Random(seed)
    boxes = []
    for _ in range(count):
        x = rng.uniform(0, 1000)
        y = rng.uniform(0, 500)
        boxes.append((x, y, x + 1, y + 1))
    return boxes, [rid(i) for i in range(count)]


def reference_box(bbox) -> tuple[float, float, float, float]:
    """The per-entry check the load must agree with: one box at a time."""
    if type(bbox) is not tuple or not all(type(value) is float for value in bbox):
        raise StorageError(f"bbox must be a tuple of floats, got {bbox!r}")
    if len(bbox) != 4:
        raise StorageError(f"bbox must have 4 values, got {bbox!r}")
    x0, y0, x1, y1 = bbox
    if not (x0 <= x1 and y0 <= y1):
        raise StorageError(f"degenerate rectangle: {bbox!r}")
    return bbox


def reference_packed(boxes, rids, *, max_entries: int = DEFAULT_MAX_ENTRIES) -> tuple:
    """The packed columns of a tree over the ``(box, rid)`` pairs whose box
    is not NULL, each box checked one by one."""
    checked = [(*reference_box(box), r) for box, r in zip(boxes, rids) if box is not None]
    *columns, kept = map(list, zip(*checked)) if checked else ([], [], [], [], [])
    tree = RTreeIndex("reference", max_entries=max_entries)
    tree._pack(columns, kept)
    return tree._packed


def _brute_force(boxes, rids, query: Rect) -> set[int]:
    return {r for box, r in zip(boxes, rids) if Rect(*box).intersects(query)}


class TestRTreeSearch:
    def test_empty_tree_returns_nothing(self):
        tree = RTreeIndex("r")
        assert tree.search(Rect(0, 0, 10, 10)) == []

    def test_load_and_search_single(self):
        tree = RTreeIndex("r")
        tree.bulk_load([(0.0, 0.0, 1.0, 1.0)], [rid(1)])
        assert tree.search(Rect(0.5, 0.5, 2, 2)) == [rid(1)]
        assert tree.search(Rect(5, 5, 6, 6)) == []

    def test_accepts_tuple_bboxes(self):
        tree = RTreeIndex("r")
        tree.bulk_load([(0.0, 0.0, 1.0, 1.0)], [rid(1)])
        assert tree.search((0, 0, 2, 2)) == [rid(1)]

    def test_height_grows_with_size(self):
        tree = RTreeIndex("r", max_entries=4)
        assert tree.height() == 1
        tree.bulk_load(*_random_column(200, seed=2))
        assert tree.height() >= 3

    def test_search_changes_nothing(self):
        # Replicas share a shard's index across their locks: a probe must
        # never restructure.
        tree = RTreeIndex("r", max_entries=4)
        tree.bulk_load(*_random_column(50, seed=9))
        packed = tree._packed
        before = [bytes(column) for column in packed[:5]]
        assert len(tree.search(Rect(0, 0, 1001, 501))) == 50
        tree.search(Rect(10, 10, 200, 300))
        assert tree._packed is packed and [bytes(c) for c in packed[:5]] == before


class TestRTreeBulkLoad:
    def test_bulk_load_matches_brute_force(self):
        boxes, rids = _random_column(2000, seed=3)
        tree = RTreeIndex("r", max_entries=16)
        tree.bulk_load(boxes, rids)
        tree.validate()
        assert len(tree) == 2000
        for query in (Rect(0, 0, 50, 50), Rect(100, 100, 400, 300), Rect(900, 0, 1000, 500)):
            assert set(tree.search(query)) == _brute_force(boxes, rids, query)

    def test_bulk_load_returns_rids_in_the_order_the_node_tree_did(self):
        # Recorded from the node-object STR tree this index replaced (PR 21's
        # parent): responses are byte-identical only if the order is.
        boxes = [
            (float(x := (i * 7919) % 1000), float(y := (i * 104729) % 500),
             float(x + i % 7), float(y + i % 3))
            for i in range(600)
        ]
        tree = RTreeIndex("r", max_entries=8)
        tree.bulk_load(boxes, [rid(i) for i in range(600)])
        assert tree.height() == 4
        assert tree.search(Rect(200, 100, 420, 260)) == RECORDED_ORDER

    def test_bulk_load_empty(self):
        tree = RTreeIndex("r")
        tree.bulk_load([], [])
        assert len(tree) == 0
        assert tree.search(Rect(0, 0, 1, 1)) == []

    def test_bulk_load_replaces_existing_contents(self):
        tree = RTreeIndex("r")
        tree.bulk_load([(0.0, 0.0, 1.0, 1.0)], [rid(999)])
        tree.bulk_load(*_random_column(10, seed=4))
        assert len(tree) == 10
        assert rid(999) not in tree.rids()

    def test_a_null_box_is_not_indexed(self):
        boxes = [None, (0.0, 0.0, 1.0, 1.0), None, (2.0, 2.0, 3.0, 3.0), None]
        rids = [rid(n) for n in range(5)]
        tree = RTreeIndex("r")
        tree.bulk_load(boxes, rids)
        assert tree._packed == reference_packed(boxes, rids)
        assert tree.search(Rect(0, 0, 3, 3)) == [rid(1), rid(3)]
        tree.bulk_load([None, None], [rid(0), rid(1)])
        assert len(tree) == 0 and tree.search(Rect(0, 0, 3, 3)) == []

    def test_all_entries(self):
        boxes, rids = _random_column(64, seed=6)
        tree = RTreeIndex("r", max_entries=8)
        tree.bulk_load(boxes, rids)
        assert sorted((rect.as_tuple(), r) for rect, r in tree.all_entries()) == sorted(
            zip(boxes, rids)
        )
        assert [r for _, r in tree.all_entries()] == tree.rids()


class TestRTreeRemap:
    """A rewritten heap moves the rids; the packed tree keeps its shape."""

    def test_answers_follow_their_records_in_the_same_order(self):
        tree = RTreeIndex("r", max_entries=6)
        tree.bulk_load(*_random_column(120, seed=12))
        query = Rect(100, 50, 700, 400)
        before, order = tree.search(query), tree.rids()
        moved = {r: rid(5000 + n) for n, r in enumerate(reversed(order))}
        tree.remap(moved)
        assert tree.search(query) == [moved[r] for r in before]
        assert tree.rids() == [moved[r] for r in order]
        tree.validate()

    def test_remap_leaves_the_boxes_alone(self):
        tree = RTreeIndex("r", max_entries=4)
        tree.bulk_load(*_random_column(30, seed=13))
        boxes = [bytes(column) for column in tree._packed[:4]]
        tree.remap({r: r + 1 for r in tree.rids()})
        assert [bytes(column) for column in tree._packed[:4]] == boxes


class TestRTreeLoadChecks:
    @pytest.mark.parametrize(
        "bbox",
        [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (0.0, math.nan, 1.0, 1.0), (0, 0, 1, 1)],
        ids=["arity", "inverted", "nan", "ints"],
    )
    def test_a_bad_box_refuses_the_whole_load(self, bbox):
        tree = RTreeIndex("r")
        tree.bulk_load([(0.0, 0.0, 1.0, 1.0)], [rid(1)])
        with pytest.raises(StorageError):
            tree.bulk_load([(0.0, 0.0, 2.0, 2.0), bbox], [rid(2), rid(3)])
        assert tree.rids() == [rid(1)]  # the old tree still stands

    @pytest.mark.parametrize(
        "bbox, message",
        [
            ((0.0, math.nan, 1.0, 1.0), "degenerate rectangle: (0.0, nan, 1.0, 1.0)"),
            ((1.0, 0.0, 0.0, 1.0), "degenerate rectangle: (1.0, 0.0, 0.0, 1.0)"),
            ((0.0, 0.0, 1.0), "bbox must have 4 values, got (0.0, 0.0, 1.0)"),
            (("3", 0.0, 1.0, 1.0), "bbox must be a tuple of floats, got ('3', 0.0, 1.0, 1.0)"),
        ],
        ids=["nan", "inverted", "arity", "string"],
    )
    def test_the_bulk_check_refuses_what_the_entry_check_refused(self, bbox, message):
        """The load checks a column at a time, yet the refusal is the
        per-entry one's, naming the first bad box."""
        boxes = [(0.0, 0.0, 2.0, 2.0), None, bbox, (5.0, 5.0, 4.0, 4.0)]
        with pytest.raises(StorageError) as refused:
            RTreeIndex("r").bulk_load(boxes, [rid(1), rid(2), rid(3), rid(4)])
        assert str(refused.value) == message
        with pytest.raises(StorageError) as reference:
            reference_packed(boxes, [rid(1), rid(2), rid(3), rid(4)])
        assert str(reference.value) == message

    def test_a_coordinate_that_is_no_float_is_refused_by_name(self):
        with pytest.raises(StorageError, match=r"floats, got \('a', 0.0, 1.0, 1.0\)"):
            RTreeIndex("r").bulk_load([(0.0, 0.0, 1.0, 1.0), ("a", 0.0, 1.0, 1.0)], [rid(1), rid(2)])

    @pytest.mark.parametrize(
        "bbox",
        [Rect(0, 0, 1, 1), (0, 0, 1, 1), [0.0, 0.0, 1.0, 1.0], ("0.5", 0.0, 1.0, 1.0), 11, "0011"],
        ids=["rect", "ints", "list", "numeric-string", "int", "text"],
    )
    def test_rects_and_other_coordinates_are_refused(self, bbox):
        """Only what a BBOX column stores loads: a Rect, a list, ints or
        numbers in text are not converted, they refuse the load by name."""
        tree = RTreeIndex("r")
        tree.bulk_load([(5.0, 5.0, 6.0, 6.0)], [rid(9)])
        packed = tree._packed
        with pytest.raises(StorageError, match="must be a tuple of floats, got ") as refused:
            tree.bulk_load([(2.0, 2.0, 3.0, 3.0), bbox], [rid(1), rid(2)])
        assert str(refused.value).endswith(repr(bbox))
        assert tree._packed is packed

    @pytest.mark.parametrize("nulls", [False, True], ids=["no-nulls", "nulls"])
    def test_the_packed_columns_equal_the_per_entry_reference(self, nulls):
        boxes, rids = _random_column(700, seed=21)
        boxes.append((-math.inf, 3.0, math.inf, 3.0))  # infinite, flat: legal
        rids.append(rid(9999))
        if nulls:
            boxes[::7] = [None] * len(boxes[::7])
        tree = RTreeIndex("r", max_entries=8)
        tree.bulk_load(boxes, rids)
        assert tree._packed == reference_packed(boxes, rids, max_entries=8)
        tree.validate()

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
        tree.bulk_load(*_random_column(40, seed=11))
        tree.validate()
        *_, first = tree._packed
        tree._packed[2][first] += 5000.0  # an entry's xmax past every node's
        with pytest.raises(StorageError, match="does not contain"):
            tree.validate()
