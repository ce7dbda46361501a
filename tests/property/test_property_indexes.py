"""Property-based tests (hypothesis) for the index structures.

These check the invariants the rest of the system leans on: a bulk-loaded
index agrees with brute force, keeps its structural invariants whatever it
is loaded with, and never returns a phantom entry; a table a unique index
refuses a load for is left as it was; and rows inserted one at a time land
as one load of them would.
"""

from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError
from repro.storage.btree import BTreeIndex
from repro.storage.database import Database
from repro.storage.row import RecordId
from repro.storage.rtree import Rect, RTreeIndex


def rid(n: int) -> RecordId:
    return RecordId(page_no=n // 64, slot_no=n % 64)


keys = st.integers(min_value=-1000, max_value=1000)
# A table's bbox cell: NULL, or a box on a coarse grid (equal and touching boxes occur).
boxes = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 900), st.integers(0, 450), st.integers(0, 60), st.integers(0, 60)).map(
        lambda c: (float(c[0]), float(c[1]), float(c[0] + c[2]), float(c[1] + c[3]))
    ),
)


def loaded(values, *, order: int = 8) -> BTreeIndex:
    """A B-tree over ``value -> rid(position)``, loaded as a table loads it:
    stably sorted by key, so equal keys keep their position order."""
    index = BTreeIndex("p", order=order)
    index.bulk_load(sorted(((key, rid(p)) for p, key in enumerate(values)), key=itemgetter(0)))
    return index


class TestBTreeProperties:
    @given(st.lists(keys, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_search_matches_brute_force(self, values):
        index = loaded(values)
        reference: dict[int, list[RecordId]] = {}
        for position, key in enumerate(values):
            reference.setdefault(key, []).append(rid(position))
        index.validate()
        for key in set(values) | {0, 1234}:
            assert index.search(key) == reference.get(key, [])  # position order kept

    @given(st.lists(keys, min_size=1, max_size=200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_range_search_matches_sorted_filter(self, values, data):
        index = loaded(values)
        low = data.draw(keys)
        high = data.draw(st.integers(min_value=low, max_value=1000))
        result = [k for k, _ in index.range_search(low, high)]
        expected = sorted(k for k in values if low <= k <= high)
        assert result == expected

    # Six keys, leaves of four: a key's run of entries outgrows a leaf and
    # crosses into the next ones.
    few_keys = st.integers(min_value=0, max_value=5)

    @given(st.integers(min_value=4, max_value=8), st.lists(few_keys, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_duplicate_runs_match_a_dict_of_lists(self, order, values):
        index = loaded(values, order=order)
        model: dict[int, list[int]] = {}
        for position, key in enumerate(values):
            model.setdefault(key, []).append(rid(position))
        index.validate()
        for key in range(7):
            assert index.search(key) == model.get(key, [])  # load order kept
        assert len(index) == len(values)
        assert list(index.items()) == [(k, rid) for k in sorted(model) for rid in model[k]]
        assert list(index.keys()) == sorted(model)
        assert index.search_many([5, 0, 7]) == model.get(5, []) + model.get(0, [])

    @given(st.integers(min_value=4, max_value=8), st.lists(keys, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_equals_the_sorted_pairs(self, order, values):
        pairs = sorted((key, position) for position, key in enumerate(values))
        index = BTreeIndex("b", order=order)
        index.bulk_load(pairs)
        index.validate()
        assert len(index) == len(values)
        assert list(index.items()) == pairs
        for key in set(values) | {1234}:
            assert index.search(key) == [position for k, position in pairs if k == key]
        low, high = min(values, default=0), max(values, default=0)
        assert list(index.range_search(low, high, include_low=False, include_high=False)) == [
            pair for pair in pairs if low < pair[0] < high
        ]

    @given(st.lists(keys, min_size=1, max_size=50, unique=True), st.data())
    @settings(max_examples=30, deadline=None)
    def test_unique_index_refuses_a_second_entry(self, values, data):
        duplicate = data.draw(st.sampled_from(values))
        index = BTreeIndex("u", order=4, unique=True)
        index.bulk_load((key, rid(key + 1000)) for key in sorted(values))
        with pytest.raises(DuplicateKeyError):
            index.bulk_load((key, rid(1)) for key in sorted(values + [duplicate]))
        index.validate()  # a refused load leaves the contents as they were
        assert index.search(duplicate) == [rid(duplicate + 1000)]


class TestUniqueLoads:
    @given(st.lists(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 12)), keys), max_size=5),
                    max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_a_load_goes_in_whole_or_not_at_all(self, batches):
        table = Database().create_table("t", [("id", "int"), ("a", "int")])
        table.create_index("t_id", "id", "btree", unique=True)
        table.create_index("t_a", "a", "btree")
        model: list[tuple] = []
        for batch in batches:
            ids = [row[0] for row in model + batch if row[0] is not None]
            if len(set(ids)) == len(ids):
                assert table.bulk_load(batch) == len(batch)
                model += batch
            else:
                with pytest.raises(DuplicateKeyError):
                    table.bulk_load(batch)
            assert list(table.scan_rows()) == model
            for info in table.indexes.values():
                info.index.validate()
            for key in range(13):
                assert [row for _, row in table.lookup_key("id", key)] == [
                    row for row in model if row[0] == key
                ]
            for _, a in batch:
                assert [row for _, row in table.lookup_key("a", a)] == [
                    row for row in model if row[1] == a
                ]

    @given(st.lists(st.tuples(st.integers(0, 6), boxes), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_inserting_row_by_row_equals_one_load(self, rows):
        tables = []
        for name in ("one_by_one", "at_once"):
            table = Database().create_table(name, [("k", "int"), ("box", "bbox")])
            table.create_index(f"{name}_k", "k", "btree")
            table.create_index(f"{name}_box", "box", "rtree")
            tables.append(table)
        for row in rows:
            tables[0].insert(row)
        tables[1].bulk_load(rows)
        one_by_one, at_once = tables
        assert list(one_by_one.scan()) == list(at_once.scan())
        for key in range(7):
            assert one_by_one.lookup_key("k", key) == at_once.lookup_key("k", key)
        query = Rect(100.0, 50.0, 600.0, 400.0)
        assert one_by_one.spatial_search("box", query) == at_once.spatial_search("box", query)


rect_coords = st.tuples(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=500, allow_nan=False),
    st.floats(min_value=0, max_value=20, allow_nan=False),
    st.floats(min_value=0, max_value=20, allow_nan=False),
)


def make_rect(coords) -> Rect:
    x, y, w, h = coords
    return Rect(x, y, x + w, y + h)


# A coarse grid: equal boxes, equal (box, rid) entries and touching edges all occur.
grid_box = st.tuples(
    st.integers(0, 20), st.integers(0, 20), st.integers(0, 6), st.integers(0, 6)
).map(lambda c: (float(c[0]), float(c[1]), float(c[0] + c[2]), float(c[1] + c[3])))
grid_entry = st.tuples(grid_box, st.integers(0, 40))
EVERYTHING = (-1.0, -1.0, 100.0, 100.0)


def _meets(box, query) -> bool:
    return box[0] <= query[2] and box[2] >= query[0] and box[1] <= query[3] and box[3] >= query[1]


class TestPackedRTreeModel:
    @given(
        st.integers(min_value=4, max_value=32),
        st.lists(
            st.one_of(
                st.tuples(st.just("load"), st.lists(grid_entry, max_size=80)),
                st.tuples(st.just("search"), grid_box),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_load_equals_the_brute_force_model(self, max_entries, steps):
        tree = RTreeIndex("p", max_entries=max_entries)
        model: list[tuple[tuple[float, float, float, float], int]] = []
        for step in steps:
            queries = [EVERYTHING]  # a box every node lies inside: slices, not tests
            if step[0] == "load":
                model = list(step[1])
                tree.bulk_load(model)
                queries += [box for box, _ in model[:3]]
            else:
                queries.append(step[1])
            tree.validate()
            assert len(tree) == len(model)
            entries = [(rect.as_tuple(), r) for rect, r in tree.all_entries()]
            assert sorted(entries) == sorted(model)
            assert [r for _, r in entries] == tree.rids()  # one entry order
            for query in queries:
                expected = sorted(r for box, r in model if _meets(box, query))
                assert sorted(tree.search(query)) == expected


class TestRTreeProperties:
    @given(st.lists(rect_coords, max_size=400), rect_coords)
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_search_matches_brute_force(self, coords, query_coords):
        entries = [(make_rect(c), rid(i)) for i, c in enumerate(coords)]
        tree = RTreeIndex("p", max_entries=8)
        tree.bulk_load(entries)
        tree.validate()
        query = make_rect(query_coords)
        expected = {r for rect, r in entries if rect.intersects(query)}
        assert set(tree.search(query)) == expected

    @given(st.lists(rect_coords, min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_everything_found_by_enclosing_query(self, coords):
        entries = [(make_rect(c), rid(i)) for i, c in enumerate(coords)]
        tree = RTreeIndex("p", max_entries=6)
        tree.bulk_load(entries)
        everything = tree.search(Rect(-1, -1, 2000, 1000))
        assert len(everything) == len(entries)

    @given(rect_coords, st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_rect_scaling_preserves_center_and_scales_area(self, coords, factor):
        rect = make_rect(coords)
        scaled = rect.scaled(factor)
        assert scaled.center[0] == pytest.approx(rect.center[0], abs=1e-6)
        assert scaled.center[1] == pytest.approx(rect.center[1], abs=1e-6)
        assert scaled.area == pytest.approx(rect.area * factor * factor, rel=1e-6, abs=1e-9)

