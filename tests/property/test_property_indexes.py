"""Property-based tests (hypothesis) for the index structures.

These check the invariants the rest of the system leans on: a bulk-loaded
index agrees with brute force, keeps its structural invariants whatever it
is loaded with, and never returns a phantom entry; a load from a column
stores what a load from its sorted ``(value, rid)`` pairs did; a table a
unique index refuses a load for is left as it was; and rows inserted one at
a time land as one load of them would.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError
from repro.storage.btree import BTreeIndex
from repro.storage.database import Database
from repro.storage.rtree import Rect, RTreeIndex
from tests.storage.reference import lookup_key, probe, spatial_search
from tests.storage.test_btree import reference_entries
from tests.storage.test_rtree import reference_packed


def rid(n: int) -> int:
    """Record ``n % 64`` of page ``n // 64``."""
    return n // 64 << 16 | n % 64


keys = st.integers(min_value=-1000, max_value=1000)
# A table's bbox cell: NULL, or a box on a coarse grid (equal and touching boxes occur).
boxes = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 900), st.integers(0, 450), st.integers(0, 60), st.integers(0, 60)).map(
        lambda c: (float(c[0]), float(c[1]), float(c[0] + c[2]), float(c[1] + c[3]))
    ),
)


def loaded(values, *, unique: bool = False) -> BTreeIndex:
    """A B-tree over ``value -> rid(position)``, loaded as a table loads it."""
    index = BTreeIndex("p", unique=unique)
    index.bulk_load(values, [rid(p) for p in range(len(values))])
    return index


class TestBTreeProperties:
    @given(st.lists(keys, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_search_matches_brute_force(self, values):
        index = loaded(values)
        reference: dict[int, list[int]] = {}
        for position, key in enumerate(values):
            reference.setdefault(key, []).append(rid(position))
        index.validate()
        for key in set(values) | {0, 1234}:
            assert index.search(key) == reference.get(key, [])  # position order kept

    # Six keys: every key's run of entries is long.
    few_keys = st.integers(min_value=0, max_value=5)

    @given(st.lists(few_keys, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_duplicate_runs_match_a_dict_of_lists(self, values):
        index = loaded(values)
        model: dict[int, list[int]] = {}
        for position, key in enumerate(values):
            model.setdefault(key, []).append(rid(position))
        index.validate()
        for key in range(7):
            assert index.search(key) == model.get(key, [])  # load order kept
        assert len(index) == len(values)
        assert index.rids() == [rid for k in sorted(model) for rid in model[k]]
        assert list(index.keys()) == sorted(model)
        assert index.search_many([5, 0, 7]) == model.get(5, []) + model.get(0, [])

    @given(st.lists(st.one_of(st.none(), keys), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_equals_the_sorted_pairs(self, values):
        pairs = sorted((key, position) for position, key in enumerate(values) if key is not None)
        index = BTreeIndex("b")
        index.bulk_load(values, range(len(values)))
        index.validate()
        assert len(index) == len(pairs)
        assert index.rids() == [position for _, position in pairs]
        assert list(index.keys()) == sorted({key for key, _ in pairs})
        for key in {key for key, _ in pairs} | {1234}:
            assert index.search(key) == [position for k, position in pairs if k == key]

    @given(st.booleans(), st.lists(keys, max_size=200), st.lists(keys, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_search_many_is_the_concatenation_of_search_in_key_order(self, unique, values, probes):
        if unique:
            values = list(dict.fromkeys(values))
        index = loaded(values, unique=unique)
        probes = probes + values[::7]  # keys present, some listed twice
        assert index.search_many(probes) == [found for key in probes for found in index.search(key)]

    @given(st.lists(keys, min_size=1, max_size=50, unique=True), st.data())
    @settings(max_examples=30, deadline=None)
    def test_unique_index_refuses_a_second_entry(self, values, data):
        duplicate = data.draw(st.sampled_from(values))
        index = BTreeIndex("u", unique=True)
        index.bulk_load(values, [rid(key + 1000) for key in values])
        with pytest.raises(DuplicateKeyError):
            index.bulk_load(values + [duplicate], [rid(1)] * (len(values) + 1))
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
                assert probe(table, "id", key) == lookup_key(table, "id", key)
                assert [row for _, row in probe(table, "id", key)] == [
                    row for row in model if row[0] == key
                ]
            for _, a in batch:
                assert [row for _, row in probe(table, "a", a)] == [
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
            assert probe(one_by_one, "k", key) == probe(at_once, "k", key)
            assert probe(at_once, "k", key) == lookup_key(at_once, "k", key)
        query = Rect(100.0, 50.0, 600.0, 400.0)
        assert probe(one_by_one, "box", query) == probe(at_once, "box", query)
        assert sorted(probe(at_once, "box", query)) == spatial_search(at_once, "box", query.as_tuple())


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
                tree.bulk_load([box for box, _ in model], [r for _, r in model])
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
        tree.bulk_load([rect.as_tuple() for rect, _ in entries], [r for _, r in entries])
        tree.validate()
        query = make_rect(query_coords)
        expected = {r for rect, r in entries if rect.intersects(query)}
        assert set(tree.search(query)) == expected

    @given(st.lists(rect_coords, min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_everything_found_by_enclosing_query(self, coords):
        entries = [(make_rect(c), rid(i)) for i, c in enumerate(coords)]
        tree = RTreeIndex("p", max_entries=6)
        tree.bulk_load([rect.as_tuple() for rect, _ in entries], [r for _, r in entries])
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


class TestColumnLoads:
    """A load from a column, NULLs and all, stores what a load from its
    sorted ``(value, rid)`` pairs stored: the references build from pairs."""

    @given(st.lists(st.one_of(st.none(), st.integers(0, 8)), max_size=200), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_a_btree_equals_the_pair_reference(self, values, unique):
        if unique:
            values = [None if key in values[:at] else key for at, key in enumerate(values)]
        rids = [rid(p) for p in range(len(values))]
        index = BTreeIndex("c", unique=unique)
        index.bulk_load(values, rids)
        assert (index._keys, index._rids) == reference_entries(values, rids)
        index.validate()

    @given(st.integers(min_value=4, max_value=32), st.lists(st.one_of(st.none(), grid_box), max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_an_rtree_equals_the_pair_reference(self, max_entries, column):
        rids = [rid(p) for p in range(len(column))]
        tree = RTreeIndex("c", max_entries=max_entries)
        tree.bulk_load(column, rids)
        assert tree._packed == reference_packed(column, rids, max_entries=max_entries)
        tree.validate()

    @given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)), boxes), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_a_tables_indexes_equal_the_pair_references(self, rows):
        table = Database().create_and_load("t", [("k", "int"), ("box", "bbox")], rows)
        keys = table.create_index("t_k", "k", "btree").index
        tree = table.create_index("t_box", "box", "rtree").index
        assert (keys._keys, keys._rids) == reference_entries(table.column("k"), table.rids())
        assert tree._packed == reference_packed(table.column("box"), table.rids())
