"""Property-based tests (hypothesis) for the index structures.

These check the invariants the rest of the system leans on: indexes agree
with brute force, structural invariants survive arbitrary insert/delete
sequences, and lookups never return phantom entries.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError
from repro.storage import rtree
from repro.storage.btree import BTreeIndex
from repro.storage.hashindex import HashIndex
from repro.storage.row import RecordId
from repro.storage.rtree import Rect, RTreeIndex


def rid(n: int) -> RecordId:
    return RecordId(page_no=n // 64, slot_no=n % 64)


keys = st.integers(min_value=-1000, max_value=1000)


class TestBTreeProperties:
    @given(st.lists(keys, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_search_matches_brute_force(self, values):
        index = BTreeIndex("p", order=8)
        reference: dict[int, list[RecordId]] = {}
        for position, key in enumerate(values):
            index.insert(key, rid(position))
            reference.setdefault(key, []).append(rid(position))
        index.validate()
        for key in set(values) | {0, 1234}:
            assert sorted(index.search(key)) == sorted(reference.get(key, []))

    @given(st.lists(keys, min_size=1, max_size=200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_range_search_matches_sorted_filter(self, values, data):
        index = BTreeIndex("p", order=8)
        for position, key in enumerate(values):
            index.insert(key, rid(position))
        low = data.draw(keys)
        high = data.draw(st.integers(min_value=low, max_value=1000))
        result = [k for k, _ in index.range_search(low, high)]
        expected = sorted(k for k in values if low <= k <= high)
        assert result == expected

    @given(st.lists(st.tuples(keys, st.booleans()), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_insert_delete_keeps_invariants(self, operations):
        index = BTreeIndex("p", order=8)
        live: dict[int, list[RecordId]] = {}
        counter = 0
        for key, is_insert in operations:
            if is_insert or not live.get(key):
                index.insert(key, rid(counter))
                live.setdefault(key, []).append(rid(counter))
                counter += 1
            else:
                victim = live[key].pop()
                assert index.delete(key, victim) is True
        index.validate()
        assert len(index) == sum(len(v) for v in live.values())
        for key, rids in live.items():
            assert sorted(index.search(key)) == sorted(rids)


    # Six keys, leaves of four: a key's run of entries outgrows a leaf and
    # crosses into the next ones.
    few_keys = st.integers(min_value=0, max_value=5)

    @given(
        st.integers(min_value=4, max_value=8),
        st.lists(st.tuples(st.sampled_from("iiiidsb"), few_keys, st.integers(0, 400)), max_size=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_duplicate_runs_match_a_dict_of_lists(self, order, operations):
        index = BTreeIndex("p", order=order)
        model: dict[int, list[int]] = {}
        fresh = iter(range(10_000, 20_000))
        for op, key, pick in operations:
            if op == "i":
                model.setdefault(key, []).append(rid := next(fresh))
                index.insert(key, rid)
            elif op == "d":  # a stored entry when there is one, else an absent one
                stored = model.get(key, [])
                victim = stored[pick % len(stored)] if stored and pick % 3 else 9
                assert index.delete(key, victim) is (victim in stored)
                if victim in stored:
                    stored.remove(victim)
            elif op == "b":  # reload everything in bulk: same answers, same order
                index.bulk_load((k, rid) for k in sorted(model) for rid in model[k])
            index.validate()
            assert index.search(key) == model.get(key, [])  # insertion order kept
        assert len(index) == sum(map(len, model.values()))
        assert list(index.items()) == [(k, rid) for k in sorted(model) for rid in model[k]]
        assert list(index.keys()) == [k for k in sorted(model) if model[k]]
        assert index.search_many([5, 0, 7]) == model.get(5, []) + model.get(0, [])

    @given(st.integers(min_value=4, max_value=8), st.lists(keys, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_equals_repeated_insert(self, order, values):
        pairs = sorted((key, position) for position, key in enumerate(values))
        loaded, grown = BTreeIndex("b", order=order), BTreeIndex("i", order=order)
        loaded.bulk_load(pairs)
        for key, rid in pairs:
            grown.insert(key, rid)
        loaded.validate()
        assert len(loaded) == len(grown) == len(values)
        assert list(loaded.items()) == list(grown.items()) == pairs
        for key in set(values) | {1234}:
            assert loaded.search(key) == grown.search(key)
        low, high = min(values, default=0), max(values, default=0)
        assert list(loaded.range_search(low, high, include_low=False, include_high=False)) == [
            pair for pair in pairs if low < pair[0] < high
        ]

    @given(st.lists(keys, min_size=1, max_size=50, unique=True), st.data())
    @settings(max_examples=30, deadline=None)
    def test_unique_index_still_refuses_a_second_entry(self, values, data):
        duplicate = data.draw(st.sampled_from(values))
        index = BTreeIndex("u", order=4, unique=True)
        index.bulk_load((key, rid(key + 1000)) for key in sorted(values))
        with pytest.raises(DuplicateKeyError):
            index.insert(duplicate, rid(1))
        with pytest.raises(DuplicateKeyError):
            BTreeIndex("u", unique=True).bulk_load(
                (key, rid(1)) for key in sorted(values + [duplicate])
            )
        index.validate()
        assert index.search(duplicate) == [rid(duplicate + 1000)]


class TestHashIndexProperties:
    @given(st.lists(st.tuples(keys, st.booleans()), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_semantics(self, operations):
        index = HashIndex("p")
        reference: dict[int, list[RecordId]] = {}
        counter = 0
        for key, is_insert in operations:
            if is_insert or not reference.get(key):
                index.insert(key, rid(counter))
                reference.setdefault(key, []).append(rid(counter))
                counter += 1
            else:
                victim = reference[key].pop()
                index.delete(key, victim)
        index.validate()
        for key in set(k for k, _ in operations):
            assert sorted(index.search(key)) == sorted(reference.get(key, []))


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
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.one_of(
                st.tuples(st.just("load"), st.lists(grid_entry, max_size=80)),
                st.tuples(st.just("insert"), grid_entry),
                st.tuples(st.just("delete"), st.integers(0, 1000), grid_entry),
                st.tuples(st.just("search"), grid_box),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_interleaving_equals_the_brute_force_model(self, max_entries, threshold, steps):
        with mock.patch.object(rtree, "REPACK_THRESHOLD", threshold):
            tree = RTreeIndex("p", max_entries=max_entries)
            model: list[tuple[tuple[float, float, float, float], int]] = []
            for step in steps:
                queries = [EVERYTHING]  # a box every node lies inside: slices, not tests
                if step[0] == "load":
                    model = list(step[1])
                    tree.bulk_load(model)
                elif step[0] == "insert":
                    model.append(step[1])
                    tree.insert(*step[1])
                elif step[0] == "delete":  # mostly a stored entry, sometimes an absent one
                    entry = model[step[1] % len(model)] if model and step[1] % 4 else step[2]
                    assert tree.delete(*entry) is (entry in model)
                    if entry in model:
                        model.remove(entry)
                    queries.append(entry[0])
                else:
                    queries.append(step[1])
                tree.validate()
                assert len(tree) == len(model)
                assert sorted((rect.as_tuple(), r) for rect, r in tree.all_entries()) == sorted(model)
                for query in queries:
                    expected = sorted(entry for entry in model if _meets(entry[0], query))
                    assert sorted(tree.search(query)) == sorted(r for _, r in expected)
                    found = tree.search_entries(Rect(*query))
                    assert sorted((rect.as_tuple(), r) for rect, r in found) == expected


class TestRTreeProperties:
    @given(st.lists(rect_coords, max_size=200), rect_coords)
    @settings(max_examples=50, deadline=None)
    def test_incremental_search_matches_brute_force(self, coords, query_coords):
        entries = [(make_rect(c), rid(i)) for i, c in enumerate(coords)]
        tree = RTreeIndex("p", max_entries=6)
        for rect, r in entries:
            tree.insert(rect, r)
        tree.validate()
        query = make_rect(query_coords)
        expected = {r for rect, r in entries if rect.intersects(query)}
        assert set(tree.search(query)) == expected

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

