"""The synthetic dots: rows pinned bit for bit, and the work of loading them.

The digests were recorded from ``generate_rows`` when it still converted
each numpy coordinate with ``float()``; ``tolist()`` must hand back the
same Python floats.

The load is measured in interpreter work, not time: the Python ``call``
events ``sys.setprofile`` sees while ``load_dots`` loads ``tiny_spec()``
and the table is clustered on its R-tree.  Per loaded row that was 29.2
while every cell went through ``coerce_value`` and every box through
``_box``; with the compiled row coercer and the R-tree's column-wise box
check it was 11.3 (CPython 3.11), two of them row decodes: each index
build decoded every row to read one column.  Since an index build reads
its column a page at a time, and the clustering rewrite hands its copied
records out without a generator step each, it is 6.3.  The bound leaves
room for a version's differences (3.12 inlines comprehensions: fewer
calls, never more) but not for a call per cell, or a decode per row, to
come back.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.datagen.synthetic import generate_rows, load_dots, tiny_spec
from repro.storage import row
from repro.storage.database import Database

PINNED = {
    "uniform": "404a87634df9531eb5ed35bc3ab6529a5e7d44a2f272955919b0ff0c52b58a22",
    "skewed": "4f0198cbd812f223892f77edd394c8261c9e7f4f9afbd7f2cc1fc8edf6c6fb89",
}

#: Python calls per loaded row: 29.2 with a call per cell, 11.3 without,
#: 6.3 with column-read index builds.
CALLS_PER_ROW_BOUND = 7.2


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_rows_are_pinned(name):
    rows = list(generate_rows(tiny_spec(name)))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED[name]
    assert all(type(value) is float for row in rows for value in (row[1], row[2], *row[3]))


def test_loading_and_clustering_takes_no_python_call_per_cell():
    spec = tiny_spec()
    database = Database()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        table = load_dots(database, spec)
        table.cluster(f"{spec.name}_bbox")
    finally:
        sys.setprofile(None)
    assert len(table) == spec.num_points
    assert table.clustered_on == f"{spec.name}_bbox"
    assert calls / spec.num_points <= CALLS_PER_ROW_BOUND, calls / spec.num_points


def test_loading_and_indexing_decodes_no_row():
    """Both indexes ``load_dots`` builds read their column off the pages
    (two decodes per row while each build decoded whole rows)."""
    decodes = 0

    def count(frame, event, arg):
        nonlocal decodes
        code = frame.f_code
        if event == "call" and code.co_filename == row.__file__ and code.co_name in ("decode", "walk"):
            decodes += 1

    sys.setprofile(count)
    try:
        table = load_dots(Database(), tiny_spec())
    finally:
        sys.setprofile(None)
    assert len(table.indexes) == 2 and len(table.get_index("uniform_bbox").index.rids()) == len(table)
    assert decodes == 0
