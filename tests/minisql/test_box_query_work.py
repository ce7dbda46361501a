"""The work of a box query, counted in Python calls per fetched row.

Counted as the Python ``call`` events ``sys.setprofile`` sees while
``SQLEngine.execute`` answers quarter-canvas box queries over
``tiny_spec()`` clustered on its R-tree (the served spatial design: one
``SpatialScan``, its rids strictly ascending).  While ``HeapFile.fetch_many``
took one ``_locate`` generator step and one decoder call per row, that was
2.06 per row (CPython 3.11).  Reading each page's run with one C-level
decode leaves the calls per query (binding, planning lookups, the R-tree's
partly covered leaves: about 26) and two per page touched (the checkout and
the run decode): 0.08 per row.  A call per row, anywhere between the engine
and the page, is 1.0 more.
"""

from __future__ import annotations

import sys

from repro.datagen.synthetic import load_dots, tiny_spec
from repro.minisql.executor import SQLEngine
from repro.storage.database import Database

#: Python calls per fetched row: 2.06 with a generator step and a decoder
#: call per row, 0.08 a page at a time.
CALLS_PER_ROW_BOUND = 0.2


def test_a_box_query_takes_no_python_call_per_fetched_row():
    spec = tiny_spec()
    database = Database()
    table = load_dots(database, spec)
    table.cluster(f"{spec.name}_bbox")
    engine = SQLEngine(database)
    statement = engine.prepare(f"SELECT * FROM {spec.name} WHERE intersects(bbox, ?, ?, ?, ?)")
    # Quarter-canvas boxes on a grid finer than the boxes: they cut leaves.
    width, height = spec.canvas_width / 2, spec.canvas_height / 2
    boxes = [
        (x, y, x + width, y + height)
        for x in range(0, int(spec.canvas_width - width) + 1, 1024)
        for y in range(0, int(spec.canvas_height - height) + 1, 512)
    ]
    engine.execute(statement.bind(*boxes[0]))  # planned before counting
    calls = rows = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for box in boxes:
            rows += len(engine.execute(statement.bind(*box)).rows)
    finally:
        sys.setprofile(None)
    assert len(boxes) == 25 and rows > 6 * len(table)  # about a quarter of the rows each
    assert calls / rows <= CALLS_PER_ROW_BOUND, calls / rows
