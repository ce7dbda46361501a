"""Page-IO golden: the row path touches the pages it is meant to touch.

A fixed, seeded sequence of 20 box and 20 tile-mapping requests runs against
a database whose buffer pool (8 pages) is far smaller than the table, so
nearly every page run is a miss.  Misses may only fall from one recording to
the next; the objects returned never change.

``GOLDEN_BOXES`` was recorded before the batched row path (commit 20ca1a5)
as ``(1122, 905, 905)`` and held until every served table was clustered on
its R-tree (``Table.cluster``, PostgreSQL's ``CLUSTER``): the rows under one
leaf now sit on one or two heap pages, so a box's rids arrive in page runs
and the same 1122 objects cost 68 misses instead of 905.  ``GOLDEN_TILES``
read ``(783, 734, 734)`` until the mapping table was loaded clustered on
``tile_id`` (parent 05fb78d; a tile's 39 mapping rows on 1.15 heap pages
instead of 12.6), then ``(783, 505, 505)``; with the record table clustered
too, a tile's tuples -- spatially close -- share a few pages and 76 misses
remain.  (A fourth number, the pager's modelled clock, was pinned until the
latency model was removed; it was ``0.05 ms × misses``.)  ``hits`` is
deliberately not pinned: one checkout serves a run of rids on the same page.
"""

from __future__ import annotations

import random

from repro.bench.apps import build_dots_backend, default_config
from repro.config import StorageConfig
from repro.datagen.synthetic import tiny_spec
from repro.net.protocol import DataRequest

#: (objects returned, misses, reads); see the docstring for which commit.
GOLDEN_BOXES = (1122, 68, 68)
GOLDEN_TILES = (783, 76, 76)


def _replay() -> tuple[tuple, tuple]:
    config = default_config(viewport=512)
    config.storage = StorageConfig(buffer_pool_pages=8)
    spec = tiny_spec("uniform", num_points=5_000, seed=11)
    stack = build_dots_backend(spec, config=config, tile_sizes=(512,))
    backend, database = stack.backend, stack.database
    rng = random.Random(1729)

    def measure(requests: list[DataRequest]) -> tuple:
        before = vars(database.pager_stats).copy()
        objects = sum(len(backend.handle(request).objects) for request in requests)
        after = vars(database.pager_stats)
        delta = {name: after[name] - before[name] for name in ("misses", "reads")}
        return (objects, *delta.values())

    boxes = []
    for _ in range(20):
        x, y = rng.uniform(0, spec.canvas_width - 600), rng.uniform(0, spec.canvas_height - 600)
        boxes.append(
            DataRequest("dots", "dots", 0, "box", xmin=x, ymin=y, xmax=x + 600, ymax=y + 600)
        )
    tiles = [
        DataRequest("dots", "dots", 0, "tile", design="mapping", tile_id=tile_id, tile_size=512)
        for tile_id in rng.sample(range(16 * 8), 20)
    ]
    return measure(boxes), measure(tiles)


def test_row_path_reads_the_same_pages_as_the_parent_commit():
    boxes, tiles = _replay()
    assert boxes == GOLDEN_BOXES
    assert tiles == GOLDEN_TILES


if __name__ == "__main__":
    print(*_replay(), sep="\n")
