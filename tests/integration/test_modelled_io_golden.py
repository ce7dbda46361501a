"""Page-IO golden: the row path touches the pages it is meant to touch.

A fixed, seeded sequence of 20 box and 20 tile-mapping requests runs against
a database whose buffer pool (8 pages) is far smaller than the table, so
nearly every page run is a miss.  ``GOLDEN_BOXES`` was recorded from the
commit before the batched row path (PR 17, 20ca1a5) with this very script
and has not moved since: same pages read in the same order means the same
misses and reads.  (Until PR 23 a fourth number was pinned, the pager's
modelled clock; it was ``0.05 ms × misses`` and went with the model.)
``GOLDEN_TILES`` was re-recorded with this script at PR 21 (parent 05fb78d,
where it read ``(783, 734, 734)``): the same 783 objects, but the mapping table is now
loaded clustered on ``tile_id``, so a tile's 39 mapping rows sit on 1.15 heap
pages (mean of the 20 tiles) instead of 12.6 -- every one of the 229 misses
saved is a mapping-table page (the batched join alone leaves 734: it fetches
the same rids in the same order).  ``hits`` is deliberately not pinned: one checkout
serves a run of rids on the same page.
"""

from __future__ import annotations

import random

from repro.bench.apps import build_dots_backend, default_config
from repro.config import StorageConfig
from repro.datagen.synthetic import tiny_spec
from repro.net.protocol import DataRequest

#: (objects returned, misses, reads); see the docstring for which commit.
GOLDEN_BOXES = (1122, 905, 905)
GOLDEN_TILES = (783, 505, 505)


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
