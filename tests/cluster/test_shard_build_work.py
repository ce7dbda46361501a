"""The shard build, measured in interpreter work rather than time.

A shard's copy of a table is the source's stored records, and every index
it builds reads one column a page at a time; so the build decodes no row.
Counted as the Python ``call`` events ``sys.setprofile`` sees while
``build_service`` shards a ``tiny_spec()`` dots backend four ways on the
grid, per source row: 11.5 while each row was decoded, coerced, encoded
and decoded twice more to index it (CPython 3.11), 2.6 since.  The bound
leaves room for a version's differences (3.12 inlines comprehensions:
fewer calls, never more) and for the lock watch, not for a call per row
to come back.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.bench.apps import build_dots_backend, default_config
from repro.datagen.synthetic import tiny_spec
from repro.serving import build_service
from repro.storage import row as row_codec

#: Python calls per source row: 11.5 with the row-by-row shard build, 2.6 without.
CALLS_PER_ROW_BOUND = 3.2


def profiled(build):
    """``build()``'s result and its Python calls, keyed by (file, function)."""
    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        result = build()
    finally:
        sys.setprofile(None)
    return result, calls


def row_decodes(calls: Counter) -> int:
    """Calls of a compiled row decoder (``row.compile_decoder``'s closures)."""
    return sum(n for (path, name), n in calls.items() if path == row_codec.__file__ and name in ("decode", "walk"))


def test_the_grid_build_decodes_no_row_and_makes_few_calls_per_row():
    spec = tiny_spec()
    config = default_config()
    stack = build_dots_backend(spec, config=config)
    service, calls = profiled(
        lambda: build_service(config, backend=stack.service, shard_count=4, strategy="grid")
    )
    try:
        assert row_decodes(calls) == 0
        assert sum(calls.values()) / spec.num_points <= CALLS_PER_ROW_BOUND, (
            sum(calls.values()) / spec.num_points
        )
    finally:
        service.close()
