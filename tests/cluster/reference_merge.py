"""The router's gather as it stood before PR 24 — the reference implementation.

``ClusterRouter._identity`` / ``_canonical_order`` and the two gather
branches of ``_scatter_gather_traced`` at the parent commit, moved here: a
dictionary per object, a Python statement per object, obviously right.  The
production gather (``repro.net.protocol.gather_rows``) works on row tuples
with whole-list calls; ``tests/property/test_property_gather.py`` holds its
rows, their order and its duplicate count to this one.

Two departures from the parent's text, neither a change of answer on any row
a shard can return:

* ``_identity`` no longer turns ``list`` values into tuples — rows have been
  canonical tuples since the wire decoded them so, and no in-process row
  holds a list;
* ``_canonical_order`` sorts with ``sorted`` where the parent sorted in
  place.  An in-place sort that raises ``TypeError`` half-way (identities of
  mixed types) leaves the list partly permuted, and the ``repr`` sort that
  follows is stable *from that permutation*: objects that share an identity
  inside one shard (none a real shard holds) came out in an order that
  depended on where the first sort gave up.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def _identity(obj: dict[str, Any]) -> Any:
    """Dedup key for a gathered object: ``tuple_id`` when present."""
    tuple_id = obj.get("tuple_id")
    if tuple_id is not None:
        return tuple_id
    return tuple((name, value) for name, value in sorted(obj.items()))


def _canonical_order(
    items: list[Any], identity: Callable[[Any], Any] | None = None
) -> list[Any]:
    """``items`` sorted by dedup identity.

    The order every response leaves the router in, whatever the
    partitioning, topology or rebalance epoch that produced it.
    ``identity`` maps an item to its identity; without it the items
    are identities already.
    """
    try:
        return sorted(items, key=identity)
    except TypeError:
        # Mixed identity types (e.g. int and str tuple_ids in one
        # layer) have no natural order; repr gives a deterministic one.
        return sorted(
            items, key=repr if identity is None else lambda item: repr(identity(item))
        )


def gather(shard_objects: list[list[dict[str, Any]]]) -> tuple[list[dict[str, Any]], int]:
    """``(objects, duplicates_removed)`` of one scatter over ``shard_objects``."""
    received = sum(len(objects) for objects in shard_objects)
    if len(shard_objects) == 1:
        # Common case (fan-out 1): no replica can appear twice, so skip
        # the dedup merge entirely.
        objects = _canonical_order(list(shard_objects[0]), _identity)
    else:
        merged: dict[Any, dict[str, Any]] = {}
        for shard in shard_objects:
            for obj in shard:
                merged.setdefault(_identity(obj), obj)
        # The merge already computed every identity: sort those, not
        # the objects through a second ``_identity`` call each.
        objects = [merged[key] for key in _canonical_order(list(merged))]
    return objects, received - len(objects)
