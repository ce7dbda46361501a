"""Answer verification against oracles that share no code with the query path.

For a seeded sample of viewports a fresh frontend loads the viewport through
the stack under test and the objects it ends up showing are compared — by
sha256 over their canonical JSON, sorted by ``tuple_id`` — with

* a brute-force numpy filter over the generated points (every workload), and
* the same viewport loaded from the unsharded ``cluster.source`` backend
  (sharded workloads), which catches a gather that loses or invents rows
  even if the brute-force filter and the engine agreed on a wrong rule.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any

import numpy as np

from repro.client import KyrixFrontend
from repro.core.viewport import Viewport
from repro.datagen.synthetic import generate_points
from repro.serving import stack_layers

from .workloads import CANVAS_ID, Position, Scale, Stack, Workload


def digest(objects: list[dict[str, Any]]) -> str:
    """sha256 of the distinct objects in ``tuple_id`` order, canonical JSON."""
    unique = {obj["tuple_id"]: obj for obj in objects}
    ordered = [unique[tuple_id] for tuple_id in sorted(unique)]
    return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()


class BruteForceOracle:
    """The expected objects of a viewport, straight from the generated points."""

    def __init__(self, stack: Stack, workload: Workload, scale: Scale) -> None:
        spec = stack.spec
        points = generate_points(spec)
        self._xs = points[:, 0]
        self._ys = points[:, 1]
        self._half = spec.half_extent
        self._scale = scale
        self._tile = workload.scheme.tile_size if workload.scheme.is_tile else None

    def expected(self, position: Position) -> list[dict[str, Any]]:
        xs, ys, half = self._xs, self._ys, self._half
        x, y = position
        xmin, ymin = x, y
        xmax = min(self._scale.canvas_width, x + self._scale.viewport)
        ymax = min(self._scale.canvas_height, y + self._scale.viewport)
        if self._tile is None:
            # Closed-interval bbox intersection with the fetched box.
            mask = (
                (xs + half >= xmin) & (xs - half <= xmax)
                & (ys + half >= ymin) & (ys - half <= ymax)
            )
        else:
            # The viewport shows every tile it touches; a dot belongs to
            # every tile its bbox touches.
            tile = float(self._tile)
            first_col, last_col = math.floor(xmin / tile), _last_tile(xmax, tile)
            first_row, last_row = math.floor(ymin / tile), _last_tile(ymax, tile)
            mask = (
                (np.floor((xs + half) / tile) >= first_col)
                & (np.floor((xs - half) / tile) <= last_col)
                & (np.floor((ys + half) / tile) >= first_row)
                & (np.floor((ys - half) / tile) <= last_row)
            )
        objects = []
        for index in np.nonzero(mask)[0].tolist():
            px, py = float(xs[index]), float(ys[index])
            objects.append(
                {
                    "tuple_id": index,
                    "x": px,
                    "y": py,
                    "bbox": (px - half, py - half, px + half, py + half),
                }
            )
        return objects


def _last_tile(edge: float, tile: float) -> int:
    """Tile index of a far edge; an edge exactly on a boundary stays left of it."""
    index = math.floor(edge / tile)
    return index - 1 if edge > 0 and edge == index * tile else index


def _shown(service: Any, workload: Workload, scale: Scale, position: Position) -> list[dict[str, Any]]:
    frontend = KyrixFrontend(service, workload.scheme)
    x, y = position
    frontend.load_canvas(CANVAS_ID, Viewport(x, y, scale.viewport, scale.viewport))
    return [obj for objects in frontend.visible_objects.values() for obj in objects]


def source_backend(service: Any) -> Any:
    """The unsharded backend a cluster was split from, when there is one."""
    for layer in stack_layers(service):
        source = getattr(getattr(layer, "cluster", None), "source", None)
        if source is not None:
            return source
    return None


def verify(
    stack: Stack,
    workload: Workload,
    scale: Scale,
    positions: list[Position],
    seed: int,
) -> tuple[int, list[str]]:
    """Check a seeded sample of ``positions``; returns (checked, mismatches)."""
    rng = random.Random(f"verify:{seed}")
    sample = rng.sample(positions, min(scale.verify_samples, len(positions)))
    oracle = BruteForceOracle(stack, workload, scale)
    source = source_backend(stack.service)
    mismatches: list[str] = []
    for position in sample:
        try:
            got = digest(_shown(stack.service, workload, scale, position))
        except Exception as error:  # noqa: BLE001 - a raising stack is a failed check
            mismatches.append(f"{position}: raised {type(error).__name__}: {error}")
            continue
        if got != digest(oracle.expected(position)):
            mismatches.append(f"{position}: differs from the brute-force filter")
        elif source is not None and got != digest(
            _shown(source, workload, scale, position)
        ):
            mismatches.append(f"{position}: differs from the unsharded source backend")
    return len(sample), mismatches
