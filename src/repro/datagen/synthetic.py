"""Synthetic dot datasets: *Uniform* and *Skewed* (Section 3.3).

The paper uses 100 M random dots on a 1 M x 0.1 M canvas ("Uniform") and a
variant where 80 M dots lie in 20 % of the canvas area ("Skewed").  A pure
Python + numpy reproduction cannot hold 100 M rows, so the default scale is
reduced while keeping the quantity that drives per-step cost — the number of
objects per viewport (dot density) — in the same regime.  The full-size
parameters remain available through :func:`paper_scale_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import KyrixError
from ..storage.database import Database
from ..storage.table import Table

#: Dot density of the paper's datasets: 100M dots / (1M x 0.1M) px².
PAPER_DENSITY = 100_000_000 / (1_000_000 * 100_000)


@dataclass(frozen=True)
class DotDatasetSpec:
    """Parameters of a synthetic dot dataset.

    Attributes
    ----------
    name:
        Dataset label ("uniform" / "skewed"), also used as the table name.
    canvas_width / canvas_height:
        Canvas dimensions in pixels.
    num_points:
        Total number of dots.
    skewed:
        When true, ``dense_fraction`` of the dots are drawn inside the dense
        rectangle and the rest uniformly over the whole canvas.
    dense_fraction:
        Fraction of dots falling in the dense region (paper: 0.8).
    dense_region:
        The dense rectangle as fractions of the canvas
        ``(x_frac, y_frac, width_frac, height_frac)``; the paper uses a
        0.4 M x 0.05 M rectangle on a 1 M x 0.1 M canvas = (0.4, 0.5) of each
        dimension, i.e. 20 % of the area.
    half_extent:
        Half the rendered size of a dot; its bbox is the point buffered by
        this amount (the paper notes records render bigger than one pixel).
    seed:
        RNG seed, so datasets are reproducible.
    """

    name: str
    canvas_width: float = 32_768.0
    canvas_height: float = 8_192.0
    num_points: int = 250_000
    skewed: bool = False
    dense_fraction: float = 0.8
    dense_region: tuple[float, float, float, float] = (0.30, 0.25, 0.40, 0.50)
    half_extent: float = 0.5
    seed: int = 1729

    def __post_init__(self) -> None:
        if self.num_points <= 0:
            raise KyrixError("num_points must be positive")
        if self.canvas_width <= 0 or self.canvas_height <= 0:
            raise KyrixError("canvas dimensions must be positive")
        if not 0.0 < self.dense_fraction < 1.0:
            if self.skewed:
                raise KyrixError("dense_fraction must be in (0, 1) for skewed datasets")

    @property
    def density(self) -> float:
        """Average dots per canvas pixel²."""
        return self.num_points / (self.canvas_width * self.canvas_height)

    @property
    def dense_rect(self) -> tuple[float, float, float, float]:
        """The dense region in canvas coordinates (xmin, ymin, xmax, ymax)."""
        x_frac, y_frac, w_frac, h_frac = self.dense_region
        xmin = x_frac * self.canvas_width
        ymin = y_frac * self.canvas_height
        return (
            xmin,
            ymin,
            xmin + w_frac * self.canvas_width,
            ymin + h_frac * self.canvas_height,
        )

    def expected_objects_per_viewport(self, viewport_w: float, viewport_h: float) -> float:
        """Expected dots inside a viewport placed on an average region."""
        return self.density * viewport_w * viewport_h


# ---------------------------------------------------------------------------
# Canonical dataset specs
# ---------------------------------------------------------------------------


def uniform_spec(
    *,
    num_points: int = 250_000,
    canvas_width: float = 32_768.0,
    canvas_height: float = 8_192.0,
    seed: int = 1729,
) -> DotDatasetSpec:
    """The *Uniform* dataset at the library's default (reduced) scale."""
    return DotDatasetSpec(
        name="uniform",
        canvas_width=canvas_width,
        canvas_height=canvas_height,
        num_points=num_points,
        skewed=False,
        seed=seed,
    )


def skewed_spec(
    *,
    num_points: int = 250_000,
    canvas_width: float = 32_768.0,
    canvas_height: float = 8_192.0,
    seed: int = 1729,
) -> DotDatasetSpec:
    """The *Skewed* dataset: 80 % of the dots in 20 % of the canvas area."""
    return DotDatasetSpec(
        name="skewed",
        canvas_width=canvas_width,
        canvas_height=canvas_height,
        num_points=num_points,
        skewed=True,
        seed=seed,
    )


def paper_scale_spec(name: str = "uniform") -> DotDatasetSpec:
    """The full-size parameters used in the paper (100 M dots, 1 M x 0.1 M).

    Provided for completeness; generating this size in pure Python is not
    practical, so the benchmarks use the reduced-scale specs above.
    """
    skewed = name.lower() == "skewed"
    return DotDatasetSpec(
        name=name.lower(),
        canvas_width=1_000_000.0,
        canvas_height=100_000.0,
        num_points=100_000_000,
        skewed=skewed,
    )


def tiny_spec(name: str = "uniform", *, num_points: int = 4_000, seed: int = 7) -> DotDatasetSpec:
    """A small dataset (4 k dots on an 8192 x 4096 canvas) for unit tests."""
    return DotDatasetSpec(
        name=name.lower(),
        canvas_width=8_192.0,
        canvas_height=4_096.0,
        num_points=num_points,
        skewed=name.lower() == "skewed",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Generation and loading
# ---------------------------------------------------------------------------


def generate_points(spec: DotDatasetSpec) -> np.ndarray:
    """Return an ``(N, 2)`` float array of dot coordinates for ``spec``."""
    rng = np.random.default_rng(spec.seed)
    if not spec.skewed:
        xs = rng.uniform(0.0, spec.canvas_width, spec.num_points)
        ys = rng.uniform(0.0, spec.canvas_height, spec.num_points)
        return np.column_stack([xs, ys])

    dense_count = int(round(spec.num_points * spec.dense_fraction))
    sparse_count = spec.num_points - dense_count
    xmin, ymin, xmax, ymax = spec.dense_rect
    dense_xs = rng.uniform(xmin, xmax, dense_count)
    dense_ys = rng.uniform(ymin, ymax, dense_count)
    sparse_xs = rng.uniform(0.0, spec.canvas_width, sparse_count)
    sparse_ys = rng.uniform(0.0, spec.canvas_height, sparse_count)
    xs = np.concatenate([dense_xs, sparse_xs])
    ys = np.concatenate([dense_ys, sparse_ys])
    order = rng.permutation(spec.num_points)
    return np.column_stack([xs[order], ys[order]])


def generate_rows(spec: DotDatasetSpec) -> Iterator[tuple]:
    """Yield table rows ``(tuple_id, x, y, bbox)`` for ``spec``."""
    points = generate_points(spec)
    half = spec.half_extent
    # tolist() hands back Python floats in one C pass, bit for bit float(x).
    for tuple_id, (x, y) in enumerate(zip(points[:, 0].tolist(), points[:, 1].tolist())):
        yield (tuple_id, x, y, (x - half, y - half, x + half, y + half))


def load_dots(
    database: Database,
    spec: DotDatasetSpec,
    *,
    table_name: str | None = None,
    with_indexes: bool = True,
) -> Table:
    """Create and populate the dots table for ``spec``.

    The table has the raw-data schema the paper's database designs build on:
    ``tuple_id`` (auto-increment id), ``x``, ``y`` and ``bbox``.  When
    ``with_indexes`` is true, a unique B-tree on ``tuple_id`` and an R-tree
    on ``bbox`` are created (the "DBA-built" indexes of the separable case).
    """
    name = table_name or spec.name
    table = database.create_table(
        name,
        [
            ("tuple_id", "integer"),
            ("x", "float"),
            ("y", "float"),
            ("bbox", "bbox"),
        ],
    )
    table.bulk_load(generate_rows(spec))
    if with_indexes:
        table.create_index(f"{name}_tuple_id", "tuple_id", "btree", unique=True)
        table.create_index(f"{name}_bbox", "bbox", "rtree")
    return table
