"""Shared fixtures for the pytest-benchmark targets.

The benchmark scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable: ``smoke`` (default, ~30 k dots — finishes in a few minutes),
``bench`` (~250 k dots — the paper's 1e-3 dots per pixel² density) or
``tiny`` (CI sanity runs).  Stacks are session-scoped: dataset loading
and mapping-table precomputation are deliberately excluded from the measured
interaction times, exactly as in the paper.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Make src/ and examples/ importable when the package is not installed.
_ROOT = Path(__file__).resolve().parents[1]
for path in (_ROOT / "src", _ROOT / "examples"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.bench.experiments import build_stack  # noqa: E402
from repro.datagen.traces import paper_traces  # noqa: E402

#: Tile sizes of the paper's evaluation.
TILE_SIZES = (256, 1024, 4096)


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def uniform_stack(scale):
    """The Uniform dataset stack with mapping tables for all tile sizes."""
    return build_stack("uniform", scale=scale, tile_sizes=TILE_SIZES)


@pytest.fixture(scope="session")
def skewed_stack(scale):
    """The Skewed dataset stack with mapping tables for all tile sizes."""
    return build_stack("skewed", scale=scale, tile_sizes=TILE_SIZES)


@pytest.fixture(scope="session")
def uniform_traces(uniform_stack):
    return paper_traces(
        uniform_stack.spec.canvas_width, uniform_stack.spec.canvas_height
    )


@pytest.fixture(scope="session")
def skewed_traces(skewed_stack):
    return paper_traces(
        skewed_stack.spec.canvas_width, skewed_stack.spec.canvas_height
    )
