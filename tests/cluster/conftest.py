"""Fixtures for the cluster tests: small usmap and EEG serving stacks.

The parity tests need real applications whose layers go through full
placement precomputation (so both database designs are exercised) on both
evaluation datasets.  The stacks here are shrunk versions of the example
applications: small canvases, few thousand rows, one dynamic layer per
canvas — large enough that shard regions hold distinct data, small enough
to build in well under a second.

The request-building helpers (:func:`tile_requests` / :func:`box_requests`
/ :func:`parity_requests`) and :func:`payload_bytes` are shared by every
parity suite in this package — import them from here instead of redefining
them per test module.

Under ``REPRO_LOCKWATCH=1`` (see ``tests/conftest.py``) router swaps,
replica sets and the rebalancer run under the lock-order watch, so a
cycle between e.g. the rebalancer's migration lock and the router's table
lock fails even when the deadlock never fires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.bench.apps import build_eeg_backend, default_config
from repro.compiler import compile_application
from repro.core import App, Canvas, ColumnPlacement, Jump, Layer, Transform, dot_renderer
from repro.datagen.eeg import EEGSpec
from repro.datagen.usmap import USMapSpec, load_usmap
from repro.net.protocol import DataRequest
from repro.server.backend import KyrixBackend
from repro.server.schemes import DESIGN_MAPPING, DESIGN_SPATIAL
from repro.serving import build_service, unwrap
from repro.server.tile import TileScheme
from repro.storage.database import Database


@dataclass
class ParityStack:
    """A precomputed single backend plus the request shapes to test."""

    backend: KyrixBackend
    #: (canvas_id, layer_index, tile_size) triples to issue tile requests on.
    canvases: list[tuple[str, int, int]]
    #: (canvas_id, layer_index, rect-tuple) dynamic-box requests to issue.
    boxes: list[tuple[str, int, tuple[float, float, float, float]]]

    @property
    def tile_sizes(self) -> tuple[int, ...]:
        """The distinct tile sizes of the stack (mapping tables to prebuild)."""
        return tuple(sorted({tile_size for _, _, tile_size in self.canvases}))


def payload_bytes(response) -> bytes:
    """The byte-parity identity of a response's object payload."""
    return json.dumps(list(response.objects), sort_keys=True).encode("utf-8")


def tile_requests(stack: ParityStack) -> list[DataRequest]:
    """Every tile of every canvas, in both database designs."""
    requests = []
    for canvas_id, layer_index, tile_size in stack.canvases:
        plan = stack.backend.compiled.canvas_plan(canvas_id)
        scheme = TileScheme(plan.width, plan.height, tile_size)
        for design in (DESIGN_SPATIAL, DESIGN_MAPPING):
            for tile_id in range(scheme.tile_count):
                requests.append(
                    DataRequest(
                        canvas_id=canvas_id,
                        layer_index=layer_index,
                        granularity="tile",
                        design=design,
                        tile_id=tile_id,
                        tile_size=tile_size,
                    )
                )
    return requests


def box_requests(stack: ParityStack) -> list[DataRequest]:
    """The stack's dynamic-box request shapes."""
    requests = []
    for canvas_id, layer_index, (xmin, ymin, xmax, ymax) in stack.boxes:
        requests.append(
            DataRequest(
                canvas_id=canvas_id,
                layer_index=layer_index,
                granularity="box",
                design=DESIGN_SPATIAL,
                xmin=xmin,
                ymin=ymin,
                xmax=xmax,
                ymax=ymax,
            )
        )
    return requests


def parity_requests(stack: ParityStack) -> list[DataRequest]:
    """The full parity workload: every tile request plus every box request."""
    return tile_requests(stack) + box_requests(stack)


def build_usmap_parity_stack() -> ParityStack:
    """Two-canvas US map (states + counties), full placement precompute."""
    spec = USMapSpec(
        state_canvas_width=4096.0, state_canvas_height=4096.0, county_zoom=4.0
    )
    config = default_config(viewport=1024)
    database = Database(config.storage)
    load_usmap(database, spec)

    app = App("usmap", config=config)
    statemap = Canvas(
        "statemap", width=spec.state_canvas_width, height=spec.state_canvas_height
    )
    app.add_canvas(statemap)
    statemap.add_transform(
        Transform(
            transform_id="stateTrans",
            query="SELECT state_id, name, cx, cy, width, height, rate, bbox FROM states",
            columns=("state_id", "name", "cx", "cy", "width", "height", "rate", "bbox"),
        )
    )
    state_layer = Layer("stateTrans", False)
    statemap.add_layer(state_layer)
    state_layer.add_placement(
        ColumnPlacement(x_column="cx", y_column="cy", width="width", height="height")
    )
    state_layer.add_rendering_func(dot_renderer("cx", "cy"))

    countymap = Canvas(
        "countymap",
        width=spec.county_canvas_width,
        height=spec.county_canvas_height,
        zoom_level=spec.county_zoom,
    )
    app.add_canvas(countymap)
    countymap.add_transform(
        Transform(
            transform_id="countyTrans",
            query=(
                "SELECT county_id, state_id, name, cx, cy, width, height, rate, bbox "
                "FROM counties"
            ),
            columns=(
                "county_id", "state_id", "name", "cx", "cy", "width", "height",
                "rate", "bbox",
            ),
        )
    )
    county_layer = Layer("countyTrans", False)
    countymap.add_layer(county_layer)
    county_layer.add_placement(
        ColumnPlacement(x_column="cx", y_column="cy", width="width", height="height")
    )
    county_layer.add_rendering_func(dot_renderer("cx", "cy"))

    app.add_jump(Jump("statemap", "countymap", "semantic_zoom"))
    app.set_initial_canvas("statemap", 0, 0)
    compiled = compile_application(app)
    service = build_service(
        config, database=database, compiled=compiled, tile_sizes=(1024,)
    )
    return ParityStack(
        backend=unwrap(service),
        canvases=[("statemap", 0, 1024), ("countymap", 0, 4096)],
        boxes=[
            ("statemap", 0, (0.0, 0.0, 4096.0, 4096.0)),
            ("statemap", 0, (900.0, 900.0, 2100.0, 2100.0)),
            ("countymap", 0, (3000.0, 5000.0, 9000.0, 11000.0)),
        ],
    )


def build_eeg_parity_stack() -> ParityStack:
    """One temporal EEG canvas with per-sample placement precompute.

    Reuses the benchmark suite's EEG application builder
    (:func:`repro.bench.apps.build_eeg_backend`) so the tests and the
    cluster-scaling benchmark exercise the same app.
    """
    spec = EEGSpec(channels=2, sample_rate_hz=16.0, duration_s=120.0, epoch_s=30.0)
    stack = build_eeg_backend(
        spec, config=default_config(viewport=400), tile_sizes=(32768,)
    )
    return ParityStack(
        backend=stack.backend,
        canvases=[("temporal", 0, 32768)],
        boxes=[
            ("temporal", 0, (0.0, 0.0, stack.canvas_width, stack.canvas_height)),
            ("temporal", 0, (10_000.0, 50.0, 45_000.0, 350.0)),
            ("temporal", 0, (59_000.0, 0.0, 61_000.0, stack.canvas_height)),
        ],
    )


@pytest.fixture(scope="module")
def usmap_parity_stack() -> ParityStack:
    return build_usmap_parity_stack()


@pytest.fixture(scope="module")
def eeg_parity_stack() -> ParityStack:
    return build_eeg_parity_stack()
