"""Fixtures for the serving-API tests: one small precomputed dots stack.

The concurrency hammers in ``test_concurrency.py`` are what the lock-order
watch (``REPRO_LOCKWATCH=1``, see ``tests/conftest.py``) is mostly for.
"""

from __future__ import annotations

import pytest

from repro.bench.apps import build_dots_backend, default_config
from repro.datagen.synthetic import tiny_spec
from repro.net.protocol import DataRequest


@pytest.fixture(scope="module")
def dots_stack():
    return build_dots_backend(
        tiny_spec("uniform", num_points=2_000, seed=7),
        config=default_config(viewport=512),
    )


@pytest.fixture()
def box_request(dots_stack):
    return DataRequest(
        app_name=dots_stack.compiled.app_name,
        canvas_id="dots",
        layer_index=0,
        granularity="box",
        xmin=0.0,
        ymin=0.0,
        xmax=700.0,
        ymax=700.0,
    )
