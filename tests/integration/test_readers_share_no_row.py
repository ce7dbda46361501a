"""A row a reader edits is that reader's own, in every topology.

Every session a cache answers holds the same ``RowBatch``, but each read
builds its dictionaries afresh, so no edit reaches another session, the
JSON encoding or the HTTP edge.  (Here rather than under ``tests/serving``:
the Flask edge cannot be built under that suite's lock instrumentation.)
"""

from __future__ import annotations

import json

import pytest

pytest.importorskip("flask")

from repro.bench.apps import build_dots_backend, default_config
from repro.client import KyrixFrontend
from repro.core.viewport import Viewport
from repro.datagen.synthetic import tiny_spec
from repro.server.http_server import create_app
from repro.serving import build_service

TOPOLOGIES = {
    "single": {},
    "wire_shards": {"shard_count": 2, "wire_shards": True},
    "replicas": {"shard_count": 2, "replicas": 2},
}


@pytest.fixture(scope="module")
def backend():
    stack = build_dots_backend(
        tiny_spec("uniform", num_points=2_000, seed=7), config=default_config(viewport=512)
    )
    return stack.backend


@pytest.fixture(params=TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
def service(request, backend):
    service = build_service(backend.config, backend=backend, **request.param)
    yield service
    service.close()


def test_an_edited_object_reaches_no_other_reader(service):
    viewport = Viewport(0.0, 0.0, 700.0, 700.0)
    first_session = KyrixFrontend(service)
    first_session.load_canvas("dots", viewport)
    original = dict(first_session.visible_objects[0][0])
    first_session.visible_objects[0][0]["x"] = -1.0
    next(iter(first_session.visible_objects[0]))["x"] = -2.0
    (issued,) = first_session.cache.keys()  # the one dynamic-box request
    request = first_session.cache.peek(issued).request
    service.handle(request).to_dicts()[0]["x"] = -3.0

    second_session = KyrixFrontend(service)
    second_session.load_canvas("dots", viewport)
    assert second_session.visible_objects[0][0] == original
    assert first_session.visible_objects[0][0] == original
    response = service.handle(request)
    assert response.from_cache
    objects = json.loads(response.to_json())["objects"]
    assert objects[0]["x"] == original["x"]
    box = "&".join(
        f"{edge}={getattr(request, edge)!r}" for edge in ("xmin", "ymin", "xmax", "ymax")
    )
    payload = create_app(service).test_client().get(f"/dbox?canvas=dots&layer=0&{box}")
    # The edge answers in the gather's ``tuple_id`` order on every topology.
    assert payload.get_json()["objects"] == sorted(objects, key=lambda obj: obj["tuple_id"])
