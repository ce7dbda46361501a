"""Tests for the Flask HTTP deployment of the backend."""

import hashlib
import json
import re

import pytest

flask = pytest.importorskip("flask")

from repro.net.protocol import DataRequest, RowBatch
from repro.server.http_server import create_app


@pytest.fixture()
def client(dots_stack):
    app = create_app(dots_stack.service)
    app.config["TESTING"] = True
    return app.test_client()


class TestHTTPServer:
    def test_app_catalogue(self, client):
        response = client.get("/app")
        assert response.status_code == 200
        payload = response.get_json()
        assert payload["app"] == "dots"
        assert "dots" in payload["canvases"]

    def test_canvas_info(self, client, dots_stack):
        response = client.get("/canvas/dots")
        assert response.status_code == 200
        assert response.get_json()["width"] == dots_stack.spec.canvas_width

    def test_canvas_info_unknown_canvas_is_400(self, client):
        response = client.get("/canvas/nope")
        assert response.status_code == 400
        assert "error" in response.get_json()

    def test_dbox_endpoint(self, client):
        response = client.get(
            "/dbox?canvas=dots&layer=0&xmin=3&ymin=3&xmax=515&ymax=515"
        )
        assert response.status_code == 200
        payload = response.get_json()
        assert payload["count"] == len(payload["objects"])
        assert payload["count"] > 0
        assert payload["queries_issued"] == 1

    def test_dbox_endpoint_serialises_rows_not_the_batch(self, client, dots_stack):
        # The HTTP edge is where a batch's rows become dictionaries: the body
        # carries the same objects the service's own JSON encoding does, in
        # the gather's ``tuple_id`` order, and the cached batch answers the
        # second request with the same body.
        url = "/dbox?canvas=dots&layer=0&xmin=7&ymin=7&xmax=519&ymax=519"
        payload = client.get(url).get_json()
        request = DataRequest(
            canvas_id="dots", layer_index=0,
            granularity="box", xmin=7.0, ymin=7.0, xmax=519.0, ymax=519.0,
        )
        served = dots_stack.service.handle(request)
        assert served.from_cache and isinstance(served.objects, RowBatch)
        served_objects = json.loads(served.to_json())["objects"]
        assert payload["objects"] == sorted(served_objects, key=lambda obj: obj["tuple_id"])
        assert payload["count"] == len(served.objects) > 0
        assert set(payload["objects"][0]) >= {"tuple_id", "bbox"}
        assert client.get(url).get_json()["objects"] == payload["objects"]

    def test_dbox_endpoint_non_finite_bound_is_400_naming_the_field(self, client):
        for field, value in (("xmax", "inf"), ("xmin", "nan"), ("ymin", "-inf")):
            bounds = {"xmin": "3", "ymin": "3", "xmax": "515", "ymax": "515", field: value}
            query = "&".join(f"{name}={text}" for name, text in bounds.items())
            response = client.get(f"/dbox?canvas=dots&layer=0&{query}")
            assert response.status_code == 400
            assert f"box bound {field} must be finite" in response.get_json()["error"]

    def test_tile_endpoint_spatial_and_mapping_agree(self, client):
        spatial = client.get(
            "/tile?canvas=dots&layer=0&tile_id=0&tile_size=512&design=spatial"
        ).get_json()
        mapping = client.get(
            "/tile?canvas=dots&layer=0&tile_id=0&tile_size=512&design=mapping"
        ).get_json()
        spatial_ids = {o["tuple_id"] for o in spatial["objects"]}
        mapping_ids = {o["tuple_id"] for o in mapping["objects"]}
        assert spatial_ids == mapping_ids

    def test_tile_endpoint_bad_design_is_400(self, client):
        response = client.get(
            "/tile?canvas=dots&layer=0&tile_id=0&tile_size=512&design=quantum"
        )
        assert response.status_code == 400

    def test_stats_endpoint(self, client):
        url = "/dbox?canvas=dots&layer=0&xmin=0&ymin=0&xmax=128&ymax=128"
        client.get(url)
        payload = client.get("/stats").get_json()
        # The endpoint is the factory's CachingService(backend): its own
        # ``stats`` are the cache's, yet /stats still leads with the
        # backend's query counters and keeps the cache section.
        assert payload["queries_issued"] >= 1
        assert payload["objects_returned"] >= 1
        assert "hits" not in payload
        client.get(url)
        repeat = client.get("/stats").get_json()
        assert repeat["queries_issued"] == payload["queries_issued"]
        assert repeat["cache_hit_rate"] > payload["cache_hit_rate"]

    def test_repeated_dbox_request_hits_cache(self, client):
        url = "/dbox?canvas=dots&layer=0&xmin=64&ymin=64&xmax=192&ymax=192"
        first = client.get(url).get_json()
        second = client.get(url).get_json()
        assert first["from_cache"] is False
        assert second["from_cache"] is True


class TestRowOrderAtTheEdge:
    """``/dbox`` and ``/tile`` answer in the gather's canonical order on every
    topology: a single backend's rows come in index order, a cluster's in
    identity order, and the edge sorts both through ``gather_rows``."""

    TOPOLOGIES = {
        "threads": {"shard_count": 2},
        "processes": {"shard_count": 2, "worker_mode": "processes"},
    }

    @staticmethod
    def _urls(dots_stack) -> list[str]:
        width, height = dots_stack.spec.canvas_width, dots_stack.spec.canvas_height
        boxes = [
            f"/dbox?canvas=dots&layer=0&xmin={x}&ymin={y}&xmax={x + 700}&ymax={y + 500}"
            for x in (0, width / 2 - 350, width - 700)
            for y in (0, height / 2 - 250, height - 500)
        ]
        tiles_per_row = int(width // 512)
        tile_ids = [0, tiles_per_row // 2, tiles_per_row + 1, tiles_per_row * 2 - 1]
        tiles = [
            f"/tile?canvas=dots&layer=0&tile_id={tile_id}&tile_size=512&design={design}"
            for design in ("spatial", "mapping")
            for tile_id in tile_ids
        ]
        return boxes + tiles

    @staticmethod
    def _objects(client, urls) -> list[bytes]:
        bodies = [client.get(url) for url in urls]
        assert all(body.status_code == 200 for body in bodies)
        return [
            json.dumps(body.get_json()["objects"], sort_keys=True).encode() for body in bodies
        ]

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_a_cluster_answers_the_single_stacks_rows_in_its_order(
        self, client, dots_stack, topology
    ):
        from repro.serving import build_service

        urls = self._urls(dots_stack)
        single = self._objects(client, urls)
        assert sum(len(json.loads(objects)) for objects in single) > 0
        service = build_service(
            dots_stack.backend.config,
            backend=dots_stack.backend,
            tile_sizes=(512,),
            **self.TOPOLOGIES[topology],
        )
        try:
            app = create_app(service)
            app.config["TESTING"] = True
            assert self._objects(app.test_client(), urls) == single
        finally:
            service.close()


#: sha256 of every body ``TestRowOrderAtTheEdge``'s requests answer, in
#: request order, each on a fresh stack, with the timing in ``query_ms``
#: written as 0 (the only part of a body that varies from run to run).
EDGE_GOLDEN = {
    "single": [
        "100da5ded20cc33892907f7a9777656c0a5f72f0c8c4edd38e46a68fe40534cd",
        "5f4507776a9aa2f1427e5590166cffeadd6f1bb261b7a6449aaab6ab36b27e23",
        "ad69df3344e6a3f63173a08fb9871cf8a103b9ac65c3ed95de3a4395e0df736c",
        "966ff398834390599e30152180a32d83c5761f9c74a88a31635b72ba9923caa3",
        "7701156fb485541d33b18a715d8267b7766fe292c3f462a6e9ac3322a16451e3",
        "d3e0ad89fbcc971a9877ee70df0b47ab099bc4b8dc905e1b1b6e6c7c1ada3e4e",
        "fd0cfadaccb296b9d04b46c89d60914d60536ce0edf43298bfdd643a9a201e7b",
        "cc2eb88e8f38cec5c9b2d88a62acc931b7412632b52ee3dc5ff8e2e228ae9202",
        "5dfe0a5bad61766d19960cd9f8c4e7cff925527843013543bfb810bd676e689e",
        "d6274b4febdf58d53621f4f8ef6fc596a7c68bbbeea1896e5d338135d7c2cbc0",
        "fa6f7fc2f6817e52824e03b1e28a6c1bcd051800c632c07e6e884deac3297354",
        "fdba9c84ea169b3440b52f1de264bb53c97acd57fec429ad4461635944bf9b64",
        "3c624f701e998d9b2b1d3d409e0db001b4535e55adbd7337a5826e04e3529a35",
        "d6274b4febdf58d53621f4f8ef6fc596a7c68bbbeea1896e5d338135d7c2cbc0",
        "fa6f7fc2f6817e52824e03b1e28a6c1bcd051800c632c07e6e884deac3297354",
        "fdba9c84ea169b3440b52f1de264bb53c97acd57fec429ad4461635944bf9b64",
        "3c624f701e998d9b2b1d3d409e0db001b4535e55adbd7337a5826e04e3529a35",
    ],
    "cluster": [
        "100da5ded20cc33892907f7a9777656c0a5f72f0c8c4edd38e46a68fe40534cd",
        "5f4507776a9aa2f1427e5590166cffeadd6f1bb261b7a6449aaab6ab36b27e23",
        "ad69df3344e6a3f63173a08fb9871cf8a103b9ac65c3ed95de3a4395e0df736c",
        "0a3c3964dce35b741d4204a69d63c06201d439d136c369783ecb854b98031e50",
        "2f39d1e4fe7d7d8bd6558045fa3506c6ac2cc847b9da322464b0f8fb75db52bf",
        "9f0679266b506417136c49acc9095686ca8bacfd44771f09494c79770a3a72c3",
        "fd0cfadaccb296b9d04b46c89d60914d60536ce0edf43298bfdd643a9a201e7b",
        "cc2eb88e8f38cec5c9b2d88a62acc931b7412632b52ee3dc5ff8e2e228ae9202",
        "5dfe0a5bad61766d19960cd9f8c4e7cff925527843013543bfb810bd676e689e",
        "d6274b4febdf58d53621f4f8ef6fc596a7c68bbbeea1896e5d338135d7c2cbc0",
        "7de58cd377c4bae0cf139a459b3ce8fb41c6ee48e4449f84a6625d39958d94a9",
        "fdba9c84ea169b3440b52f1de264bb53c97acd57fec429ad4461635944bf9b64",
        "3c624f701e998d9b2b1d3d409e0db001b4535e55adbd7337a5826e04e3529a35",
        "d6274b4febdf58d53621f4f8ef6fc596a7c68bbbeea1896e5d338135d7c2cbc0",
        "7de58cd377c4bae0cf139a459b3ce8fb41c6ee48e4449f84a6625d39958d94a9",
        "fdba9c84ea169b3440b52f1de264bb53c97acd57fec429ad4461635944bf9b64",
        "3c624f701e998d9b2b1d3d409e0db001b4535e55adbd7337a5826e04e3529a35",
    ],
}


def edge_bodies(dots_stack, urls, *, debug: bool = False, **cluster) -> list[bytes]:
    """The bodies a fresh stack over ``dots_stack``'s backend answers
    ``urls`` with, ``query_ms`` written as 0."""
    from repro.serving import build_service

    service = build_service(dots_stack.backend.config, backend=dots_stack.backend, **cluster)
    try:
        app = create_app(service)
        app.config["TESTING"] = True
        app.debug = debug
        client = app.test_client()
        bodies = [client.get(url) for url in urls]
    finally:
        service.close()
    assert all(body.status_code == 200 for body in bodies)
    assert all(body.mimetype == "application/json" for body in bodies)
    return [re.sub(rb'"query_ms":[^,}]+', b'"query_ms":0', body.get_data()) for body in bodies]


def edge_digests(dots_stack) -> dict[str, list[str]]:
    """Each topology's :data:`EDGE_GOLDEN` list, read afresh."""
    urls = TestRowOrderAtTheEdge._urls(dots_stack)
    topologies = {"single": {}, "cluster": {"tile_sizes": (512,), "shard_count": 2}}
    return {
        topology: [
            hashlib.sha256(body).hexdigest()
            for body in edge_bodies(dots_stack, urls, **cluster)
        ]
        for topology, cluster in topologies.items()
    }


class TestOneJSONForm:
    """Every body is one ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
    and a newline, whatever the app's debug flag says."""

    def test_the_edge_answers_its_golden_bytes(self, dots_stack):
        assert edge_digests(dots_stack) == EDGE_GOLDEN

    def test_a_debug_app_answers_byte_identically(self, dots_stack):
        urls = TestRowOrderAtTheEdge._urls(dots_stack)[:3] + ["/app", "/canvas/dots"]
        debug = edge_bodies(dots_stack, urls, debug=True)
        assert debug == edge_bodies(dots_stack, urls)
        assert all(body.endswith(b"}\n") for body in debug)


class TestStatsSerialization:
    def test_cluster_router_stats_serialize_to_real_json(self, dots_stack):
        from repro.cluster import build_cluster

        cluster = build_cluster(dots_stack.backend, shard_count=2, replicas=2)
        app = create_app(cluster.router)
        app.config["TESTING"] = True
        try:
            client = app.test_client()
            client.get("/dbox?canvas=dots&layer=0&xmin=0&ymin=0&xmax=256&ymax=256")
            client.get("/dbox?canvas=dots&layer=0&xmin=0&ymin=0&xmax=256&ymax=256")
            payload = client.get("/stats").get_json()
            # A cold reset: every stats object on the serving path.
            router = cluster.router
            router.stats.reset()
            router.cache.stats.reset()
            router.coalescer.stats.reset()
            for replica_set in router.replica_sets().values():
                replica_set.stats.reset()
            after_reset = client.get("/stats").get_json()
        finally:
            cluster.close()
        assert payload["scatter_gathers"] == 1
        # Each layer's own counters, served beside the scatter-gather's.
        assert payload["cache"]["hits"] == payload["cache"]["misses"] == 1
        assert payload["coalescer"] == {"leaders": 1, "followers": 0}
        replica_sets = payload["replica_sets"]
        assert set(replica_sets) == {"0", "1"}
        attempts = sum(
            counts.get(f"replica{index}_requests", 0)
            for counts in replica_sets.values()
            for index in range(2)
        )
        assert attempts == payload["shard_queries"] > 0
        # Nested dicts survive as dicts (keys become strings in JSON).
        assert isinstance(payload["per_shard_requests"], dict)
        assert isinstance(payload["fanout"], dict)
        # What is true of the generation being served is reported beside
        # the traffic counters, and a counter reset does not touch it.
        assert payload["epoch"] == 0
        # The shard regions are a fact of the generation too (a cluster's
        # /canvas is the plan's, like any other topology's).
        assert payload["partitionings"] == json.loads(
            json.dumps({"dots": router.partitionings["dots"].describe()})
        )
        assert len(payload["partitionings"]["dots"]["regions"]) == 2
        assert after_reset["scatter_gathers"] == 0
        assert after_reset["cache"]["hits"] == after_reset["cache"]["misses"] == 0
        assert after_reset["coalescer"] == {"leaders": 0, "followers": 0}
        assert after_reset["replica_sets"] == {"0": {}, "1": {}}
        assert after_reset["epoch"] == payload["epoch"]

    def test_nested_non_dataclass_stats_are_recursed(self, dots_stack):
        # A stats object mixing every shape the serving layers produce:
        # snapshot() methods, dataclasses, dicts, lists and scalars.
        from dataclasses import dataclass
        from types import SimpleNamespace

        @dataclass
        class Inner:
            hits: int = 3

        class Snapshotting:
            def snapshot(self):
                return {"inner": Inner(), "values": [1, 2.5, None], "label": "x"}

        class Stats:
            def snapshot(self):
                return {"nested": Snapshotting(), "requests": 7}

        service = SimpleNamespace(
            compiled=dots_stack.backend.compiled, stats=Stats()
        )
        app = create_app(service)
        app.config["TESTING"] = True
        payload = app.test_client().get("/stats").get_json()
        assert payload["requests"] == 7
        assert payload["nested"]["inner"]["hits"] == 3
        assert payload["nested"]["values"] == [1, 2.5, None]
        assert payload["nested"]["label"] == "x"


def _box_url(rect, margin: float = 16.0) -> str:
    """A /dbox URL for a box well inside ``rect``."""
    return (
        f"/dbox?canvas=dots&layer=0&xmin={rect.xmin + margin}&ymin={rect.ymin + margin}"
        f"&xmax={rect.xmin + 8 * margin}&ymax={rect.ymin + 8 * margin}"
    )


class TestShardOutage:
    """Shard 0 is out: every replica faulted, or its worker process killed.

    Canvas metadata is the compiled plan's, so it answers as a single
    backend does; a fetch over the dead shard is the server's failure, a
    503; bad input is still the caller's, a 400.
    """

    @pytest.fixture(params=["threads", "processes"])
    def outage(self, request, dots_stack):
        from repro.cluster.router import ClusterRouter
        from repro.serving import (
            FaultSchedule,
            build_service,
            fault_replica,
            kill_worker,
            unwrap,
        )

        config = dots_stack.backend.config
        if request.param == "threads":
            service = build_service(
                config, backend=dots_stack.backend, shard_count=2, replicas=2
            )
            router = unwrap(service, ClusterRouter)
            replica_set = router.replica_sets()[0]
            for index in range(replica_set.replica_count):
                fault_replica(replica_set, index, FaultSchedule.fail_always())
        else:
            service = build_service(
                config, backend=dots_stack.backend, shard_count=2,
                worker_mode="processes",
            )
            router = unwrap(service, ClusterRouter)
            kill_worker(router, 0)
        app = create_app(service)
        app.config["TESTING"] = True
        try:
            yield app.test_client(), router
        finally:
            service.close()

    def test_canvas_metadata_survives_a_dead_shard(self, outage, client):
        cluster_client, _ = outage
        response = cluster_client.get("/canvas/dots")
        assert response.status_code == 200
        assert response.get_json() == client.get("/canvas/dots").get_json()

    def test_a_fetch_over_the_dead_shard_is_a_503(self, outage):
        cluster_client, router = outage
        regions = router.partitionings["dots"]
        response = cluster_client.get(_box_url(regions.region(0).rect))
        assert response.status_code == 503
        assert "error" in response.get_json()
        # The live shard keeps serving its own region.
        assert cluster_client.get(_box_url(regions.region(1).rect)).status_code == 200

    def test_bad_input_is_still_a_400(self, outage):
        cluster_client, _ = outage
        assert cluster_client.get("/canvas/nope").status_code == 400
        bad_design = cluster_client.get(
            "/tile?canvas=dots&layer=0&tile_id=0&tile_size=512&design=quantum"
        )
        assert bad_design.status_code == 400
        for field, value in (("xmax", "inf"), ("xmin", "nan")):
            bounds = {"xmin": "3", "ymin": "3", "xmax": "515", "ymax": "515", field: value}
            query = "&".join(f"{name}={text}" for name, text in bounds.items())
            response = cluster_client.get(f"/dbox?canvas=dots&layer=0&{query}")
            assert response.status_code == 400
            assert f"box bound {field} must be finite" in response.get_json()["error"]


class TestClosedCluster:
    """A closed router refuses every request that reaches its scatter with
    one typed error, whatever the topology or the fan-out; HTTP says 503."""

    @pytest.fixture(params=["threads", "processes"])
    def closed(self, request, dots_stack):
        from repro.cluster.router import ClusterRouter
        from repro.serving import build_service, unwrap

        service = build_service(
            dots_stack.backend.config, backend=dots_stack.backend, shard_count=2,
            worker_mode=request.param,
        )
        router = unwrap(service, ClusterRouter)
        app = create_app(service)
        app.config["TESTING"] = True
        service.close()
        return app.test_client(), router

    @pytest.mark.parametrize("fanout", [1, 2])
    def test_every_fanout_is_refused_the_same_typed_way(self, closed, dots_stack, fanout):
        from repro.errors import ServiceClosedError

        cluster_client, router = closed
        region = router.partitionings["dots"].region(0).rect
        if fanout == 1:
            box = (region.xmin + 16, region.ymin + 16, region.xmin + 128, region.ymin + 128)
        else:
            plan = dots_stack.compiled.canvas_plan("dots")
            box = (0.0, 0.0, plan.width, plan.height)
        request = DataRequest(
            canvas_id="dots", layer_index=0,
            granularity="box", xmin=box[0], ymin=box[1], xmax=box[2], ymax=box[3],
        )
        rect = router.request_rect(request)
        assert len(router.partitionings["dots"].shards_for_rect(rect)) == fanout
        with pytest.raises(ServiceClosedError, match="closed"):
            router.handle(request)
        query = "&".join(
            f"{name}={value}" for name, value in zip(("xmin", "ymin", "xmax", "ymax"), box)
        )
        response = cluster_client.get(f"/dbox?canvas=dots&layer=0&{query}")
        assert response.status_code == 503
        assert "closed" in response.get_json()["error"]


class TestTelemetryEndpoints:
    @pytest.fixture()
    def traced_client(self, dots_stack):
        from repro.telemetry import configure

        configure(enabled=True)
        app = create_app(dots_stack.service)
        app.config["TESTING"] = True
        yield app.test_client()
        configure(enabled=False)

    def test_metrics_endpoint_serves_prometheus_text(self, traced_client):
        # An unusual box: the session-scoped stack's cache must miss so the
        # worker-side execute span is actually recorded.
        traced_client.get(
            "/dbox?canvas=dots&layer=0&xmin=3&ymin=9&xmax=217&ymax=221"
        )
        response = traced_client.get("/metrics")
        assert response.status_code == 200
        assert response.content_type.startswith("text/plain")
        body = response.get_data(as_text=True)
        assert "# TYPE kyrix_span_duration_ms histogram" in body
        assert 'kyrix_span_duration_ms_bucket{span="cache",le="+Inf"} 1' in body
        assert 'kyrix_span_duration_ms_count{span="execute"} 1' in body
        assert 'quantile="p99"' in body

    def test_trace_endpoint_returns_one_trace(self, traced_client):
        from repro.telemetry import get_tracer

        traced_client.get(
            "/dbox?canvas=dots&layer=0&xmin=11&ymin=13&xmax=301&ymax=307"
        )
        trace_id = get_tracer().last_trace()["trace_id"]
        response = traced_client.get(f"/trace/{trace_id}")
        assert response.status_code == 200
        payload = response.get_json()
        assert payload["trace_id"] == trace_id
        assert {span["name"] for span in payload["spans"]} == {"cache", "execute"}

    def test_trace_endpoint_unknown_id_is_404(self, traced_client):
        response = traced_client.get("/trace/deadbeefdeadbeef")
        assert response.status_code == 404
        assert "error" in response.get_json()

    def test_metrics_endpoint_works_untraced(self, client):
        from repro.telemetry import configure

        configure(enabled=False)
        response = client.get("/metrics")
        assert response.status_code == 200
        assert "# TYPE kyrix_span_duration_ms histogram" in response.get_data(
            as_text=True
        )
