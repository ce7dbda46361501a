"""Tests for the Flask HTTP deployment of the backend."""

import json

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
        # carries the same objects the service's own JSON encoding does, and
        # the cached batch answers the second request with the same body.
        url = "/dbox?canvas=dots&layer=0&xmin=7&ymin=7&xmax=519&ymax=519"
        payload = client.get(url).get_json()
        request = DataRequest(
            app_name=dots_stack.compiled.app_name, canvas_id="dots", layer_index=0,
            granularity="box", xmin=7.0, ymin=7.0, xmax=519.0, ymax=519.0,
        )
        served = dots_stack.service.handle(request)
        assert served.from_cache and isinstance(served.objects, RowBatch)
        assert payload["objects"] == json.loads(served.to_json())["objects"]
        assert payload["count"] == len(served.objects) > 0
        assert set(payload["objects"][0]) >= {"tuple_id", "bbox"}
        assert client.get(url).get_json()["objects"] == payload["objects"]
        assert served.payload_size() == len(served.to_json().encode("utf-8"))

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
