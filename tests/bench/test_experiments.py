"""Integration tests of the canned experiments at tiny scale.

These exercise the same code paths as the pytest-benchmark targets but on a
small dataset, and check the qualitative claims the paper makes (who wins,
in which direction the ablations move) rather than absolute numbers.
"""

import pytest

from repro.client.frontend import KyrixFrontend
from repro.client.session import SessionResult
from repro.core.viewport import Viewport
from repro.datagen.traces import paper_traces
from repro.net.protocol import DataRequest
from repro.serving.base import ServiceMiddleware
from repro.bench.apps import build_dots_backend, default_config
from repro.bench.experiments import (
    build_stack,
    dataset_for_scale,
    fetch_footprint,
    figure6,
    figure7,
    prefetch_cache_ablation,
    replay,
    separability_ablation,
)
from repro.datagen.synthetic import tiny_spec
from repro.serving.base import stack_layers
from repro.server.prefetch import MomentumPrefetcher
from repro.server.schemes import (
    dbox50_scheme,
    dbox_scheme,
    tile_mapping_scheme,
    tile_spatial_scheme,
)


@pytest.fixture(scope="module")
def tiny_uniform_stack():
    return build_stack("uniform", scale="tiny", tile_sizes=(1024,))


@pytest.fixture(scope="module")
def tiny_skewed_stack():
    return build_stack("skewed", scale="tiny", tile_sizes=(1024,))


class TestScales:
    def test_dataset_for_scale(self):
        assert dataset_for_scale("uniform", "paper").num_points == 100_000_000
        assert dataset_for_scale("skewed", "tiny").skewed is True
        assert dataset_for_scale("uniform", "bench").num_points >= 100_000

    def test_tiny_canvas_fits_paper_traces(self):
        spec = dataset_for_scale("uniform", "tiny")
        from repro.datagen.traces import paper_traces

        traces = paper_traces(spec.canvas_width, spec.canvas_height)
        assert set(traces) == {"a", "b", "c"}


class RecordingService(ServiceMiddleware):
    """Notes how many objects each answered request carried."""

    def __init__(self, inner):
        super().__init__(inner)
        self.object_counts: list[int] = []

    def handle(self, request):
        response = self.inner.handle(request)
        self.object_counts.append(response.object_count())
        return response


class TestMeasuredAndModelledTime:
    """``network_ms`` is the one modelled term: a pure function of the
    requests a step issued and the objects they returned, so a replay is
    identical to the byte; everything else in a step is a stopwatch."""

    @pytest.mark.parametrize(
        "scheme", [dbox_scheme(), tile_spatial_scheme(1024)], ids=lambda s: s.name
    )
    def test_a_replayed_trace_has_identical_modelled_quantities(
        self, tiny_uniform_stack, scheme
    ):
        spec = tiny_uniform_stack.spec
        trace = paper_traces(spec.canvas_width, spec.canvas_height)["b"]

        def replay() -> list[tuple[int, int, int, float]]:
            service = RecordingService(tiny_uniform_stack.service)
            frontend = KyrixFrontend(service, scheme)
            link = frontend.link
            steps = []
            for x, y in trace.positions:
                answered = len(service.object_counts)
                if frontend.viewport is None:
                    step = frontend.load_canvas("dots", Viewport(x, y, 1024, 1024))
                else:
                    step = frontend.pan_to(x, y)
                payloads = [
                    link.estimate_object_payload(count)
                    for count in service.object_counts[answered:]
                ]
                assert step.requests == len(payloads)
                assert step.bytes_fetched == sum(payloads)
                assert step.network_ms == sum(link.round_trip_ms(p) for p in payloads)
                steps.append(
                    (step.requests, step.objects_fetched, step.bytes_fetched, step.network_ms)
                )
            return steps

        first, second = replay(), replay()
        assert first == second
        assert sum(requests for requests, *_ in first) > 0


class TestReplay:
    """``replay`` is the one measurement loop behind every figure."""

    def test_a_three_step_trace(self, dots_stack):
        viewport = dots_stack.backend.config.viewport_width
        start_x = dots_stack.spec.canvas_width - viewport - 3 * 512
        positions = [(start_x + i * 512, 512.0) for i in range(4)]
        result = replay(dots_stack, dbox_scheme(), positions)
        assert result.steps == 3
        assert result.total_requests() >= 3
        assert result.average_response_ms > 0

    @pytest.mark.parametrize("shard_count", [None, 2], ids=["single", "cluster"])
    def test_replay_is_a_cold_start(self, shard_count):
        """Replayed twice, a trace issues the same requests for the same
        objects, and the second replay finds nothing in a server-side cache:
        every cache on the serving path was emptied before it ran."""
        config = default_config(viewport=512)
        if shard_count is not None:
            config.cluster.enabled = True
            config.cluster.shard_count = shard_count
        stack = build_dots_backend(tiny_spec("uniform", num_points=1_000, seed=5), config=config)
        positions = [(0.0, 0.0), (512.0, 0.0), (1024.0, 256.0), (1536.0, 512.0)]

        def modelled(result) -> list[tuple[int, int, int, float]]:
            return [
                (s.requests, s.objects_fetched, s.bytes_fetched, s.network_ms)
                for s in result.metrics.steps
            ]

        caches = [
            layer.cache for layer in stack_layers(stack.service)
            if getattr(layer, "cache", None) is not None
        ]
        try:
            first = replay(stack, dbox_scheme(), positions)
            second = replay(stack, dbox_scheme(), positions)
        finally:
            stack.service.close()
        assert modelled(first) == modelled(second)
        assert sum(step[0] for step in modelled(second)) == 3
        assert caches and sum(cache.stats.hits for cache in caches) == 0
        assert not any(step.cache_hit for step in second.metrics.steps)

    def test_a_figure_is_one_replay_per_scheme_and_trace(self, tiny_uniform_stack):
        spec = tiny_uniform_stack.spec
        traces = paper_traces(spec.canvas_width, spec.canvas_height)
        schemes = [dbox_scheme(), tile_spatial_scheme(1024)]
        figure = figure6(stack=tiny_uniform_stack, schemes=schemes)
        assert set(figure) == {(s.name, t) for s in schemes for t in traces}
        for (_, trace), result in figure.items():
            assert isinstance(result, SessionResult)
            assert result.steps == len(traces[trace].positions) - 1
            assert len(result.metrics) == result.steps

    def test_replay_hands_its_prefetcher_to_the_frontend(self, tiny_uniform_stack):
        spec = tiny_uniform_stack.spec
        positions = paper_traces(spec.canvas_width, spec.canvas_height)["a"].positions
        plain = replay(tiny_uniform_stack, dbox_scheme(), positions)
        handed = replay(
            tiny_uniform_stack, dbox_scheme(), positions, prefetcher=MomentumPrefetcher()
        )
        assert plain.prefetch_requests == 0
        assert handed.prefetch_requests > 0


class TestFigure6And7:
    """The figures' shape on what does not depend on the box's speed:
    ``requests``, ``objects`` and the modelled ``network_ms`` (a pure function
    of the other two).  Stopwatch orderings belong in an artifact."""

    SCHEMES = [dbox_scheme(), dbox50_scheme(), tile_spatial_scheme(1024), tile_mapping_scheme(1024)]

    def assert_dbox_wins(self, figure) -> None:
        assert len(figure) == len(self.SCHEMES) * 3

        def network_ms(result) -> float:
            return result.component_averages()["network_ms"]

        for trace in ("a", "b", "c"):
            dbox = figure[("dbox", trace)]
            # One request per step, and nobody is cheaper on any trace.
            assert dbox.total_requests() == dbox.steps
            for scheme in self.SCHEMES:
                other = figure[(scheme.name, trace)]
                assert dbox.total_requests() <= other.total_requests()
                assert dbox.total_objects() <= other.total_objects()
                assert network_ms(dbox) <= network_ms(other)
        # The headline claim: dbox has the best overall (mean) performance.
        network = {
            s.name: sum(network_ms(figure[(s.name, trace)]) for trace in ("a", "b", "c"))
            for s in self.SCHEMES
        }
        assert all(network["dbox"] < ms for name, ms in network.items() if name != "dbox")

    def test_figure6_dbox_wins_overall(self, tiny_uniform_stack):
        self.assert_dbox_wins(figure6(stack=tiny_uniform_stack, schemes=self.SCHEMES))

    def test_figure7_dbox_wins_on_skewed_data(self, tiny_skewed_stack):
        self.assert_dbox_wins(figure7(stack=tiny_skewed_stack, schemes=self.SCHEMES))

    def test_tile_spatial_1024_competitive_on_aligned_trace(self, tiny_uniform_stack):
        """Paper observation (2): on trace a the aligned 1024 tiles are
        competitive — better than dbox 50%: as many requests, fewer objects."""
        figure = figure6(
            stack=tiny_uniform_stack,
            schemes=[dbox50_scheme(), tile_spatial_scheme(1024)],
        )
        tiles, dbox50 = figure[("tile spatial 1024", "a")], figure[("dbox 50%", "a")]
        assert tiles.total_requests() == dbox50.total_requests()
        assert tiles.total_objects() < dbox50.total_objects()
        assert (
            tiles.component_averages()["network_ms"]
            < dbox50.component_averages()["network_ms"]
        )

    def test_mapping_design_does_the_spatial_designs_work_twice_over(
        self, tiny_uniform_stack, monkeypatch
    ):
        """Section 3.1's argument for the spatial design, counted, not timed.

        For the same tile and identical objects the tuple-tile mapping design
        makes ``1 + n`` B-tree probes (one for the tile id, one per mapped
        tuple id) and reads ``2n`` heap records (``n`` mapping rows, ``n``
        records); the spatial design makes one R-tree probe, no B-tree probe
        and reads ``n``.  On wall clock the two tie at this scale (see
        ``docs/architecture.md``), which is why this is not a stopwatch test.
        """
        backend, database = tiny_uniform_stack.backend, tiny_uniform_stack.database
        plan = next(p for p in backend.compiled.all_layer_plans() if not p.static)
        records = database.table(plan.placement_table or plan.source_table)
        mapping = database.table(plan.mapping_table_for(1024))
        by_tile = mapping.find_index_on("tile_id", kinds=("btree",)).index
        by_tuple = records.find_index_on("tuple_id", kinds=("btree",)).index
        rtree = records.find_index_on("bbox", kinds=("rtree",)).index

        heap_records = 0
        for table in (records, mapping):
            def counting(rids, fetch_many=table.fetch_many):
                nonlocal heap_records
                heap_records += len(rids)
                return fetch_many(rids)

            monkeypatch.setattr(table, "fetch_many", counting)

        btree_probes = 0  # one per key looked up, one at a time or in a batch
        for index in (by_tile, by_tuple):
            def counting_search(key, search=index.search):
                nonlocal btree_probes
                btree_probes += 1
                return search(key)

            def counting_search_many(keys, search_many=index.search_many):
                nonlocal btree_probes
                btree_probes += len(keys)
                return search_many(keys)

            monkeypatch.setattr(index, "search", counting_search)
            monkeypatch.setattr(index, "search_many", counting_search_many)

        rtree_searches = 0

        def counting_rtree_search(query, search=rtree.search):
            nonlocal rtree_searches
            rtree_searches += 1
            return search(query)

        monkeypatch.setattr(rtree, "search", counting_rtree_search)

        def work(design: str, tile_id: int) -> tuple[list, int, int, int]:
            """The objects of one tile, and the (B-tree, R-tree, heap) work they cost."""
            before = (btree_probes, rtree_searches, heap_records)
            request = DataRequest(
                "dots", 0, "tile", design=design, tile_id=tile_id, tile_size=1024
            )
            objects = backend.handle(request).objects
            after = (btree_probes, rtree_searches, heap_records)
            return (sorted(objects, key=lambda o: o["tuple_id"]),
                    *(b - a for a, b in zip(before, after)))

        tile_ids = list(by_tile.keys())[:12]
        assert len(tile_ids) == 12
        for tile_id in tile_ids:
            objects, btree_probes, rtree_probes, heap = work("spatial", tile_id)
            n = len(objects)
            assert n > 0
            assert (btree_probes, rtree_probes, heap) == (0, 1, n)
            assert work("mapping", tile_id) == (objects, 1 + n, 0, 2 * n)


class TestFootprint:
    def test_footprint_counts(self, tiny_uniform_stack):
        results = fetch_footprint(stack=tiny_uniform_stack, tile_sizes=(1024, 4096))
        by_key = {(r.scheme, r.trace): r for r in results}
        # Dynamic boxes fetch exactly the viewports on every trace.
        for trace in ("a", "b", "c"):
            dbox = by_key[("dbox", trace)]
            assert dbox.overfetch_ratio == pytest.approx(1.0, rel=0.01)
            # Big tiles fetch far more area than the viewports need.
            assert by_key[("tile 4096", trace)].overfetch_ratio > 3.0
        # Misaligned trace b needs more tile requests than aligned trace a.
        assert by_key[("tile 1024", "b")].requests >= by_key[("tile 1024", "a")].requests
        # dbox 50% fetches more area than plain dbox.
        assert (
            by_key[("dbox 50%", "a")].fetched_area
            > by_key[("dbox", "a")].fetched_area
        )


class TestAblations:
    def test_prefetch_and_cache_help_dbox(self, tiny_uniform_stack):
        by_variant = prefetch_cache_ablation(stack=tiny_uniform_stack, trace_name="a")
        assert set(by_variant) == {"no-cache", "cache", "cache+momentum"}
        # Returning along the same trace, caching cannot be slower than no
        # caching, and momentum prefetching issues prefetch requests.
        assert (
            by_variant["cache"].average_response_ms
            <= by_variant["no-cache"].average_response_ms * 1.5
        )
        assert by_variant["cache+momentum"].prefetch_requests > 0
        assert (
            by_variant["cache"].metrics.cache_hit_rate()
            >= by_variant["no-cache"].metrics.cache_hit_rate()
        )

    def test_separability_skips_precompute_cost(self):
        results = separability_ablation(scale="tiny")
        by_variant = {r.variant: r for r in results}
        assert set(by_variant) == {"separable", "precomputed"}
        # Skipping placement precomputation must be cheaper to set up, while
        # query latency stays in the same ballpark.
        assert (
            by_variant["separable"].precompute_ms
            < by_variant["precomputed"].precompute_ms
        )
        assert by_variant["separable"].average_response_ms > 0
