"""Tests for the compiler: constraint checking and plan generation."""

import re

import pytest

from repro.bench.apps import build_dots_application, default_config
from repro.compiler import collect_issues, compile_application, validate
from repro.core import (
    App,
    Canvas,
    ColumnPlacement,
    Jump,
    Layer,
    Transform,
    dot_renderer,
    legend_renderer,
)
from repro.datagen.synthetic import tiny_spec
from repro.errors import ValidationError


def make_valid_app() -> App:
    """A minimal valid two-canvas application."""
    config = default_config(viewport=256)
    app = App(name="demo", config=config)
    for canvas_id in ("overview", "detail"):
        canvas = Canvas(canvas_id=canvas_id, width=4096, height=4096)
        canvas.add_transform(
            Transform(
                transform_id="data",
                query="SELECT tuple_id, x, y, bbox FROM dots",
                columns=("tuple_id", "x", "y", "bbox"),
            )
        )
        layer = Layer("data", False)
        layer.add_placement(ColumnPlacement(x_column="x", y_column="y"))
        layer.add_rendering_func(dot_renderer())
        canvas.add_layer(layer)
        legend = Layer("empty", True)
        legend.add_rendering_func(legend_renderer())
        canvas.add_layer(legend)
        app.add_canvas(canvas)
    app.add_jump(Jump("overview", "detail", "semantic_zoom"))
    app.add_jump(Jump("detail", "overview", "semantic_zoom"))
    app.set_initial_canvas("overview", 0, 0)
    return app


class TestValidator:
    def test_valid_app_has_no_issues(self):
        assert collect_issues(make_valid_app()) == []
        validate(make_valid_app())

    def test_no_canvases(self):
        app = App(name="demo")
        issues = collect_issues(app)
        assert any("no canvases" in issue for issue in issues)

    def test_missing_initial_canvas(self):
        app = make_valid_app()
        app.initial_canvas_id = None
        assert any("initial canvas" in issue for issue in collect_issues(app))

    def test_initial_viewport_outside_canvas(self):
        app = make_valid_app()
        app.set_initial_canvas("overview", 5000, 0)
        assert any("does not fit" in issue for issue in collect_issues(app))

    def test_unknown_transform_reference(self):
        app = make_valid_app()
        app.canvas("overview").add_layer(Layer("nope", False))
        assert any("unknown transform" in issue for issue in collect_issues(app))

    def test_dynamic_layer_without_placement(self):
        app = make_valid_app()
        app.canvas("overview").layers[0].placement = None
        assert any("no placement" in issue for issue in collect_issues(app))

    def test_layer_without_renderer(self):
        app = make_valid_app()
        app.canvas("overview").layers[0].renderer = None
        assert any("no rendering function" in issue for issue in collect_issues(app))

    def test_bad_layer_query(self):
        app = make_valid_app()
        app.canvas("overview").transforms["data"].query = "SELEC x FRM t"
        assert any("does not parse" in issue for issue in collect_issues(app))

    @pytest.mark.parametrize(
        "query, message",
        [
            ("INSERT INTO dots VALUES (1)", "expected SELECT (near 'insert')"),
            ("SELECT x, y FROM dots GROUP BY x, y", "unexpected trailing input (near 'by')"),
            ("SELECT count(x) AS n FROM dots", "unknown function 'count'"),
            ("SELECT x, y FROM dots LEFT JOIN t ON dots.x = t.x", "only inner joins"),
            ("SELECT 1 AS x, 2 AS y", "expected FROM"),
        ],
    )
    def test_a_layer_query_outside_the_dialect_fails_validation(self, query, message):
        """Refused when the application compiles, not when precompute runs it."""
        app = make_valid_app()
        app.canvas("overview").transforms["data"].query = query
        issue = f"canvas 'overview' layer 0: layer query does not parse: {message}"
        assert any(found.startswith(issue) for found in collect_issues(app))
        with pytest.raises(ValidationError, match=re.escape(message)):
            validate(app)

    def test_jump_to_unknown_canvas(self):
        app = make_valid_app()
        app.add_jump(Jump("overview", "missing"))
        assert any("destination canvas is not defined" in i for i in collect_issues(app))

    def test_self_jump_must_be_pan(self):
        app = make_valid_app()
        app.add_jump(Jump("overview", "overview", "semantic_zoom"))
        assert any("self-jumps" in issue for issue in collect_issues(app))

    def test_unreachable_canvas_detected(self):
        app = make_valid_app()
        orphan = Canvas(canvas_id="orphan", width=4096, height=4096)
        legend = Layer("empty", True)
        legend.add_rendering_func(legend_renderer())
        orphan.add_layer(legend)
        app.add_canvas(orphan)
        assert any("unreachable" in issue for issue in collect_issues(app))

    def test_canvas_smaller_than_viewport(self):
        app = make_valid_app()
        app.canvases["overview"].width = 100
        assert any("smaller than" in issue for issue in collect_issues(app))

    def test_bad_fetching_override(self):
        app = make_valid_app()
        app.canvas("overview").layers[0].fetching = "magic"
        assert any("fetching granularity" in issue for issue in collect_issues(app))

    def test_validation_error_carries_all_issues(self):
        app = App(name="demo")
        with pytest.raises(ValidationError) as exc_info:
            validate(app)
        assert len(exc_info.value.issues) >= 1


class TestCompiler:
    def test_compile_valid_app(self):
        compiled = compile_application(make_valid_app())
        assert set(compiled.canvases) == {"overview", "detail"}
        overview = compiled.canvas_plan("overview")
        assert len(overview.layers) == 2
        assert overview.layers[1].static is True

    def test_invalid_app_raises(self):
        with pytest.raises(ValidationError):
            compile_application(App(name="demo"))

    def test_placement_table_names_are_distinct(self):
        compiled = compile_application(make_valid_app())
        tables = {
            layer.placement_table
            for layer in compiled.all_layer_plans()
            if layer.placement_table
        }
        assert len(tables) == 2  # one dynamic layer per canvas

    def test_separable_layer_detected_for_dots_app(self):
        spec = tiny_spec("uniform", num_points=10)
        app = build_dots_application(spec, default_config(viewport=512))
        compiled = compile_application(app)
        layer = compiled.layer_plan("dots", 0)
        assert layer.separable is True
        assert layer.source_table == spec.name
        assert layer.placement_table is None

    def test_non_separable_when_transform_func_present(self):
        app = make_valid_app()
        transform = app.canvas("overview").transforms["data"]
        transform.separable = True
        transform.x_column = "x"
        transform.y_column = "y"
        transform.transform_func = lambda row: row
        compiled = compile_application(app)
        assert compiled.layer_plan("overview", 0).separable is False

    def test_mapping_table_name_per_tile_size(self):
        compiled = compile_application(make_valid_app())
        layer = compiled.layer_plan("overview", 0)
        assert layer.mapping_table_for(1024).endswith("_map_1024")
        assert layer.mapping_table_for(256) != layer.mapping_table_for(1024)

    def test_describe(self):
        compiled = compile_application(make_valid_app())
        description = compiled.describe()
        assert description["app"] == "demo"
        assert "overview" in description["canvases"]
