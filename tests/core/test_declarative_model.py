"""Tests for the declarative model: transforms, placements, renderers,
layers, canvases, jumps and the application object."""

import pytest

from repro.config import KyrixConfig
from repro.core import (
    App,
    Application,
    CallablePlacement,
    Canvas,
    ColumnPlacement,
    Jump,
    JumpType,
    Layer,
    Transform,
    Viewport,
    choropleth_renderer,
    dot_renderer,
    legend_renderer,
)
from repro.errors import SpecError
from repro.storage.rtree import Rect


class TestTransform:
    def test_requires_id(self):
        with pytest.raises(SpecError):
            Transform(transform_id="")

    def test_separable_requires_columns(self):
        with pytest.raises(SpecError):
            Transform(transform_id="t", query="SELECT x FROM t", separable=True)

    def test_empty_transform(self):
        transform = Transform.empty()
        assert transform.is_empty
        assert transform.apply({"a": 1}) == {"a": 1}

    def test_apply_runs_function(self):
        transform = Transform(
            transform_id="t",
            query="SELECT x FROM t",
            transform_func=lambda row: {**row, "double": row["x"] * 2},
        )
        assert transform.apply({"x": 3}) == {"x": 3, "double": 6}

    def test_apply_rejects_non_dict_result(self):
        transform = Transform(
            transform_id="t", query="SELECT x FROM t", transform_func=lambda row: [row]
        )
        with pytest.raises(SpecError):
            transform.apply({"x": 1})

    def test_separable_transform_keeps_its_placement_columns(self):
        transform = Transform(
            transform_id="t", query="SELECT x, y FROM t", columns=["x", "y"],
            separable=True, x_column="x", y_column="y",
        )
        assert transform.separable is True
        assert (transform.x_column, transform.y_column) == ("x", "y")
        assert transform.columns == ("x", "y")
        assert transform.transform_func is None


class TestPlacements:
    def test_column_placement_centers_box(self):
        placement = ColumnPlacement(x_column="x", y_column="y", width=4, height=2)
        rect = placement.place({"x": 10, "y": 20})
        assert rect == Rect(8, 19, 12, 21)
        assert placement.separable is True

    def test_column_placement_scaling_and_offset(self):
        placement = ColumnPlacement(
            x_column="x", y_column="y", x_scale=5, y_scale=5, x_offset=-1000, y_offset=-500
        )
        rect = placement.place({"x": 300, "y": 200})
        assert rect.center == (500, 500)

    def test_column_placement_width_from_column(self):
        placement = ColumnPlacement(x_column="x", y_column="y", width="w", height="h")
        rect = placement.place({"x": 0, "y": 0, "w": 10, "h": 20})
        assert rect.width == 10
        assert rect.height == 20

    def test_column_placement_missing_column_raises(self):
        placement = ColumnPlacement(x_column="x", y_column="y")
        with pytest.raises(SpecError):
            placement.place({"y": 1})

    def test_callable_placement(self):
        placement = CallablePlacement(func=lambda row: (row["a"] * 2, 5, 10, 10))
        rect = placement.place({"a": 50})
        assert rect.center == (100, 5)
        assert placement.separable is False

    def test_callable_placement_bad_return_raises(self):
        placement = CallablePlacement(func=lambda row: (1, 2))
        with pytest.raises(SpecError):
            placement.place({})

    def test_callable_placement_negative_size_raises(self):
        placement = CallablePlacement(func=lambda row: (0, 0, -1, 1))
        with pytest.raises(SpecError):
            placement.place({})


class TestRenderers:
    def test_dot_renderer(self):
        renderer = dot_renderer("x", "y", radius=2.0)
        primitives = renderer.render({"x": 1, "y": 2})
        assert primitives[0]["kind"] == "dot"
        assert primitives[0]["radius"] == 2.0

    def test_choropleth_renderer_scales_intensity(self):
        renderer = choropleth_renderer(value_range=(0, 10))
        primitives = renderer.render(
            {"x": 0, "y": 0, "width": 10, "height": 10, "rate": 5, "name": "A"}
        )
        rect = primitives[0]
        assert rect["intensity"] == pytest.approx(0.5)
        assert primitives[1]["kind"] == "label"

    def test_legend_renderer_is_viewport_anchored(self):
        primitives = legend_renderer("crime rate").render({})
        assert primitives[0]["viewport_anchored"] is True

    def test_renderer_rejects_non_list_output(self):
        from repro.core.rendering import Renderer

        renderer = Renderer(name="bad", func=lambda row: {"kind": "dot"})
        with pytest.raises(SpecError):
            renderer.render({})


class TestLayerCanvas:
    def test_layer_requires_transform_id(self):
        with pytest.raises(SpecError):
            Layer(transform_id="")

    def test_layer_js_style_builders(self):
        layer = Layer("t", False)
        layer.addPlacement(ColumnPlacement(x_column="x", y_column="y"))
        layer.addRenderingFunc(dot_renderer())
        assert layer.placement is not None
        assert layer.renderer is not None

    def test_layer_add_placement_type_checked(self):
        with pytest.raises(SpecError):
            Layer("t").add_placement("not a placement")

    def test_empty_layer_needs_no_placement(self):
        layer = Layer("empty", True)
        assert layer.is_empty
        assert not layer.needs_placement

    def test_canvas_rejects_bad_dimensions(self):
        with pytest.raises(SpecError):
            Canvas(canvas_id="c", width=0, height=10)

    def test_canvas_duplicate_transform_rejected(self):
        canvas = Canvas(canvas_id="c", width=100, height=100)
        canvas.add_transform(Transform(transform_id="t", query=""))
        with pytest.raises(SpecError):
            canvas.add_transform(Transform(transform_id="t", query=""))

    def test_canvas_layer_naming_and_lookup(self):
        canvas = Canvas(canvas_id="c", width=100, height=100)
        canvas.add_layer(Layer("empty", True))
        assert canvas.layer(0).name == "c_layer0"
        with pytest.raises(SpecError):
            canvas.layer(5)

    def test_transform_for_unknown_reference_raises(self):
        canvas = Canvas(canvas_id="c", width=100, height=100)
        layer = Layer("missing", False)
        canvas.add_layer(layer)
        with pytest.raises(SpecError):
            canvas.transform_for(layer)

    def test_dynamic_layers_excludes_static_and_empty(self):
        canvas = Canvas(canvas_id="c", width=100, height=100)
        canvas.add_transform(Transform(transform_id="data", query="SELECT x FROM t"))
        canvas.add_layer(Layer("empty", True))
        canvas.add_layer(Layer("data", False))
        assert [index for index, _ in canvas.dynamic_layers] == [1]


class TestJump:
    def test_jump_type_parsing(self):
        assert JumpType.parse("semantic_zoom") is JumpType.SEMANTIC_ZOOM
        assert JumpType.parse(JumpType.PAN) is JumpType.PAN
        with pytest.raises(SpecError):
            JumpType.parse("teleport")

    def test_jump_requires_canvases(self):
        with pytest.raises(SpecError):
            Jump(source="", destination="b")

    def test_selector_and_label(self):
        jump = Jump(
            source="a",
            destination="b",
            jump_type="geometric_semantic_zoom",
            selector=lambda row, layer_id: layer_id == 1,
            name=lambda row: f"County map of {row['name']}",
        )
        assert jump.triggered_by({"name": "MA"}, 1)
        assert not jump.triggered_by({"name": "MA"}, 0)
        assert jump.label_for({"name": "MA"}) == "County map of MA"

    def test_new_viewport_two_and_three_element_forms(self):
        jump2 = Jump("a", "b", new_viewport=lambda row: (row["x"], row["y"]))
        jump3 = Jump("a", "b", new_viewport=lambda row: (0, row["x"] * 5, row["y"] * 5))
        assert jump2.destination_viewport_center({"x": 1, "y": 2}) == (1, 2)
        assert jump3.destination_viewport_center({"x": 1, "y": 2}) == (5, 10)

    def test_new_viewport_bad_return_raises(self):
        jump = Jump("a", "b", new_viewport=lambda row: "nope")
        with pytest.raises(SpecError):
            jump.destination_viewport_center({})

    def test_default_viewport_center_is_none(self):
        assert Jump("a", "b").destination_viewport_center({}) is None


class TestApplication:
    def test_app_alias(self):
        assert App is Application

    def test_duplicate_canvas_rejected(self):
        app = App(name="demo")
        app.add_canvas(Canvas(canvas_id="c", width=100, height=100))
        with pytest.raises(SpecError):
            app.add_canvas(Canvas(canvas_id="c", width=100, height=100))

    def test_jumps_from_and_to(self):
        app = App(name="demo")
        app.add_jump(Jump("a", "b"))
        app.add_jump(Jump("b", "a"))
        assert len(app.jumps_from("a")) == 1
        assert app.jumps_to("a")[0].source == "b"

    def test_initial_viewport_requires_initial_canvas(self):
        app = App(name="demo", config=KyrixConfig(viewport_width=100, viewport_height=100))
        with pytest.raises(SpecError):
            app.initial_viewport()
        app.initialCanvas("c", 10, 20)
        viewport = app.initial_viewport()
        assert viewport == Viewport(10, 20, 100, 100)

    def test_unknown_canvas_lookup_raises(self):
        app = App(name="demo")
        with pytest.raises(SpecError):
            app.canvas("missing")

    def test_registered_canvases_and_jumps_are_reachable(self):
        app = App(name="demo")
        canvas = Canvas(canvas_id="c", width=100, height=100)
        app.add_canvas(canvas)
        app.add_jump(Jump("c", "c", jump_type="pan"))
        assert list(app.canvases) == ["c"]
        assert app.canvas("c") is canvas
        assert [jump.jump_type for jump in app.jumps] == [JumpType.PAN]

    def test_the_config_is_left_as_handed_in(self):
        config = KyrixConfig()
        app = App(name="demo", config=config)
        assert app.name == "demo"
        assert config == KyrixConfig()
