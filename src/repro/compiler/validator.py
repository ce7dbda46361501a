"""Constraint checking of declarative specifications.

"The compiler parses developers' specification and performs basic constraint
checkings."  The validator collects *every* problem it finds before raising,
so a developer can fix a whole specification in one pass.
"""

from __future__ import annotations

from ..core.application import Application
from ..core.jump import JumpType
from ..errors import SQLError, ValidationError
from ..minisql.parser import parse


def collect_issues(app: Application) -> list[str]:
    """Return every constraint violation found in ``app`` (empty = valid)."""
    issues: list[str] = []
    issues.extend(_check_application(app))
    for canvas_id, canvas in app.canvases.items():
        issues.extend(_check_canvas(app, canvas_id))
    issues.extend(_check_jumps(app))
    return issues


def validate(app: Application) -> None:
    """Raise :class:`~repro.errors.ValidationError` when the spec is invalid."""
    issues = collect_issues(app)
    if issues:
        raise ValidationError(issues)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_application(app: Application) -> list[str]:
    issues: list[str] = []
    if not app.canvases:
        issues.append("application defines no canvases")
        return issues
    if app.initial_canvas_id is None:
        issues.append("initial canvas has not been set (call initialCanvas)")
    elif app.initial_canvas_id not in app.canvases:
        issues.append(
            f"initial canvas {app.initial_canvas_id!r} is not a defined canvas"
        )
    else:
        canvas = app.canvases[app.initial_canvas_id]
        viewport_w = app.config.viewport_width
        viewport_h = app.config.viewport_height
        if (
            app.initial_viewport_x < 0
            or app.initial_viewport_y < 0
            or app.initial_viewport_x + viewport_w > canvas.width
            or app.initial_viewport_y + viewport_h > canvas.height
        ):
            issues.append(
                f"initial viewport ({app.initial_viewport_x}, {app.initial_viewport_y}, "
                f"{viewport_w}x{viewport_h}) does not fit inside canvas "
                f"{app.initial_canvas_id!r} ({canvas.width}x{canvas.height})"
            )
    try:
        app.config.validate()
    except Exception as exc:  # noqa: BLE001 - surface as a spec issue
        issues.append(f"invalid configuration: {exc}")
    return issues


def _check_canvas(app: Application, canvas_id: str) -> list[str]:
    issues: list[str] = []
    canvas = app.canvases[canvas_id]
    if not canvas.layers:
        issues.append(f"canvas {canvas_id!r} has no layers")
    viewport_w = app.config.viewport_width
    viewport_h = app.config.viewport_height
    if canvas.width < viewport_w or canvas.height < viewport_h:
        issues.append(
            f"canvas {canvas_id!r} ({canvas.width}x{canvas.height}) is smaller than "
            f"the viewport ({viewport_w}x{viewport_h})"
        )
    for index, layer in enumerate(canvas.layers):
        label = f"canvas {canvas_id!r} layer {index}"
        if layer.transform_id not in canvas.transforms and not layer.is_empty:
            issues.append(
                f"{label}: references unknown transform {layer.transform_id!r}"
            )
            continue
        transform = canvas.transform_for(layer)
        if layer.needs_placement and layer.placement is None:
            issues.append(f"{label}: dynamic layer has no placement function")
        if layer.renderer is None:
            issues.append(f"{label}: layer has no rendering function")
        if not layer.is_empty and transform.query:
            issues.extend(_check_query(label, transform.query))
        if layer.fetching is not None and layer.fetching not in (
            "tile", "dbox", "dbox50",
        ):
            issues.append(
                f"{label}: unknown fetching granularity {layer.fetching!r} "
                "(expected 'tile', 'dbox' or 'dbox50')"
            )
    return issues


def _check_query(label: str, query: str) -> list[str]:
    """A layer query must be in the dialect: the parser's message says why not."""
    try:
        parse(query)
    except SQLError as exc:
        return [f"{label}: layer query does not parse: {exc}"]
    return []


def _check_jumps(app: Application) -> list[str]:
    issues: list[str] = []
    for index, jump in enumerate(app.jumps):
        label = f"jump {index} ({jump.source!r} -> {jump.destination!r})"
        if jump.source not in app.canvases:
            issues.append(f"{label}: source canvas is not defined")
        if jump.destination not in app.canvases:
            issues.append(f"{label}: destination canvas is not defined")
        if not isinstance(jump.jump_type, JumpType):
            issues.append(f"{label}: invalid jump type {jump.jump_type!r}")
        if jump.source == jump.destination and jump.jump_type is not JumpType.PAN:
            issues.append(
                f"{label}: self-jumps must use the 'pan' transition type"
            )
    # Reachability: every canvas other than the initial one should be the
    # destination of at least one jump, otherwise users can never see it.
    if app.initial_canvas_id in app.canvases:
        reachable = {app.initial_canvas_id}
        frontier = [app.initial_canvas_id]
        while frontier:
            current = frontier.pop()
            for jump in app.jumps_from(current):
                if jump.destination in app.canvases and jump.destination not in reachable:
                    reachable.add(jump.destination)
                    frontier.append(jump.destination)
        for canvas_id in app.canvases:
            if canvas_id not in reachable:
                issues.append(
                    f"canvas {canvas_id!r} is unreachable from the initial canvas"
                )
    return issues
