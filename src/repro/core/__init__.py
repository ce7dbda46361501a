"""The Kyrix declarative model.

This package implements the paper's two basic abstractions — *canvas* and
*jump* — plus the pieces a layer is specified with: a data *transform* (SQL
query + post-processing function), a *placement* function and a *rendering*
function.  An :class:`~repro.core.application.Application` ties them
together, and the JS-flavoured aliases (``App``, ``addCanvas``, ``addJump``,
``initialCanvas`` ...) let the examples read like the paper's Figure 3.

The Python objects are the developer's spec, and its only form: there is
no JSON document of it and no dict summary.  The compiler
(:mod:`repro.compiler`) turns an application into the
:class:`~repro.compiler.plan.CompiledApplication` every server-side layer
serves from.
"""

from .application import App, Application
from .canvas import Canvas
from .jump import Jump, JumpType
from .layer import Layer
from .placement import CallablePlacement, ColumnPlacement, Placement
from .rendering import (
    Renderer,
    choropleth_renderer,
    dot_renderer,
    legend_renderer,
    line_renderer,
    rect_renderer,
)
from .transform import EMPTY_TRANSFORM_ID, Transform
from .viewport import Viewport

__all__ = [
    "App",
    "Application",
    "CallablePlacement",
    "Canvas",
    "ColumnPlacement",
    "EMPTY_TRANSFORM_ID",
    "Jump",
    "JumpType",
    "Layer",
    "Placement",
    "Renderer",
    "Transform",
    "Viewport",
    "choropleth_renderer",
    "dot_renderer",
    "legend_renderer",
    "line_renderer",
    "rect_renderer",
]
