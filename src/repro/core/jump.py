"""Jumps: customised transitions between canvases.

"A jump transition can be established simply by specifying a from canvas, a
to canvas and a transition type (right now it can be geometric zoom, semantic
zoom or both)."  Jumps can further be customised with a *selector* (which
objects on the source canvas trigger the jump), a *new-viewport* function
(where the destination viewport lands, as a function of the clicked object's
row) and a *name* function (the label shown to the user).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import SpecError


class JumpType(enum.Enum):
    """The transition types supported by the declarative language."""

    PAN = "pan"
    GEOMETRIC_ZOOM = "geometric_zoom"
    SEMANTIC_ZOOM = "semantic_zoom"
    GEOMETRIC_SEMANTIC_ZOOM = "geometric_semantic_zoom"

    @classmethod
    def parse(cls, name: "str | JumpType") -> "JumpType":
        if isinstance(name, JumpType):
            return name
        normalized = name.strip().lower()
        for member in cls:
            if member.value == normalized:
                return member
        raise SpecError(f"unknown jump type: {name!r}")


#: Selector: (row, layer_id) -> bool — which objects can trigger the jump.
SelectorFunc = Callable[[dict[str, Any], int], bool]

#: New-viewport: row -> (x, y) or (canvas_offset, x, y) — destination viewport
#: top-left (the paper's example returns a 3-element list whose first item is
#: reserved; both forms are accepted).
NewViewportFunc = Callable[[dict[str, Any]], tuple[float, ...]]

#: Name: row -> str — the label of the jump option ("County map of Texas").
NameFunc = Callable[[dict[str, Any]], str]


def _default_selector(row: dict[str, Any], layer_id: int) -> bool:
    return True


def _default_name(row: dict[str, Any]) -> str:
    return ""


@dataclass
class Jump:
    """A transition from ``source`` canvas to ``destination`` canvas.

    Mirrors ``new Jump("statemap", "countymap", "geometric_semantic_zoom",
    selector, newViewport, jumpName)`` from Figure 3.
    """

    source: str
    destination: str
    jump_type: JumpType | str = JumpType.SEMANTIC_ZOOM
    selector: SelectorFunc = _default_selector
    new_viewport: NewViewportFunc | None = None
    name: NameFunc = _default_name

    def __post_init__(self) -> None:
        if not self.source or not self.destination:
            raise SpecError("jump requires both a source and a destination canvas")
        self.jump_type = JumpType.parse(self.jump_type)
        if not callable(self.selector):
            raise SpecError("jump selector must be callable")
        if self.new_viewport is not None and not callable(self.new_viewport):
            raise SpecError("jump new_viewport must be callable")
        if not callable(self.name):
            raise SpecError("jump name must be callable")

    # -- runtime helpers used by the frontend -------------------------------------

    def triggered_by(self, row: dict[str, Any], layer_id: int) -> bool:
        """True when clicking ``row`` on layer ``layer_id`` can take this jump."""
        return bool(self.selector(dict(row), layer_id))

    def destination_viewport_center(self, row: dict[str, Any]) -> tuple[float, float] | None:
        """Compute the destination viewport centre for a clicked object.

        Returns None when the jump does not customise the viewport (the
        frontend then centres on the destination canvas' midpoint).
        """
        if self.new_viewport is None:
            return None
        result = self.new_viewport(dict(row))
        if not isinstance(result, (tuple, list)) or len(result) not in (2, 3):
            raise SpecError(
                f"jump {self.source}->{self.destination}: new_viewport must return "
                f"(x, y) or (_, x, y), got {result!r}"
            )
        if len(result) == 3:
            _, x, y = result
        else:
            x, y = result
        return float(x), float(y)

    def label_for(self, row: dict[str, Any]) -> str:
        """The user-facing label of this jump for a clicked object."""
        return str(self.name(dict(row)))
