"""Fetching schemes: the cross product of granularity and database design.

Section 3.3 evaluates eight schemes; :func:`paper_schemes` builds exactly
that list.  A :class:`FetchScheme` tells the frontend *what to request*
(tiles of a given size, or the dynamic box :meth:`FetchScheme.box_for`
computes) and tells the backend *how to answer* (spatial bbox index, or the
tuple–tile mapping design).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.viewport import Viewport
from ..errors import FetchError
from ..storage.rtree import Rect
from .dbox import _clip

#: Database designs from Section 3.1.
DESIGN_SPATIAL = "spatial"
DESIGN_MAPPING = "mapping"

#: Fetching granularities.
GRANULARITY_TILE = "tile"
GRANULARITY_BOX = "box"


@dataclass(frozen=True)
class FetchScheme:
    """One fetching scheme of the evaluation.

    Attributes
    ----------
    name:
        Label used in reports ("dbox", "tile spatial 1024", ...).
    granularity:
        ``"tile"`` or ``"box"``.
    tile_size:
        Tile size in canvas pixels (tile granularity only).
    design:
        Database design answering the requests: ``"spatial"`` (bbox +
        R-tree) or ``"mapping"`` (tuple–tile mapping + B-tree join).
        Dynamic boxes require the spatial design.
    box_expansion:
        Extra box size as a fraction of the viewport (box granularity only);
        0.0 is the plain *Dbox* scheme, 0.5 is *Dbox 50 %*.
    """

    name: str
    granularity: str
    tile_size: int | None = None
    design: str = DESIGN_SPATIAL
    box_expansion: float = 0.0

    def __post_init__(self) -> None:
        if self.granularity not in (GRANULARITY_TILE, GRANULARITY_BOX):
            raise FetchError(f"unknown granularity {self.granularity!r}")
        if self.design not in (DESIGN_SPATIAL, DESIGN_MAPPING):
            raise FetchError(f"unknown database design {self.design!r}")
        if self.granularity == GRANULARITY_TILE and not self.tile_size:
            raise FetchError("tile schemes require a tile_size")
        if self.granularity == GRANULARITY_BOX and self.design != DESIGN_SPATIAL:
            raise FetchError("dynamic boxes require the spatial database design")
        if self.box_expansion < 0:
            raise FetchError(f"box expansion must be non-negative, got {self.box_expansion}")

    @property
    def is_tile(self) -> bool:
        return self.granularity == GRANULARITY_TILE

    @property
    def is_box(self) -> bool:
        return self.granularity == GRANULARITY_BOX

    def box_for(self, viewport: Viewport, canvas_width: float, canvas_height: float) -> Rect:
        """The canvas-clipped dynamic box to fetch for ``viewport``.

        With no expansion the box is the viewport's own rectangle, unscaled:
        ``Rect.scaled(1.0)`` recomputes each edge from the centre and can
        round differently, and box edges are cache keys and wire bytes.
        """
        if not self.is_box:
            raise FetchError(f"scheme {self.name!r} is not a box scheme")
        rect = viewport.to_rect()
        if self.box_expansion:
            rect = rect.scaled(1.0 + self.box_expansion)
        return _clip(rect, canvas_width, canvas_height)


# ---------------------------------------------------------------------------
# Canonical scheme sets
# ---------------------------------------------------------------------------


def dbox_scheme() -> FetchScheme:
    """The paper's *Dbox* scheme: box = viewport, spatial index."""
    return FetchScheme(name="dbox", granularity=GRANULARITY_BOX, box_expansion=0.0)


def dbox50_scheme() -> FetchScheme:
    """The paper's *Dbox 50%* scheme: box 50 % larger than the viewport."""
    return FetchScheme(name="dbox 50%", granularity=GRANULARITY_BOX, box_expansion=0.5)


def tile_spatial_scheme(tile_size: int) -> FetchScheme:
    """Static tiles answered by the spatial (bbox + R-tree) design."""
    return FetchScheme(
        name=f"tile spatial {tile_size}",
        granularity=GRANULARITY_TILE,
        tile_size=tile_size,
        design=DESIGN_SPATIAL,
    )


def tile_mapping_scheme(tile_size: int) -> FetchScheme:
    """Static tiles answered by the tuple–tile mapping design."""
    return FetchScheme(
        name=f"tile mapping {tile_size}",
        granularity=GRANULARITY_TILE,
        tile_size=tile_size,
        design=DESIGN_MAPPING,
    )


def paper_schemes(tile_sizes: tuple[int, ...] = (1024, 256, 4096)) -> list[FetchScheme]:
    """The eight fetching schemes evaluated in Figures 6 and 7.

    The legend order of the figures is: dbox, dbox 50 %, tile spatial 1024,
    tile spatial 256, tile spatial 4096, tile mapping 1024, tile mapping 256,
    tile mapping 4096.
    """
    schemes = [dbox_scheme(), dbox50_scheme()]
    schemes.extend(tile_spatial_scheme(size) for size in tile_sizes)
    schemes.extend(tile_mapping_scheme(size) for size in tile_sizes)
    return schemes

