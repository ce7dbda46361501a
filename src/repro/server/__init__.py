"""The Kyrix backend server.

Sub-modules:

* :mod:`repro.server.indexer` — placement precomputation and index building,
* :mod:`repro.server.tile` — static tiles, one of the two fetching
  granularities,
* :mod:`repro.server.schemes` — the fetching-scheme registry used by the
  evaluation (Figures 6/7), dynamic boxes included,
* :mod:`repro.server.cache` — the LRU response cache (shared implementation
  with the frontend cache),
* :mod:`repro.server.prefetch` — the momentum prefetch predictor,
* :mod:`repro.server.backend` — the request-serving backend itself,
* :mod:`repro.server.http_server` — optional Flask HTTP deployment.
"""

from .backend import BackendStats, KyrixBackend
from .cache import CacheStats, LRUCache
from .indexer import Indexer, PrecomputeReport
from .prefetch import MomentumPrefetcher
from .schemes import (
    DESIGN_MAPPING,
    DESIGN_SPATIAL,
    FetchScheme,
    dbox50_scheme,
    dbox_scheme,
    paper_schemes,
    tile_mapping_scheme,
    tile_spatial_scheme,
)
from .tile import PAPER_TILE_SIZES, TileScheme

__all__ = [
    "BackendStats",
    "CacheStats",
    "DESIGN_MAPPING",
    "DESIGN_SPATIAL",
    "FetchScheme",
    "Indexer",
    "KyrixBackend",
    "LRUCache",
    "MomentumPrefetcher",
    "PAPER_TILE_SIZES",
    "PrecomputeReport",
    "TileScheme",
    "dbox50_scheme",
    "dbox_scheme",
    "paper_schemes",
    "tile_mapping_scheme",
    "tile_spatial_scheme",
]
