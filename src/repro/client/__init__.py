"""The Kyrix frontend: viewport state, interactions, caching and rendering."""

from .frontend import KyrixFrontend
from .renderer import RasterRenderer
from .session import ExplorationSession, SessionResult

__all__ = [
    "ExplorationSession",
    "KyrixFrontend",
    "RasterRenderer",
    "SessionResult",
]
