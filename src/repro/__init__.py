"""repro — a full reproduction of *Kyrix: Interactive Visual Data Exploration
at Scale* (Tao et al., CIDR 2019).

The package is organised the way the paper's architecture diagram (Figure 1)
is drawn:

* developers write a declarative specification with :mod:`repro.core`
  (canvases, layers, transforms, placements, renderings, jumps),
* :mod:`repro.compiler` validates and compiles it,
* :mod:`repro.server` precomputes placement tables / indexes in the embedded
  database (:mod:`repro.storage` + :mod:`repro.minisql`) and answers data
  requests with static tiles or the paper's dynamic boxes,
* :mod:`repro.serving` defines the unified ``DataService`` serving surface
  (protocol + composable middleware + wire transport) and the
  :func:`~repro.serving.build_service` factory every call site builds its
  stack with,
* :mod:`repro.client` plays the browser frontend: it tracks the viewport,
  issues pans and jumps, caches, prefetches and renders,
* :mod:`repro.datagen` and :mod:`repro.bench` regenerate the evaluation.

Quickstart::

    from repro.bench import build_dots_backend, default_config
    from repro.client import KyrixFrontend
    from repro.datagen import uniform_spec
    from repro.server import dbox_scheme

    stack = build_dots_backend(uniform_spec(num_points=50_000))
    frontend = KyrixFrontend(stack.service, dbox_scheme())
    frontend.load_initial_canvas()
    frontend.pan_by(1024, 0)
    print(frontend.average_response_ms(), "ms per interaction")
"""

from .config import (
    CacheConfig,
    ClusterConfig,
    INTERACTIVITY_BUDGET_MS,
    KyrixConfig,
    NetworkConfig,
    PrefetchConfig,
    StorageConfig,
)
from .cluster import ClusterRouter, ShardedCluster, build_cluster
from .core import (
    App,
    Application,
    CallablePlacement,
    Canvas,
    ColumnPlacement,
    Jump,
    JumpType,
    Layer,
    Renderer,
    Transform,
    Viewport,
)
from .compiler import CompiledApplication, compile_application, validate
from .client import ExplorationSession, KyrixFrontend
from .errors import KyrixError
from .server import FetchScheme, KyrixBackend, dbox_scheme, paper_schemes
from .serving import (
    CachingService,
    CoalescingService,
    DataService,
    TransportService,
    build_service,
)
from .storage import Database

__version__ = "1.0.0"

__all__ = [
    "App",
    "Application",
    "CacheConfig",
    "CachingService",
    "CallablePlacement",
    "Canvas",
    "ClusterConfig",
    "ClusterRouter",
    "CoalescingService",
    "DataService",
    "ShardedCluster",
    "ColumnPlacement",
    "CompiledApplication",
    "Database",
    "TransportService",
    "build_service",
    "ExplorationSession",
    "FetchScheme",
    "INTERACTIVITY_BUDGET_MS",
    "Jump",
    "JumpType",
    "KyrixBackend",
    "KyrixConfig",
    "KyrixError",
    "KyrixFrontend",
    "Layer",
    "NetworkConfig",
    "PrefetchConfig",
    "Renderer",
    "StorageConfig",
    "Transform",
    "Viewport",
    "build_cluster",
    "compile_application",
    "dbox_scheme",
    "paper_schemes",
    "validate",
    "__version__",
]
