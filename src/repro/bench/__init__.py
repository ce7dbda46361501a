"""The paper's evaluation (Figures 6 and 7) plus its ablations (fetch
footprint, index design, caching/prefetching, separability), replayed
through one measurement loop, :func:`~repro.bench.experiments.replay`."""

from .apps import (
    DotsStack,
    EEGStack,
    build_dots_application,
    build_dots_backend,
    build_eeg_application,
    build_eeg_backend,
    default_config,
)
from .experiments import (
    Figure,
    FootprintResult,
    SeparabilityResult,
    build_stack,
    dataset_for_scale,
    fetch_footprint,
    figure6,
    figure7,
    index_design_ablation,
    prefetch_cache_ablation,
    replay,
    separability_ablation,
)

__all__ = [
    "DotsStack",
    "EEGStack",
    "Figure",
    "FootprintResult",
    "SeparabilityResult",
    "build_dots_application",
    "build_dots_backend",
    "build_eeg_application",
    "build_eeg_backend",
    "build_stack",
    "dataset_for_scale",
    "default_config",
    "fetch_footprint",
    "figure6",
    "figure7",
    "index_design_ablation",
    "prefetch_cache_ablation",
    "replay",
    "separability_ablation",
]
