"""Benchmark harness reproducing the paper's evaluation (Figures 6 and 7)
plus its ablations (fetch footprint, index design, caching/prefetching,
separability)."""

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
    FootprintResult,
    PrefetchAblationResult,
    SeparabilityResult,
    build_stack,
    dataset_for_scale,
    fetch_footprint,
    figure6,
    figure7,
    index_design_ablation,
    prefetch_cache_ablation,
    separability_ablation,
)
from .harness import ExperimentResult, SchemeResult, run_experiment, run_scheme_on_trace
from .report import (
    format_comparison,
    format_experiment_table,
    format_figure,
    format_table,
    speedup_summary,
)

__all__ = [
    "DotsStack",
    "EEGStack",
    "ExperimentResult",
    "FootprintResult",
    "PrefetchAblationResult",
    "SchemeResult",
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
    "format_comparison",
    "format_experiment_table",
    "format_figure",
    "format_table",
    "index_design_ablation",
    "prefetch_cache_ablation",
    "run_experiment",
    "run_scheme_on_trace",
    "separability_ablation",
    "speedup_summary",
]
