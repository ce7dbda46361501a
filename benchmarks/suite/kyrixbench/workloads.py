"""Workload inputs: datasets, serving stacks and pan traces, all from one seed.

The program under test only ever sees what this module generates: a
:class:`~repro.datagen.synthetic.DotDatasetSpec`, the stack the public
factory builds over it, and lists of viewport positions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.bench.apps import build_dots_application, default_config
from repro.compiler import compile_application
from repro.datagen.synthetic import DotDatasetSpec, load_dots
from repro.server.schemes import FetchScheme, dbox_scheme, tile_mapping_scheme
from repro.serving import build_service
from repro.storage.database import Database

CANVAS_ID = "dots"
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Scale:
    """Every size knob of the suite; the CLI always runs :data:`FULL`."""

    num_points: int
    canvas_width: float
    canvas_height: float
    viewport: int
    #: A cold sweep over uniform data (one session of a repetition) visits
    #: ``sweep_side``^2 positions.
    sweep_side: int
    #: Tiles between neighbouring positions of a tile-scheme sweep.
    tile_stride: int
    hot_paths: int
    #: Positions on a popular path; a session walks them out, then
    #: ``hot_back`` of them back.
    hot_path_len: int
    hot_back: int
    #: Fresh sessions per repetition of ``cluster_hot`` (all threads together).
    hot_sessions: int
    #: Set-ups per untraced run (``setup_s`` is their median).
    setups: int
    min_reps: int
    #: Fewest timed steps a run pools before it may stop.
    min_steps: int
    verify_samples: int
    #: Most captured inputs an isolated leaf replay goes through.
    replay_cap: int
    #: Steps of the tracemalloc pass.
    alloc_steps: int


#: 50 000 dots on 8192 x 8192 keep the paper's density regime (~780 objects
#: per 1024^2 viewport) while three set-ups plus ten measured seconds fit
#: the driver's time cap; repetitions take ~1-4.5 s, and a run holds at
#: least five (a step's time is its median over them), usually five to ten.
FULL = Scale(
    num_points=50_000, canvas_width=8192.0, canvas_height=8192.0, viewport=1024,
    sweep_side=10, tile_stride=2, hot_paths=64, hot_path_len=12, hot_back=6, hot_sessions=56,
    setups=3, min_reps=5, min_steps=250, verify_samples=24, replay_cap=200,
    alloc_steps=40,
)

#: The smoke test's scale: same shapes, seconds instead of minutes.
TINY = Scale(
    num_points=2_000, canvas_width=4096.0, canvas_height=4096.0, viewport=1024,
    sweep_side=5, tile_stride=1, hot_paths=8, hot_path_len=4, hot_back=2, hot_sessions=12,
    setups=1, min_reps=1, min_steps=1, verify_samples=20, replay_cap=20,
    alloc_steps=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    skewed: bool
    scheme: FetchScheme
    tile_sizes: tuple[int, ...]
    #: ``None`` serves from the unsharded backend.
    shard_count: int | None
    threads: int
    hot: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("single_dbox", False, dbox_scheme(), (), None, 1),
        Workload("single_tile256", True, tile_mapping_scheme(256), (256,), None, 1),
        Workload("cluster_cold", False, dbox_scheme(), (), 4, 2),
        Workload("cluster_hot", False, dbox_scheme(), (), 4, 2, hot=True),
    )
}


@dataclass
class Stack:
    """One set-up: the dataset and the serving stack built over it."""

    spec: DotDatasetSpec
    service: Any
    #: Wall seconds of each set-up stage (``load``/``compile``/``precompute``/
    #: ``shard_build``) and their sum under ``total``.
    timings: dict[str, float] = field(default_factory=dict)


def dataset_spec(workload: Workload, scale: Scale, seed: int) -> DotDatasetSpec:
    return DotDatasetSpec(
        name="skewed" if workload.skewed else "uniform",
        canvas_width=scale.canvas_width,
        canvas_height=scale.canvas_height,
        num_points=scale.num_points,
        skewed=workload.skewed,
        seed=seed,
    )


def build_stack(
    workload: Workload, scale: Scale, seed: int, *, telemetry: bool | None = None
) -> Stack:
    """Load the dataset and build the workload's stack through the factory.

    The cluster is built in two factory calls — unsharded backend first,
    then ``build_service(config, backend=..., shard_count=4)`` — only so
    precompute and shard build can be timed apart; the result is what one
    call with both arguments returns.
    """
    config = default_config(viewport=scale.viewport)
    spec = dataset_spec(workload, scale, seed)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    database = Database(config.storage)
    load_dots(database, spec)
    loaded = time.perf_counter()
    compiled = compile_application(build_dots_application(spec, config))
    compiled_at = time.perf_counter()
    service = build_service(
        config, database=database, compiled=compiled, tile_sizes=workload.tile_sizes
    )
    precomputed = time.perf_counter()
    timings["load"] = loaded - start
    timings["compile"] = compiled_at - loaded
    timings["precompute"] = precomputed - compiled_at
    if workload.shard_count is not None:
        # Every other knob stays at the default a deployer gets: threads,
        # wire_shards on, wire_codec auto, replicas 1, coalescing and the
        # router cache on.
        service = build_service(
            config,
            backend=service,
            shard_count=workload.shard_count,
            strategy="grid",
            tile_sizes=workload.tile_sizes,
            telemetry=telemetry,
        )
        timings["shard_build"] = time.perf_counter() - precomputed
    timings["total"] = time.perf_counter() - start
    return Stack(spec=spec, service=service, timings=timings)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

Position = tuple[float, float]

#: Seeded displacement of every trace position, as a share of the viewport.
JITTER = 0.05


def _extent(scale: Scale) -> tuple[float, float]:
    """The largest viewport corner coordinates that keep the viewport on the canvas."""
    return scale.canvas_width - scale.viewport, scale.canvas_height - scale.viewport


def _serpentine(majors: int, minors: int, by_columns: bool) -> list[tuple[int, int]]:
    """``(column, row)`` lattice indices in boustrophedon order."""
    cells = []
    for major in range(majors):
        for minor in range(minors) if major % 2 == 0 else reversed(range(minors)):
            cells.append((major, minor) if by_columns else (minor, major))
    return cells


def lattice_sweep(scale: Scale, rng: random.Random, *, by_columns: bool) -> list[Position]:
    """A cold sweep over uniform data: a serpentine over a square lattice of
    viewport positions covering the canvas (0.7 of a viewport between
    neighbours at full scale).

    The lattice is the same for every seed, which only moves each position
    by up to ``JITTER`` of a viewport: every seed crosses shard borders
    equally often — the cost mix, hence every percentile, is a property of
    the program and not of the draw — while no two seeds, and no two steps
    of a sweep, ever ask for the same box.
    """
    x_hi, y_hi = _extent(scale)
    side = scale.sweep_side
    jitter = scale.viewport * JITTER
    return [
        (
            x_hi * (column + 0.5) / side + rng.uniform(-jitter, jitter),
            y_hi * (row + 0.5) / side + rng.uniform(-jitter, jitter),
        )
        for column, row in _serpentine(side, side, by_columns)
    ]


def tile_sweep(workload: Workload, scale: Scale, seed: int, rng: random.Random) -> list[Position]:
    """A cold sweep for a tile scheme: a serpentine, row by row, over the
    dense region plus a third of a viewport around it — Figure 7's regime (a
    canvas-wide sweep mixes sparse steps with dense ones ten times dearer,
    and the median step sits on the edge between the two).

    Neighbouring positions are exactly ``tile_stride`` tiles apart and the
    seed moves the sweep as a whole.  A pan's cost is its count of new tiles
    times a tile's cost, so it comes in levels: with a stride that is not a
    whole number of tiles (the first design: a jittered 6 x 6 lattice) the
    count flips between neighbouring levels with every jitter, and on ten
    seeds the median step spread 24 % and the 95th percentile 13-29 %.  A
    whole number of tiles makes every pan bring in the same number of new
    tiles whatever the seed; what varies is how dense they are.
    """
    stride = float(workload.tile_sizes[0] * scale.tile_stride)
    slack = scale.viewport / 3.0
    xmin, ymin, xmax, ymax = dataset_spec(workload, scale, seed).dense_rect
    x_lo, y_lo = xmin - slack, ymin - slack
    x_room = xmax - scale.viewport + slack - x_lo
    y_room = ymax - scale.viewport + slack - y_lo
    columns, rows = int(x_room // stride) + 1, int(y_room // stride) + 1
    x0 = x_lo + (x_room - (columns - 1) * stride) * rng.random()
    y0 = y_lo + (y_room - (rows - 1) * stride) * rng.random()
    return [
        (x0 + column * stride, y0 + row * stride)
        for column, row in _serpentine(rows, columns, by_columns=False)
    ]


def popular_paths(scale: Scale, rng: random.Random) -> list[list[Position]]:
    """The hot catalogue: straight walks of ``hot_path_len`` positions.

    Half run along evenly spaced rows, half along evenly spaced columns,
    alternating direction, each centred on the canvas and jittered by the
    seed: like the sweeps, the same geometry (and the same share of
    border-crossing boxes) for every seed, never the same boxes.
    """
    x_max, y_max = _extent(scale)
    stride = scale.viewport * 0.5
    reach = stride * (scale.hot_path_len - 1)
    jitter = scale.viewport * JITTER
    lanes = scale.hot_paths // 2
    paths = []
    for lane in range(lanes):
        for along_x in (True, False):
            long_max, cross_max = (x_max, y_max) if along_x else (y_max, x_max)
            start = (long_max - reach) / 2.0 + rng.uniform(-jitter, jitter)
            cross = cross_max * (lane + 0.5) / lanes + rng.uniform(-jitter, jitter)
            offsets = [stride * i for i in range(scale.hot_path_len)]
            if lane % 2:
                offsets.reverse()
            paths.append(
                [(start + o, cross) if along_x else (cross, start + o) for o in offsets]
            )
    return paths


def zipf_quota(paths: int, sessions: int) -> list[int]:
    """How many of ``sessions`` visit each popularity rank under Zipf(1.1).

    Largest-remainder apportionment instead of sampling: every seed gets
    the same popularity histogram and only the order of sessions (and which
    path holds which rank) varies, so the hit ratio is a property of the
    caches and not of the draw.
    """
    weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, paths + 1)]
    total = sum(weights)
    exact = [sessions * weight / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(paths), key=lambda rank: exact[rank] - counts[rank], reverse=True
    )
    for rank in by_remainder[: sessions - sum(counts)]:
        counts[rank] += 1
    return counts


def session_traces(
    workload: Workload, scale: Scale, seed: int
) -> list[list[list[Position]]]:
    """The sessions of one repetition: ``[thread][session] -> positions``.

    A cold workload gives each thread one long sweep (a tile scheme's single
    thread a :func:`tile_sweep`: a second sweep of the same tiles would be
    answered by the backend's cache); ``cluster_hot`` deals a seeded
    shuffle of the Zipf-proportioned session list round-robin to the
    threads, each session walking its path out and partway back.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    threads = workload.threads
    if workload.tile_sizes:
        return [[tile_sweep(workload, scale, seed, rng)]]
    if not workload.hot:
        # Concurrent sweeps run along different axes, so they are distinct
        # and meet different shards at any one time.
        return [
            [lattice_sweep(scale, rng, by_columns=bool(thread % 2))]
            for thread in range(threads)
        ]
    paths = popular_paths(scale, rng)
    rng.shuffle(paths)  # which path holds which popularity rank
    sessions: list[list[Position]] = []
    for path, visits in zip(paths, zipf_quota(len(paths), scale.hot_sessions)):
        # Out along the path, then partway back over boxes the session's
        # own frontend cache still holds.  Turning back after half the path
        # keeps frontend hits at a third of the steps, so the median step
        # sits inside the router-hit population instead of on the edge
        # between two populations three orders of magnitude apart.
        walk = path + path[-2 : -2 - scale.hot_back : -1]
        sessions.extend([walk] * visits)
    rng.shuffle(sessions)
    return [sessions[thread::threads] for thread in range(threads)]
