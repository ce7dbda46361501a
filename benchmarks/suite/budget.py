"""Print the outside-in per-layer latency budget of a traced result document.

    python3 benchmarks/suite/budget.py benchmarks/suite/reference/trace.json

One column per workload, one row per seam, outermost first: the reference
milliseconds per step each layer spent *itself* (its spans' duration minus
what the spans below cover), from the single-session traced pass.  Rows sum
to the step time, except that shard calls of one scatter run in parallel,
so their rows add up to more than the wall time they cover.  Below the
table: the leaf kernels replayed in isolation, scaled to one step.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Seam kinds outside-in (span names are ``"<seam>:<TargetClass>"``).
SEAM_ORDER = ("step", "endpoint", "shard", "wire", "inner", "engine")

#: What each span's self time is, and the layer (``src/repro/<module>``) it
#: belongs to.  A span name missing here (a renamed class) still gets its row.
WHAT = {
    "step": ("client", "KyrixFrontend: request building, frontend cache, bookkeeping"),
    "endpoint:ClusterRouter": ("cluster", "router: caches, coalescer, routing, scatter, merge, sort"),
    "shard:TransportService": ("serving+net", "transport: encode + decode, both ways"),
    "wire:SerializedService": ("serving", "shard lock: wait + hand-over"),
    "inner:KyrixBackend": ("server", "shard backend: cache probe, row dicts, response"),
    "endpoint:KyrixBackend": ("server", "backend: cache probe, row dicts, response"),
    "engine:SQLEngine": ("minisql+storage", "SQL engine: parse, plan, index probe, row fetch"),
}

#: ``(label, per-unit metrics to add up, metrics whose product is units per step)``.
LEAVES = (
    ("minisql parse + plan", ("minisql.parse_plan_us_per_query",), ("server.queries_per_step",)),
    ("storage R-tree probe", ("storage.rtree_search_us_per_query",), ("server.queries_per_step",)),
    (
        "storage row fetch",
        ("storage.fetch_us_per_row",),
        ("server.rows_per_query", "server.queries_per_step"),
    ),
    (
        "net binary encode + decode",
        ("net.binary_encode_us_per_object", "net.binary_decode_us_per_object"),
        ("server.rows_per_query", "server.queries_per_step"),
    ),
    ("cluster route lookup", ("cluster.route_us_per_request",), ("client.requests_per_step",)),
)


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def budget(document: dict) -> str:
    runs = document["runs"]
    names = list(runs)
    lines = ["| layer | seam (what its self time is) | " + " | ".join(names) + " |"]
    lines.append("|---|---|" + "---:|" * len(names))
    totals = {name: 0.0 for name in names}
    span_names = {span for name in names for span in runs[name]["spans"]["summary"]}
    for span_name in sorted(span_names, key=lambda n: (SEAM_ORDER.index(n.split(":")[0]), n)):
        layer, what = WHAT.get(span_name, ("?", "(not described in budget.py)"))
        cells = []
        for name in names:
            summary = runs[name]["spans"]["summary"]
            steps = summary["step"]["count"]
            row = summary.get(span_name)
            value = row["self_ms"] / steps if row else None
            totals[name] += value or 0.0
            cells.append(_cell(value))
        lines.append(f"| `{layer}` | `{span_name}`: {what} | " + " | ".join(cells) + " |")
    lines.append("| | **sum of self times** | " + " | ".join(_cell(totals[n]) for n in names) + " |")
    step = [
        runs[n]["spans"]["summary"]["step"]["total_ms"] / runs[n]["spans"]["summary"]["step"]["count"]
        for n in names
    ]
    lines.append("| | **traced step, wall** | " + " | ".join(_cell(v) for v in step) + " |")
    lines.append(
        "| | untraced `step_ms_mean` (concurrent sessions where the workload has them) | "
        + " | ".join(_cell(runs[n]["metrics"].get("step_ms_mean")) for n in names)
        + " |"
    )
    lines.append("")
    lines.append("| leaf kernel, isolated replay (ms per step) | " + " | ".join(names) + " |")
    lines.append("|---|" + "---:|" * len(names))
    for label, per_unit, per_step in LEAVES:
        cells = []
        for name in names:
            metrics = runs[name]["metrics"]
            if all(key in metrics for key in per_unit + per_step):
                units = math.prod(metrics[key] for key in per_step)
                cells.append(_cell(sum(metrics[key] for key in per_unit) * units / 1e3))
            else:
                cells.append("-")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    print(budget(json.loads(Path(sys.argv[1]).read_text())))
