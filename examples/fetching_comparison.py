"""Compare fetching schemes on the paper's synthetic workloads.

A command-line rendition of Section 3.3: runs the eight fetching schemes of
Figures 6 and 7 over the three viewport-movement traces of Figure 5, on the
Uniform and Skewed datasets, and prints one row per (scheme, trace) — the
average response time per pan step, the requests issued and the objects
fetched — plus the fastest scheme on each trace.

Run with::

    PYTHONPATH=src python examples/fetching_comparison.py            # smoke scale (fast)
    PYTHONPATH=src python examples/fetching_comparison.py --bench    # benchmark scale
"""

from __future__ import annotations

import argparse

from repro.bench import Figure, figure6, figure7


def print_figure(title: str, figure: Figure) -> None:
    print(title)
    print(f"  {'scheme':<20} trace {'avg ms':>8} {'requests':>9} {'objects':>9}")
    for (scheme, trace), result in sorted(figure.items(), key=lambda item: item[0][::-1]):
        print(
            f"  {scheme:<20} {trace:>5} {result.average_response_ms:8.2f} "
            f"{result.total_requests():9d} {result.total_objects():9d}"
        )
    for trace in sorted({trace for _, trace in figure}):
        winner = min(
            (key for key in figure if key[1] == trace),
            key=lambda key: figure[key].average_response_ms,
        )
        print(f"  trace {trace}: fastest is {winner[0]}")
    print()


def main(scale: str = "smoke") -> None:
    print(f"running the Figure 6 / Figure 7 measurement loop at {scale!r} scale\n")
    print_figure("Figure 6 — Uniform dataset", figure6(scale=scale))
    print_figure("Figure 7 — Skewed dataset", figure7(scale=scale))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench", action="store_true",
        help="run at full benchmark scale (250k dots) instead of smoke scale",
    )
    arguments = parser.parse_args()
    main(scale="bench" if arguments.bench else "smoke")
