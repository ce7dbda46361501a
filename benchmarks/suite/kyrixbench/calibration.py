"""Machine-speed calibration: what makes wall-clock numbers comparable between runs.

The reference box (a 2-vCPU VM on a shared host) flips, every 5-40 seconds,
between two speeds about 27 % apart — for everything, and with CPU time
equal to wall time, so it is the core that slows down, not the process that
waits.  A ten-second run lands in one regime or the other, and raw times
spread ~20 % between runs of identical work.  Best-of-N inside a run cannot
help when the whole run is slow, so the suite measures the machine's speed
right next to everything it times: a fixed pure-Python kernel runs before
and after each timed section, and the section's times are divided by

    speed factor = kernel time measured here / KERNEL_REFERENCE_MS.

Prototype on the reference box: ``single_dbox`` repetitions read 8.2-11.1 ms
per step raw (interquartile range 15 % of the median) while the ratio to
the kernel stayed at 3.8 (5.6 %, for 40-step repetitions) across both
regimes; in a worse hour raw repetition means spread 22 %, normalised 4 %.  Reported times are therefore *reference milliseconds*: wall-clock
milliseconds on a machine that runs the kernel in exactly
``KERNEL_REFERENCE_MS``.  The factor itself is reported as
``process.speed_factor``; reported time x factor is the raw wall time.
The kernel is the benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: The machine speed reported times are normalised to.  A round number on
#: purpose: it defines a unit, it does not describe a machine (the
#: reference box runs the kernel in 2.16 ms when undisturbed).
KERNEL_REFERENCE_MS = 2.0


def _kernel() -> float:
    """Interpreter-bound work with the stack's own mix: dict and tuple
    building, float arithmetic, indexing."""
    table: dict[int, tuple[float, int]] = {}
    total = 0.0
    for i in range(20_000):
        table[i & 1023] = (i * 0.5, i)
        total += table[i & 1023][0]
    return total


def speed_factor(runs: int = 5) -> float:
    """How slow this machine is right now, relative to the reference speed.

    The median of ``runs`` kernel runs (~2 ms each).  Not the best: what is
    being normalised (a mean over steps) absorbs the host's millisecond
    bursts in proportion, so the yardstick should too — on 71 prototype
    repetitions the median gave run-level means within 4 %, the minimum 8 %.
    """
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3 / KERNEL_REFERENCE_MS


#: ``(time, speed factor)`` pairs in time order.
Samples = list[tuple[float, float]]


def factor_at(samples: Samples, moment: float) -> float:
    """The speed factor at ``moment``, interpolated between ``samples``."""
    index = bisect.bisect_right(samples, (moment, float("inf")))
    if index == 0:
        return samples[0][1]
    if index == len(samples):
        return samples[-1][1]
    (t0, f0), (t1, f1) = samples[index - 1], samples[index]
    return f0 + (f1 - f0) * (moment - t0) / (t1 - t0)
