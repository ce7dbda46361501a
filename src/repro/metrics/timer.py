"""An injectable clock for time-dependent control logic.

Every ``*_ms`` the package reports is a ``time.perf_counter()`` difference
taken where the work happens, with one exception: the modelled
``LatencyBreakdown.network_ms``, a pure function of the request count and
payload bytes (:mod:`repro.net.link`).  Neither needs a clock object.

What does need one is logic that *waits*: circuit-breaker cooldowns and
replica timeouts (:mod:`repro.serving.replica`) and the fault seam's
latency rules (:mod:`repro.serving.faults`).  Production runs them on real time; tests,
examples and benchmarks inject a :class:`VirtualClock` and move it by hand.
The package itself never constructs one.
"""

from __future__ import annotations

import threading


class VirtualClock:
    """A clock that only moves when told to.

    Same ``now_ms`` surface as :class:`repro.serving.replica.MonotonicClock`.
    Advancing is atomic, so fault rules firing on parallel shard threads
    never lose a charge.
    """

    def __init__(self) -> None:
        self._now_ms: float = 0.0
        self._lock = threading.Lock()

    @property
    def now_ms(self) -> float:
        """Total milliseconds the clock has been advanced by."""
        return self._now_ms

    def advance(self, milliseconds: float) -> None:
        """Move the clock forward by ``milliseconds``."""
        if milliseconds < 0:
            raise ValueError(f"cannot advance the clock by {milliseconds} ms")
        with self._lock:
            self._now_ms += milliseconds
