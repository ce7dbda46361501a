"""Request coalescing: identical in-flight requests share one backend query.

When many concurrent sessions pan over the same region (the "heavy traffic"
scenario of the roadmap), the cluster would otherwise scatter-gather the
same tile/box once per session.  The coalescer keys in-flight work by the
request's cache key: the first session to ask becomes the *leader* and runs
the real query; sessions that ask for the same key while it is in flight
become *followers* and block until the leader's result is ready, then share
it.  This is the classic "single-flight" pattern (memcache lease /
Go ``singleflight``), applied in front of the scatter-gather fan-out.

The implementation is thread-safe so benchmark workloads can drive the
router from real concurrent sessions; in single-threaded use it degrades to
a no-op (every request is a leader).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

ResultT = TypeVar("ResultT")


@dataclass
class CoalescerStats:
    """How much duplicate in-flight work was avoided."""

    leaders: int = 0
    followers: int = 0

    def reset(self) -> None:
        self.leaders = 0
        self.followers = 0


class _InFlight:
    """One leader's pending computation, awaited by its followers."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: object | None = None
        self.error: BaseException | None = None


class RequestCoalescer:
    """Single-flight deduplication of identical concurrent requests."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, _InFlight] = {}
        self.stats = CoalescerStats()

    def coalesce(
        self, key: Hashable, compute: Callable[[], ResultT]
    ) -> tuple[ResultT, bool]:
        """Run ``compute`` once per concurrently in-flight ``key``.

        Returns ``(result, was_follower)``: followers receive the leader's
        result without ``compute`` running again.  Leader exceptions are
        re-raised in every waiting session.
        """
        with self._lock:
            pending = self._inflight.get(key)
            if pending is None:
                pending = _InFlight()
                self._inflight[key] = pending
                leader = True
                self.stats.leaders += 1
            else:
                leader = False
                self.stats.followers += 1

        if not leader:
            pending.event.wait()
            if pending.error is not None:
                raise pending.error
            return pending.result, True  # type: ignore[return-value]

        try:
            pending.result = compute()
        except BaseException as error:
            pending.error = error
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            pending.event.set()
        return pending.result, False
