"""A simulated network link between the Kyrix frontend and backend.

The paper's experiments ran frontend and backend on one EC2 instance, so per
request the dominant network terms are (a) a fixed round-trip overhead and
(b) payload-proportional transfer time.  The link charges exactly those two
terms to a virtual clock; it never sleeps.

This model is what makes the fetching-granularity comparison meaningful:
schemes that issue many small requests (256-pixel tiles) pay the round trip
many times, schemes that fetch huge regions (4096-pixel tiles) pay transfer
time for data the viewport never shows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..config import NetworkConfig
from ..metrics.timer import VirtualClock

#: Bytes of request line + headers charged to every exchange.
REQUEST_OVERHEAD_BYTES = 256
#: Estimated serialized size of one returned object.
PER_OBJECT_BYTES = 64


@dataclass
class LinkStats:
    """Counters describing traffic over the link.

    The counters themselves are plain fields; :class:`SimulatedLink` updates
    them under its lock so concurrent sessions (and the shard transports of
    a parallel scatter-gather) never lose increments.
    """

    requests: int = 0
    bytes_transferred: int = 0
    simulated_ms: float = 0.0

    def reset(self) -> None:
        self.requests = 0
        self.bytes_transferred = 0
        self.simulated_ms = 0.0


class SimulatedLink:
    """Charges round-trip and transfer latency for each request/response."""

    def __init__(self, config: NetworkConfig | None = None, clock: VirtualClock | None = None) -> None:
        self.config = config or NetworkConfig()
        self.config.validate()
        self.clock = clock or VirtualClock()
        self.stats = LinkStats()
        # Traffic accounting is read-modify-write; a link shared by shard
        # transports is charged from executor threads concurrently.
        self._lock = threading.Lock()

    # -- latency model ------------------------------------------------------------

    def transfer_ms(self, payload_bytes: int) -> float:
        """Transfer time of a payload at the configured bandwidth."""
        bits = payload_bytes * 8
        seconds = bits / (self.config.bandwidth_mbps * 1_000_000.0)
        return seconds * 1000.0

    def round_trip_ms(self, payload_bytes: int) -> float:
        """Total simulated latency of one request/response exchange."""
        return self.config.rtt_ms + self.transfer_ms(
            REQUEST_OVERHEAD_BYTES + payload_bytes
        )

    # -- traffic accounting ----------------------------------------------------------

    def charge_request(self, payload_bytes: int) -> float:
        """Account one exchange and return its simulated latency (ms)."""
        latency = self.round_trip_ms(payload_bytes)
        with self._lock:
            self.stats.requests += 1
            self.stats.bytes_transferred += payload_bytes + REQUEST_OVERHEAD_BYTES
            self.stats.simulated_ms += latency
            self.clock.advance(latency)
        return latency

    def estimate_object_payload(self, object_count: int) -> int:
        """Payload size estimate for ``object_count`` serialized objects."""
        return object_count * PER_OBJECT_BYTES

    def reset(self) -> None:
        with self._lock:
            self.stats.reset()
