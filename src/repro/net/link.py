"""The modelled network hop between the Kyrix frontend and backend.

The paper's experiments ran frontend and backend on one EC2 instance, so per
request the dominant network terms are (a) a fixed round-trip overhead and
(b) payload-proportional transfer time.  In-process that hop does not exist,
so it is modelled: :class:`SimulatedLink` is pure arithmetic over a
round-trip time and a bandwidth — it keeps no state, advances no clock and
never sleeps.  Its result is ``LatencyBreakdown.network_ms``, the only
modelled time in the package.

This model is what makes the fetching-granularity comparison meaningful:
schemes that issue many small requests (256-pixel tiles) pay the round trip
many times, schemes that fetch huge regions (4096-pixel tiles) pay transfer
time for data the viewport never shows.
"""

from __future__ import annotations

from ..errors import KyrixError

#: Round-trip time charged to every exchange (ms): a fast local link, as
#: between the paper's browser and backend on one machine.
RTT_MS = 2.0
#: Link bandwidth (megabits per second).
BANDWIDTH_MBPS = 1000.0
#: Bytes of request line + headers charged to every exchange.
REQUEST_OVERHEAD_BYTES = 256
#: Estimated serialized size of one returned object.
PER_OBJECT_BYTES = 64


class SimulatedLink:
    """Round-trip and transfer latency of one request/response exchange."""

    def __init__(
        self, *, rtt_ms: float = RTT_MS, bandwidth_mbps: float = BANDWIDTH_MBPS
    ) -> None:
        if rtt_ms < 0:
            raise KyrixError(f"rtt_ms must be non-negative, got {rtt_ms}")
        if bandwidth_mbps <= 0:
            raise KyrixError(f"bandwidth_mbps must be positive, got {bandwidth_mbps}")
        self.rtt_ms = rtt_ms
        self.bandwidth_mbps = bandwidth_mbps

    def transfer_ms(self, payload_bytes: int) -> float:
        """Transfer time of a payload at the link's bandwidth."""
        bits = payload_bytes * 8
        seconds = bits / (self.bandwidth_mbps * 1_000_000.0)
        return seconds * 1000.0

    def round_trip_ms(self, payload_bytes: int) -> float:
        """Total modelled latency of one request/response exchange."""
        return self.rtt_ms + self.transfer_ms(REQUEST_OVERHEAD_BYTES + payload_bytes)

    def estimate_object_payload(self, object_count: int) -> int:
        """Payload size estimate for ``object_count`` serialized objects."""
        return object_count * PER_OBJECT_BYTES
