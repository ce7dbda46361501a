"""The modelled network hop between the Kyrix frontend and backend.

The paper's experiments ran frontend and backend on one EC2 instance, so per
request the dominant network terms are (a) a fixed round-trip overhead and
(b) payload-proportional transfer time.  In-process that hop does not exist,
so it is modelled: :class:`SimulatedLink` is pure arithmetic over a
:class:`~repro.config.NetworkConfig` — it keeps no state, advances no clock
and never sleeps.  Its result is ``LatencyBreakdown.network_ms``, the only
modelled time in the package.

This model is what makes the fetching-granularity comparison meaningful:
schemes that issue many small requests (256-pixel tiles) pay the round trip
many times, schemes that fetch huge regions (4096-pixel tiles) pay transfer
time for data the viewport never shows.
"""

from __future__ import annotations

from ..config import NetworkConfig

#: Bytes of request line + headers charged to every exchange.
REQUEST_OVERHEAD_BYTES = 256
#: Estimated serialized size of one returned object.
PER_OBJECT_BYTES = 64


class SimulatedLink:
    """Round-trip and transfer latency of one request/response exchange."""

    def __init__(self, config: NetworkConfig | None = None) -> None:
        self.config = config or NetworkConfig()
        self.config.validate()

    def transfer_ms(self, payload_bytes: int) -> float:
        """Transfer time of a payload at the configured bandwidth."""
        bits = payload_bytes * 8
        seconds = bits / (self.config.bandwidth_mbps * 1_000_000.0)
        return seconds * 1000.0

    def round_trip_ms(self, payload_bytes: int) -> float:
        """Total modelled latency of one request/response exchange."""
        return self.config.rtt_ms + self.transfer_ms(
            REQUEST_OVERHEAD_BYTES + payload_bytes
        )

    def estimate_object_payload(self, object_count: int) -> int:
        """Payload size estimate for ``object_count`` serialized objects."""
        return object_count * PER_OBJECT_BYTES
