"""Frontend <-> backend communication: wire protocol, framing and links."""

from .link import SimulatedLink
from .protocol import DataRequest, DataResponse
from .socket_transport import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    SocketTransport,
    encode_frame,
    read_frame,
    write_frame,
)

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "DataRequest",
    "DataResponse",
    "FrameDecoder",
    "SimulatedLink",
    "SocketTransport",
    "encode_frame",
    "read_frame",
    "write_frame",
]
