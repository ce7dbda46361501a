"""Property suite for the length-prefixed socket frame codec.

The socket transport's correctness rests entirely on the frame codec
(:mod:`repro.net.socket_transport`): if a frame survives arbitrary byte
payloads and arbitrary chunk boundaries, the worker conversation is exactly
the in-process message exchange.  Hypothesis drives three properties:

* **round-trip** — ``decode(encode(payload)) == payload`` for arbitrary
  bytes, including frames glued back-to-back in one buffer,
* **chunking-independence** — feeding the encoded bytes to the decoder in
  arbitrary splits (down to single bytes) yields the same frames in order,
* **typed rejection** — frames larger than the limit raise
  :class:`~repro.errors.FrameTooLargeError` at both encode and decode time,
  and streams that end mid-header or mid-payload raise
  :class:`~repro.errors.TruncatedFrameError`, never garbage output.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameTooLargeError, TruncatedFrameError
from repro.net.socket_transport import FRAME_HEADER, FrameDecoder, encode_frame

payloads = st.binary(max_size=2_000)


def _feed_in_chunks(decoder: FrameDecoder, data: bytes, cuts: list[int]) -> list[bytes]:
    """Feed ``data`` split at the (normalised) cut points, collecting frames."""
    boundaries = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
    frames: list[bytes] = []
    for start, end in zip(boundaries, boundaries[1:]):
        frames.extend(decoder.feed(data[start:end]))
    return frames


@given(payload=payloads)
def test_single_frame_roundtrip(payload):
    decoder = FrameDecoder()
    frames = decoder.feed(encode_frame(payload))
    assert frames == [payload]
    decoder.finish()  # stream ended exactly on a frame boundary


@given(items=st.lists(payloads, max_size=8))
def test_concatenated_frames_decode_in_order(items):
    decoder = FrameDecoder()
    stream = b"".join(encode_frame(payload) for payload in items)
    assert decoder.feed(stream) == items
    decoder.finish()


@given(
    items=st.lists(payloads, min_size=1, max_size=5),
    cuts=st.lists(st.integers(min_value=0, max_value=20_000), max_size=20),
)
def test_decoding_is_chunking_independent(items, cuts):
    stream = b"".join(encode_frame(payload) for payload in items)
    assert _feed_in_chunks(FrameDecoder(), stream, cuts) == items


@given(payload=payloads)
@settings(max_examples=25)
def test_byte_at_a_time_decoding(payload):
    decoder = FrameDecoder()
    frames: list[bytes] = []
    for index in range(len(encode_frame(payload))):
        frames.extend(decoder.feed(encode_frame(payload)[index : index + 1]))
    assert frames == [payload]
    decoder.finish()


@given(payload=st.binary(min_size=1, max_size=500))
def test_truncated_stream_raises_typed_error(payload):
    data = encode_frame(payload)
    decoder = FrameDecoder()
    # Cut anywhere strictly inside the frame: mid-header or mid-payload.
    decoder.feed(data[: len(data) // 2 if len(data) > 1 else 1])
    if decoder.pending_bytes:
        with pytest.raises(TruncatedFrameError):
            decoder.finish()


@given(oversize=st.integers(min_value=1, max_value=100))
def test_oversized_encode_raises(oversize):
    limit = 64
    with pytest.raises(FrameTooLargeError):
        encode_frame(b"x" * (limit + oversize), max_bytes=limit)


@given(declared=st.integers(min_value=65, max_value=2**32 - 1))
def test_oversized_header_rejected_before_payload_arrives(declared):
    # A forged/corrupt header declaring a giant frame must be rejected from
    # the 4 header bytes alone — the decoder must not wait for (or buffer)
    # gigabytes that will never arrive.
    decoder = FrameDecoder(max_bytes=64)
    with pytest.raises(FrameTooLargeError):
        decoder.feed(FRAME_HEADER.pack(declared))


@given(payload=payloads)
def test_max_size_frame_is_accepted_exactly_at_the_limit(payload):
    decoder = FrameDecoder(max_bytes=len(payload))
    assert decoder.feed(encode_frame(payload, max_bytes=len(payload))) == [payload]
