"""Property suite for the binary columnar codec.

Mirrors ``test_property_protocol.py`` on the shard wire: every request and
response the reference JSON encoding can carry must survive the columnar
codec unchanged, and — the reference law — decoding the binary form must
yield exactly what decoding the JSON form yields, so what a shard returns
over the wire is what the HTTP edge would have serialised.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse

# -- strategies (canonical row form, like the JSON protocol suite) ---------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_shard_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=63))
_traces = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {"trace_id": _names, "span_id": _names, "sampled": st.booleans()}
    ),
)


@st.composite
def requests(draw):
    if draw(st.booleans()):
        return DataRequest(
            app_name=draw(_names),
            canvas_id=draw(_names),
            layer_index=draw(st.integers(min_value=0, max_value=7)),
            granularity="tile",
            design=draw(st.sampled_from(["spatial", "mapping"])),
            tile_id=draw(st.integers(min_value=0, max_value=10_000)),
            tile_size=draw(st.sampled_from([256, 512, 1024, 4096])),
            shard_id=draw(_shard_ids),
        )
    return DataRequest(
        app_name=draw(_names),
        canvas_id=draw(_names),
        layer_index=draw(st.integers(min_value=0, max_value=7)),
        granularity="box",
        design="spatial",
        xmin=draw(_floats),
        ymin=draw(_floats),
        xmax=draw(_floats),
        ymax=draw(_floats),
        shard_id=draw(_shard_ids),
    )


# Scalars include integers *beyond* the i64 range (the JSON-cell fallback)
# and both int and float so mixed columns exercise the retype guard.
_scalar = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    _floats,
    _names,
    st.booleans(),
    st.none(),
)
_bbox = st.tuples(_floats, _floats, _floats, _floats)
_nested = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, min_size=0, max_size=3).map(tuple),
    max_leaves=6,
)
_value = st.one_of(_scalar, _bbox, _nested)
_objects = st.lists(
    st.dictionaries(_names, _value, min_size=0, max_size=5), min_size=0, max_size=6
)


@st.composite
def responses(draw):
    return DataResponse(
        request=draw(requests()),
        objects=draw(_objects),
        query_ms=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        from_cache=draw(st.booleans()),
        queries_issued=draw(st.integers(min_value=0, max_value=1000)),
        shard_ms=draw(
            st.dictionaries(
                st.from_regex(r"shard[0-9]{1,2}", fullmatch=True),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                max_size=8,
            )
        ),
        coalesced=draw(st.booleans()),
    )


# -- properties -------------------------------------------------------------------


class TestBinaryRequestRoundTrip:
    @given(requests())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_identity(self, request):
        decoded, context = columnar.decode_request(columnar.encode_request(request))
        assert decoded == request
        assert context is None

    @given(requests())
    @settings(max_examples=100, deadline=None)
    def test_cache_key_stable_across_the_wire(self, request):
        decoded, _ = columnar.decode_request(columnar.encode_request(request))
        assert decoded.cache_key() == request.cache_key()

    @given(requests(), _traces)
    @settings(max_examples=100, deadline=None)
    def test_trace_context_rides_the_wire_form_only(self, request, context):
        body = columnar.encode_request(request, trace=context)
        decoded, popped = columnar.decode_request(body)
        assert popped == context
        assert decoded.trace is None
        assert decoded == request


class TestBinaryResponseRoundTrip:
    @given(responses())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_identity(self, response):
        decoded, spans = columnar.decode_response(columnar.encode_response(response))
        assert spans == []
        assert decoded == response

    @given(responses())
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, response):
        once = columnar.encode_response(response)
        decoded, _ = columnar.decode_response(once)
        assert columnar.encode_response(decoded) == once

    @given(responses())
    @settings(max_examples=150, deadline=None)
    def test_decoded_payload_matches_the_json_codec(self, response):
        # The reference law: both encodings decode to the same object,
        # and re-encoding both decodes to the same canonical JSON bytes.
        via_binary, _ = columnar.decode_response(columnar.encode_response(response))
        via_json = DataResponse.from_json(response.to_json())
        assert via_binary == via_json
        assert via_binary.to_json() == via_json.to_json()

    @given(responses())
    @settings(max_examples=50, deadline=None)
    def test_nan_free_wide_numeric_responses_shrink(self, response):
        # Not a universal law (tiny/stringy payloads can tie or lose), but
        # homogeneous numeric rows — the serving hot path — must shrink.
        objects = [
            {"tuple_id": row, "x": row * 0.5, "bbox": (0.0, 1.0, 2.0, 3.0)}
            for row in range(64)
        ]
        wide = DataResponse(request=response.request, objects=objects)
        assert len(columnar.encode_response(wide)) < len(wide.to_json().encode())
