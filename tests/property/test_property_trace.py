"""Property-based tests for the trace slots of the shard wire.

Tracing rides beside the request and the response, never inside them: the
caller's ``TraceContext`` travels in a slot after the request's fields
(``encode_request(trace=)``), and the worker's span dicts come home in a
slot of the response message (``encode_response(trace=)``).  Neither may
disturb the properties the serving stack depends on — lossless round-trips,
canonical encodings, and a decoded request that is the untraced one, so a
traced request hits exactly the cache entries an untraced one does.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse

# -- strategies -------------------------------------------------------------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
_hex_ids = st.from_regex(r"[0-9a-f]{8,32}", fullmatch=True)

#: Wire-shape TraceContext dicts, exactly as the transport stub injects them.
trace_contexts = st.fixed_dictionaries(
    {
        "trace_id": _hex_ids,
        "span_id": st.one_of(st.none(), _hex_ids),
        "sampled": st.booleans(),
    }
)

#: Span dicts, exactly as the tracer records them.
_attribute_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.booleans(),
    st.none(),
    _names,
)
span_dicts = st.fixed_dictionaries(
    {
        "name": st.sampled_from(
            ["request", "scatter", "shard", "rpc", "execute", "cache"]
        ),
        "trace_id": _hex_ids,
        "span_id": _hex_ids,
        "parent_id": st.one_of(st.none(), _hex_ids),
        "start_unix_ms": st.floats(min_value=0, max_value=2e12, allow_nan=False),
        "duration_ms": st.floats(min_value=0, max_value=1e6, allow_nan=False),
        "attributes": st.dictionaries(_names, _attribute_values, max_size=4),
        "events": st.lists(
            st.fixed_dictionaries(
                {"name": _names, "offset_ms": st.floats(min_value=0, max_value=1e6,
                                                        allow_nan=False)}
            ),
            max_size=3,
        ),
    }
)


@st.composite
def requests(draw):
    return DataRequest(
        canvas_id=draw(_names),
        layer_index=draw(st.integers(min_value=0, max_value=7)),
        granularity="tile",
        design=draw(st.sampled_from(["spatial", "mapping"])),
        tile_id=draw(st.integers(min_value=0, max_value=10_000)),
        tile_size=draw(st.sampled_from([256, 512, 1024])),
    )


@st.composite
def responses(draw):
    return DataResponse(
        request=draw(requests()),
        objects=[],
        query_ms=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        from_cache=draw(st.booleans()),
        queries_issued=draw(st.integers(min_value=0, max_value=100)),
    )


_contexts = st.one_of(st.none(), trace_contexts)
_span_lists = st.lists(span_dicts, max_size=4)


# -- request properties -----------------------------------------------------------


class TestRequestTraceSlot:
    @given(requests(), _contexts)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_carries_the_context_beside_the_request(self, request, context):
        decoded, carried = columnar.decode_request(columnar.encode_request(request, trace=context))
        assert decoded == request
        assert carried == context

    @given(requests(), _contexts)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, request, context):
        once = columnar.encode_request(request, trace=context)
        decoded, carried = columnar.decode_request(once)
        assert columnar.encode_request(decoded, trace=carried) == once

    @given(requests(), trace_contexts)
    @settings(max_examples=150, deadline=None)
    def test_a_traced_request_keys_like_an_untraced_one(self, request, context):
        traced, _ = columnar.decode_request(columnar.encode_request(request, trace=context))
        untraced, _ = columnar.decode_request(columnar.encode_request(request))
        assert traced == untraced
        assert traced.cache_key() == untraced.cache_key() == request.cache_key()


# -- response properties ----------------------------------------------------------


class TestResponseTraceSlot:
    @given(responses(), _span_lists)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_carries_the_spans_beside_the_response(self, response, spans):
        decoded, shipped = columnar.decode_response(
            columnar.encode_response(response, trace=spans)
        )
        assert decoded == response
        assert shipped == spans

    @given(responses(), _span_lists)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, response, spans):
        once = columnar.encode_response(response, trace=spans)
        decoded, shipped = columnar.decode_response(once)
        assert columnar.encode_response(decoded, trace=shipped) == once
