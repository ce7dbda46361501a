"""Property-based tests for the trace fields of the wire protocol.

Tracing piggybacks on the request/response envelope: ``DataRequest.trace``
carries the caller's ``TraceContext`` toward the worker, and
``DataResponse.trace`` carries the worker's span dicts back.  Neither may
disturb the properties the serving stack depends on — lossless round-trips,
canonical encodings, and (critically) a ``cache_key`` that is blind to
tracing, so a traced request hits exactly the cache entries an untraced
one does.
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
def traced_requests(draw):
    return DataRequest(
        app_name=draw(_names),
        canvas_id=draw(_names),
        layer_index=draw(st.integers(min_value=0, max_value=7)),
        granularity="tile",
        design=draw(st.sampled_from(["spatial", "mapping"])),
        tile_id=draw(st.integers(min_value=0, max_value=10_000)),
        tile_size=draw(st.sampled_from([256, 512, 1024])),
        shard_id=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=63))),
        trace=draw(st.one_of(st.none(), trace_contexts)),
    )


@st.composite
def traced_responses(draw):
    return DataResponse(
        request=draw(traced_requests()),
        objects=[],
        query_ms=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        from_cache=draw(st.booleans()),
        queries_issued=draw(st.integers(min_value=0, max_value=100)),
        trace=draw(st.lists(span_dicts, max_size=4)),
    )


# -- request properties -----------------------------------------------------------


class TestTracedRequestRoundTrip:
    @given(traced_requests())
    @settings(max_examples=150, deadline=None)
    def test_json_roundtrip_preserves_the_context(self, request):
        decoded = DataRequest.from_json(request.to_json())
        assert decoded == request
        assert decoded.trace == request.trace

    @given(traced_requests())
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, request):
        once = request.to_json()
        assert DataRequest.from_json(once).to_json() == once

    @given(traced_requests(), trace_contexts)
    @settings(max_examples=150, deadline=None)
    def test_cache_key_is_blind_to_tracing(self, request, context):
        import dataclasses

        untraced = dataclasses.replace(request, trace=None)
        traced = dataclasses.replace(request, trace=context)
        assert untraced.cache_key() == traced.cache_key() == request.cache_key()

    @given(traced_requests(), st.integers(min_value=0, max_value=63))
    @settings(max_examples=100, deadline=None)
    def test_shard_stamping_keeps_the_context(self, request, shard_id):
        stamped = request.for_shard(shard_id)
        assert stamped.trace == request.trace


# -- response properties ----------------------------------------------------------


class TestTracedResponseRoundTrip:
    @given(traced_responses())
    @settings(max_examples=150, deadline=None)
    def test_json_roundtrip_preserves_the_spans(self, response):
        decoded = DataResponse.from_json(response.to_json())
        assert decoded == response
        assert decoded.trace == response.trace

    @given(traced_responses())
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, response):
        once = response.to_json()
        assert DataResponse.from_json(once).to_json() == once

    @given(traced_responses(), st.lists(span_dicts, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_wire_trace_override_ships_without_mutating(self, response, spans):
        before = list(response.trace)
        _, shipped = columnar.decode_response(
            columnar.encode_response(response, trace=spans)
        )
        assert shipped == spans
        # The override is a pure encoding-time substitution: the (possibly
        # cached, possibly shared) response object is untouched.
        assert response.trace == before
        assert DataResponse.from_json(response.to_json()).trace == before

    def test_old_peers_without_trace_fields_still_decode(self):
        # A pre-telemetry peer omits both fields entirely.
        legacy_request = (
            '{"app_name": "a", "canvas_id": "c", "design": "spatial", '
            '"granularity": "box", "layer_index": 0, "shard_id": null, '
            '"tile_id": null, "tile_size": null, "xmax": 1.0, "xmin": 0.0, '
            '"ymax": 1.0, "ymin": 0.0}'
        )
        request = DataRequest.from_json(legacy_request)
        assert request.trace is None
        response = DataResponse(
            request=request, objects=[], query_ms=0.0, from_cache=False,
            queries_issued=0,
        )
        payload = response.to_json()
        assert DataResponse.from_json(payload).trace == []
