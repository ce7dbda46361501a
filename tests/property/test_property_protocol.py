"""Property-based tests for the wire protocol's lossless JSON encoding.

The shard transport (``repro.serving.transport``) depends on
``DataRequest``/``DataResponse`` surviving encode -> decode unchanged, and
on ``cache_key`` being stable across the wire (a cache on the far side of a
transport must key exactly like an in-process one).
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.net.protocol import DataRequest, DataResponse

# -- strategies -------------------------------------------------------------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def tile_requests(draw):
    return DataRequest(
        canvas_id=draw(_names),
        layer_index=draw(st.integers(min_value=0, max_value=7)),
        granularity="tile",
        design=draw(st.sampled_from(["spatial", "mapping"])),
        tile_id=draw(st.integers(min_value=0, max_value=10_000)),
        tile_size=draw(st.sampled_from([256, 512, 1024, 4096])),
    )


@st.composite
def box_requests(draw):
    return DataRequest(
        canvas_id=draw(_names),
        layer_index=draw(st.integers(min_value=0, max_value=7)),
        granularity="box",
        design="spatial",
        xmin=draw(_floats),
        ymin=draw(_floats),
        xmax=draw(_floats),
        ymax=draw(_floats),
    )


requests = st.one_of(tile_requests(), box_requests())

# Object values in canonical row form: scalars plus tuples (never lists —
# JSON decoding restores sequences as tuples).
_scalar = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    _floats,
    _names,
    st.booleans(),
    st.none(),
)
_bbox = st.tuples(_floats, _floats, _floats, _floats)
# Nested sequences (e.g. a polygon column as a tuple of point pairs): the
# canonical row form is tuples at *every* nesting depth, which decoding
# must restore recursively.
_nested = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, min_size=0, max_size=3).map(tuple),
    max_leaves=6,
)
_value = st.one_of(_scalar, _bbox, _nested)
_objects = st.lists(
    st.dictionaries(_names, _value, min_size=0, max_size=5), min_size=0, max_size=5
)


@st.composite
def responses(draw):
    return DataResponse(
        request=draw(requests),
        objects=draw(_objects),
        query_ms=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        from_cache=draw(st.booleans()),
        queries_issued=draw(st.integers(min_value=0, max_value=1000)),
        coalesced=draw(st.booleans()),
    )


# -- request properties -----------------------------------------------------------


class TestDataRequestRoundTrip:
    @given(requests)
    @settings(max_examples=150, deadline=None)
    def test_json_roundtrip_is_identity(self, request):
        assert DataRequest.from_json(request.to_json()) == request

    @given(requests)
    @settings(max_examples=150, deadline=None)
    def test_cache_key_stable_across_the_wire(self, request):
        decoded = DataRequest.from_json(request.to_json())
        assert decoded.cache_key() == request.cache_key()

    @given(requests)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, request):
        # encode -> decode -> encode is byte-stable (sort_keys canonical form).
        once = request.to_json()
        assert DataRequest.from_json(once).to_json() == once


# -- response properties ----------------------------------------------------------


class TestDataResponseRoundTrip:
    @given(responses())
    @settings(max_examples=150, deadline=None)
    def test_json_roundtrip_is_identity(self, response):
        decoded = DataResponse.from_json(response.to_json())
        assert decoded == response

    @given(responses())
    @settings(max_examples=100, deadline=None)
    def test_scalar_fields_survive(self, response):
        decoded = DataResponse.from_json(response.to_json())
        assert decoded.from_cache == response.from_cache
        assert decoded.coalesced == response.coalesced
        assert decoded.queries_issued == response.queries_issued

    @given(responses())
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, response):
        once = response.to_json()
        assert DataResponse.from_json(once).to_json() == once

    @given(_objects)
    @settings(max_examples=100, deadline=None)
    def test_objects_decode_to_canonical_tuples(self, objects):
        encoded = json.dumps(objects)
        decoded = DataResponse.from_json(
            DataResponse(
                request=DataRequest(
                    canvas_id="c", layer_index=0, granularity="box",
                    xmin=0.0, ymin=0.0, xmax=1.0, ymax=1.0,
                ),
                objects=json.loads(encoded),
            ).to_json()
        )
        for original, roundtripped in zip(objects, decoded.objects):
            assert roundtripped == {
                name: tuple(value) if isinstance(value, list) else value
                for name, value in original.items()
            }
