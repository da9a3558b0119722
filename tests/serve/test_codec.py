"""The serving wire codec: round trips, bounds, truncation hardening."""

import ast
import asyncio
import io
import socket

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ServeError
from repro.serve.codec import (
    _LEN,
    MAX_SEGMENT,
    decode_arrays,
    decode_payload,
    encode_arrays,
    encode_frame,
    encode_payload,
    read_frame,
    read_frame_sync,
)


class TestPayloadRoundTrip:
    CASES = {
        "empty": np.zeros((0,), np.float32),
        "zero_dim": np.asarray(3.5, dtype=np.float64),
        "f32_3d": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        "int8": np.arange(-5, 5, dtype=np.int8),
        "uint32": np.arange(16, dtype=np.uint32).reshape(4, 4),
        "bool": np.array([True, False, True]),
        "strided_view": np.arange(64, dtype=np.float64).reshape(8, 8)[::2, 1::3],
        "fortran_order": np.asfortranarray(
            np.arange(12, dtype=np.float32).reshape(3, 4)
        ),
        "negative_stride": np.arange(10, dtype=np.float32)[::-1],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_round_trip_is_lossless(self, name):
        array = self.CASES[name]
        out = decode_payload(encode_payload(array))
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert np.array_equal(out, array)

    def test_none_maps_to_empty_payload(self):
        assert encode_payload(None) == b""
        assert decode_payload(b"") is None

    def test_contiguous_fast_path_is_byte_identical_to_np_save(self):
        # The no-copy path must emit exactly what np.save would, so readers
        # (np.load) and recorded payload digests never see a difference.
        for array in (
            np.arange(60, dtype=np.float32).reshape(3, 4, 5),
            np.zeros((0, 7), np.int64),
            np.asarray(1.25),
        ):
            buffer = io.BytesIO()
            np.save(buffer, array, allow_pickle=False)
            assert encode_payload(array) == buffer.getvalue()


PLAIN_DTYPES = [
    np.dtype(code).newbyteorder(order)
    for code in ("f2", "f4", "f8", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "c8", "c16")
    for order in "<>"
] + [np.dtype(bool)]


class TestStrictHeaderDecode:
    """The strict header parse matches np.load and never calls ast."""

    @given(
        hnp.arrays(
            st.sampled_from(PLAIN_DTYPES),
            hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        ),
        st.booleans(),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_round_trip_matches_np_load(self, array, fortran):
        if fortran:
            array = np.asfortranarray(array)
        payload = encode_payload(array)
        want = np.load(io.BytesIO(payload), allow_pickle=False)
        got = decode_payload(payload)
        assert got.dtype == want.dtype == array.dtype
        assert got.shape == want.shape == array.shape
        assert got.strides == want.strides
        assert got.flags.writeable
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert got.tobytes() == array.tobytes()

    @pytest.mark.parametrize(
        "payload",
        [
            b"garbage",
            b"\x93NUMPY\x01\x00\x10\x00{not a dict}   \n",
            # An object dtype: np.load refuses it without allow_pickle.
            b"\x93NUMPY\x01\x00\x46\x00"
            + b"{'descr': '|O', 'fortran_order': False, 'shape': (1,), }"
            + b" " * 11
            + b"\n"
            + b"\0" * 8,
            # A header longer than np.load's max_header_size.
            b"\x93NUMPY\x01\x00\x30\x75"
            + b"{'descr': '<f8', 'fortran_order': False, 'shape': (1,), }".ljust(29999)
            + b"\n"
            + b"\0" * 8,
        ],
    )
    def test_garbage_headers_raise(self, payload):
        with pytest.raises(ValueError):
            decode_payload(payload)

    def test_truncated_payloads_raise(self):
        payload = encode_payload(np.arange(6, dtype=np.float32).reshape(2, 3))
        for cut in (3, 9, 20, 70, len(payload) - 1):
            with pytest.raises(ValueError):
                decode_payload(payload[:cut])

    def test_trailing_data_raises(self):
        payload = encode_payload(np.arange(6, dtype=np.float32))
        with pytest.raises(ValueError):
            decode_payload(payload + b"\0")

    @pytest.mark.parametrize(
        "array",
        [np.array(["ab", "c"]), np.array(["2026-01-01"], dtype="datetime64[D]")],
    )
    def test_non_numeric_dtypes_raise(self, array):
        with pytest.raises(ValueError):
            decode_payload(encode_payload(array))

    def test_batch_decode_does_not_parse_with_ast(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("ast.literal_eval called")

        monkeypatch.setattr(ast, "literal_eval", refuse)
        batch = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        out = decode_payload(encode_payload(batch))
        assert np.array_equal(out, batch)
        arrays = decode_arrays(encode_arrays({"x": batch, "y": np.arange(3)}))
        assert np.array_equal(arrays["x"], batch)


class TestArraysPayload:
    def test_round_trip_preserves_order_and_dotted_names(self, rng):
        arrays = {
            "layers.0.conv.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
            "bias": rng.normal(size=(4,)),
            "running.mean": np.zeros((0,), np.float64),
        }
        out = decode_arrays(encode_arrays(arrays))
        assert list(out) == list(arrays)  # np.savez could not keep these keys
        for name, array in arrays.items():
            assert np.array_equal(out[name], array)
            assert out[name].dtype == array.dtype

    def test_empty_mapping_round_trips(self):
        assert decode_arrays(encode_arrays({})) == {}

    def test_truncation_anywhere_raises_typed(self, rng):
        blob = encode_arrays({"a": rng.normal(size=(3, 3))})
        for cut in (1, _LEN.size, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ServeError, match="truncated mid-record"):
                decode_arrays(blob[:cut])


class TestFrameBounds:
    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(ServeError, match="payload .* exceeds"):
            encode_frame({"op": "serve"}, b"\0" * (MAX_SEGMENT + 1))

    def test_reader_rejects_oversized_prefix_before_allocating(self):
        left, right = socket.socketpair()
        try:
            left.sendall(_LEN.pack(MAX_SEGMENT + 1))
            with pytest.raises(ServeError, match="exceeds"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_non_object_header_rejected(self):
        left, right = socket.socketpair()
        try:
            head = b"[1, 2]"
            left.sendall(_LEN.pack(len(head)) + head + _LEN.pack(0))
            with pytest.raises(ServeError, match="JSON object"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()


class TestTruncatedStreams:
    def frame(self):
        return encode_frame({"op": "serve", "id": 3}, b"payload-bytes")

    def test_sync_reader_raises_typed_mid_frame(self):
        frame = self.frame()
        for cut in (2, _LEN.size + 1, len(frame) - 1):
            left, right = socket.socketpair()
            try:
                left.sendall(frame[:cut])
                left.close()
                with pytest.raises(ServeError, match="mid-frame"):
                    read_frame_sync(right)
            finally:
                right.close()

    def test_async_reader_raises_typed_mid_frame(self):
        frame = self.frame()

        async def read(data: bytes):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader)

        for cut in (2, _LEN.size + 1, len(frame) - 1):
            with pytest.raises(ServeError, match="mid-frame"):
                asyncio.run(read(frame[:cut]))

    def test_async_reader_returns_none_on_clean_eof(self):
        async def read(data: bytes):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            first = await read_frame(reader)
            return first, await read_frame(reader)

        first, second = asyncio.run(read(self.frame()))
        header, payload = first
        assert header == {"op": "serve", "id": 3}
        assert payload == b"payload-bytes"
        assert second is None  # EOF exactly at a frame boundary
