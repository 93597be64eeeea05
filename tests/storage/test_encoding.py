"""Round-trip tests for column stream encodings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import (
    IntEncoding,
    decode_int64,
    encode_int64,
    unzigzag,
    zigzag,
)


class TestZigzag:
    def test_small_values_stay_small(self):
        v = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        np.testing.assert_array_equal(zigzag(v), [0, 1, 2, 3, 4])

    def test_round_trip_extremes(self):
        v = np.array(
            [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)], dtype=np.int64
        )
        np.testing.assert_array_equal(unzigzag(zigzag(v)), v)


class TestPlain:
    def test_round_trip(self):
        v = np.array([1, 2, 3], dtype=np.int64)
        data = encode_int64(v, IntEncoding.PLAIN)
        np.testing.assert_array_equal(
            decode_int64(data, 3, IntEncoding.PLAIN), v
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            decode_int64(b"\x00" * 8, 2, IntEncoding.PLAIN)


class TestVarint:
    def test_round_trip_basic(self):
        v = np.array([0, 1, 127, 128, 300, 10**12], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        np.testing.assert_array_equal(
            decode_int64(data, v.size, IntEncoding.VARINT), v
        )

    def test_negative_values(self):
        v = np.array([-1, -127, -128, -(10**9)], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        np.testing.assert_array_equal(
            decode_int64(data, v.size, IntEncoding.VARINT), v
        )

    def test_empty(self):
        data = encode_int64(np.array([], dtype=np.int64), IntEncoding.VARINT)
        assert data == b""
        out = decode_int64(data, 0, IntEncoding.VARINT)
        assert out.size == 0

    def test_smaller_than_plain_for_small_ids(self):
        v = np.arange(1000, dtype=np.int64)
        varint = encode_int64(v, IntEncoding.VARINT)
        plain = encode_int64(v, IntEncoding.PLAIN)
        assert len(varint) < len(plain) / 3

    def test_count_mismatch_detected(self):
        v = np.array([1, 2, 3], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        with pytest.raises(ValueError, match="holds 3 values, expected 2"):
            decode_int64(data, 2, IntEncoding.VARINT)

    def test_truncated_last_value_detected(self):
        """A stream ending on a continuation byte holds the right number
        of *complete* values, so only the final byte gives it away."""
        data = encode_int64(np.array([1, 2, 3]), IntEncoding.VARINT)
        with pytest.raises(ValueError, match="truncated"):
            decode_int64(data + b"\x80\x80", 3, IntEncoding.VARINT)
        with pytest.raises(ValueError, match="truncated"):
            decode_int64(b"\x80", 0, IntEncoding.VARINT)

    def test_overlong_value_detected(self):
        """No int64 needs an 11th byte; its bits would shift past 63."""
        ten = b"\x80" * 9 + b"\x01"
        assert decode_int64(ten, 1, IntEncoding.VARINT).size == 1
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            decode_int64(b"\x80" + ten, 1, IntEncoding.VARINT)
        # an over-long value hidden between well-formed ones
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            decode_int64(b"\x01" + b"\x80" * 10 + b"\x00\x02", 3, IntEncoding.VARINT)

    def test_int64_extremes(self):
        v = np.array([2**63 - 1, -(2**63), 0], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        np.testing.assert_array_equal(
            decode_int64(data, 3, IntEncoding.VARINT), v
        )


@given(
    st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=100
    )
)
def test_property_varint_round_trip(values):
    v = np.array(values, dtype=np.int64)
    data = encode_int64(v, IntEncoding.VARINT)
    np.testing.assert_array_equal(
        decode_int64(data, v.size, IntEncoding.VARINT), v
    )


@given(st.lists(st.integers(min_value=0, max_value=2**20), max_size=50))
def test_property_plain_round_trip(values):
    v = np.array(values, dtype=np.int64)
    data = encode_int64(v, IntEncoding.PLAIN)
    np.testing.assert_array_equal(
        decode_int64(data, v.size, IntEncoding.PLAIN), v
    )
