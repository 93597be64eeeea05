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
from repro.storage.encoding import decode_int64_chunks, encode_int64_chunks


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


# -- decode_int64_chunks: the mirror of encode_int64_chunks --------------------

_chunk_values = st.lists(
    st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.integers(min_value=-64, max_value=63),
    ),
    max_size=60,
)


class TestDecodeChunks:
    @given(
        _chunk_values,
        st.lists(st.integers(0, 60), max_size=6),
        st.sampled_from(list(IntEncoding)),
    )
    def test_round_trips_what_encode_chunks_wrote(self, values, cuts, encoding):
        """Any cut of a column, empty chunks included (a repeated cut),
        comes back as the column."""
        v = np.array(values, dtype=np.int64)
        bounds = sorted([0, v.size, *(min(c, v.size) for c in cuts)])
        payloads = encode_int64_chunks(v, bounds, encoding)
        got = decode_int64_chunks(payloads, np.diff(bounds), encoding)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, v)

    @given(
        st.lists(
            st.tuples(st.binary(max_size=12), st.integers(0, 13)), max_size=5
        ),
        st.sampled_from([IntEncoding.VARINT, IntEncoding.PLAIN]),
    )
    def test_hostile_chunks_fail_as_the_first_bad_chunk_fails_alone(
        self, chunks, encoding
    ):
        """One pass over the concatenated bytes must not let a chunk
        borrow bytes or values from its neighbour: the outcome is what
        decoding chunk by chunk gives, error message included."""
        payloads = [data for data, _ in chunks]
        counts = [count for _, count in chunks]
        try:
            want = [
                decode_int64(data, count, encoding) for data, count in chunks
            ]
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                decode_int64_chunks(payloads, counts, encoding)
            assert str(got.value) == str(err)
        else:
            np.testing.assert_array_equal(
                decode_int64_chunks(payloads, counts, encoding),
                np.concatenate([np.empty(0, dtype=np.int64), *want]),
            )

    def test_a_cut_inside_a_multi_byte_value_is_a_truncation(self):
        data = encode_int64(np.array([1, 300, 2]), IntEncoding.VARINT)
        assert len(data) == 4  # 300 zigzags to two bytes
        with pytest.raises(ValueError, match="truncated inside its last value"):
            decode_int64_chunks(
                [data[:2], data[2:]], [2, 1], IntEncoding.VARINT
            )

    @pytest.mark.parametrize(
        "values", [[1, 2, 3], [1, 300, 70000]], ids=["one-byte", "multi-byte"]
    )
    def test_a_neighbour_cannot_compensate_a_wrong_count(self, values):
        """Counts [1, 2] over chunks holding [2, 1] values: the total is
        right, each chunk is wrong."""
        v = np.array(values, dtype=np.int64)
        payloads = encode_int64_chunks(v, [0, 2, 3], IntEncoding.VARINT)
        with pytest.raises(
            ValueError, match="varint stream holds 2 values, expected 1"
        ):
            decode_int64_chunks(payloads, [1, 2], IntEncoding.VARINT)
        payloads = encode_int64_chunks(v, [0, 2, 3], IntEncoding.PLAIN)
        with pytest.raises(
            ValueError, match="plain stream is 16 bytes, expected 8"
        ):
            decode_int64_chunks(payloads, [1, 2], IntEncoding.PLAIN)

    @pytest.mark.parametrize("encoding", [IntEncoding.RLE, IntEncoding.DICT])
    def test_stateful_encodings_check_each_chunk_too(self, encoding):
        v = np.array([5, 5, 5, 9], dtype=np.int64)
        payloads = encode_int64_chunks(v, [0, 3, 4], encoding)
        with pytest.raises(ValueError, match="expected 2"):
            decode_int64_chunks(payloads, [2, 2], encoding)

    def test_payloads_and_counts_must_pair_up(self):
        with pytest.raises(ValueError, match="1 payloads for 2"):
            decode_int64_chunks([b""], [0, 0], IntEncoding.VARINT)

    def test_no_chunks_is_an_empty_column(self):
        for encoding in IntEncoding:
            got = decode_int64_chunks([], [], encoding)
            assert got.dtype == np.int64 and got.size == 0
