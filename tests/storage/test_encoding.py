"""Round-trip tests for column stream encodings."""

import time

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

from .reference_rows import varint_decode_python


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


# -- the varint kernel against an independent oracle ---------------------------

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _width_edges() -> list[int]:
    """Values on either side of a varint width step, 2**(7k), taken
    both as the value and as its zigzag, plus the int64 ends."""
    edges = {_INT64_MIN, _INT64_MAX}
    for k in range(1, 10):
        for step in (2 ** (7 * k) - 1, 2 ** (7 * k), 2 ** (7 * k) + 1):
            edges.update((step, -step))
            edges.add(step >> 1 if step % 2 == 0 else -((step + 1) >> 1))
    return sorted(e for e in edges if _INT64_MIN <= e <= _INT64_MAX)


_edge_columns = st.lists(
    st.one_of(
        st.sampled_from(_width_edges()),
        st.integers(min_value=_INT64_MIN, max_value=_INT64_MAX),
    ),
    max_size=60,
)
_hostile_chunk = st.lists(
    st.one_of(
        st.binary(max_size=12),
        # a run of continuation bytes, up to three times the widest value
        st.builds(
            lambda run, last: b"\x80" * run + bytes([last]),
            st.integers(0, 30),
            st.integers(0, 255),
        ),
    ),
    max_size=4,
).map(b"".join)


class TestVarintOracle:
    """``varint_decode_python`` is a byte loop on Python ints and shares
    no code with the kernel; the plane loop in ``reference_rows`` gathers
    per value as the kernel does, so it cannot be the oracle."""

    @given(_edge_columns, st.lists(st.integers(0, 60), max_size=6))
    def test_any_column_decodes_as_the_oracle(self, values, cuts):
        v = np.array(values, dtype=np.int64)
        bounds = sorted([0, v.size, *(min(c, v.size) for c in cuts)])
        counts = np.diff(bounds)
        payloads = encode_int64_chunks(v, bounds, IntEncoding.VARINT)
        want = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [
                varint_decode_python(data, count)
                for data, count in zip(payloads, counts.tolist())
            ]
        )
        np.testing.assert_array_equal(want, v)
        np.testing.assert_array_equal(
            decode_int64_chunks(payloads, counts, IntEncoding.VARINT), want
        )

    @given(
        st.lists(
            st.tuples(_hostile_chunk, st.one_of(st.none(), st.integers(0, 13))),
            max_size=5,
        )
    )
    def test_any_bytes_decode_or_fail_as_the_oracle(self, chunks):
        payloads = [data for data, _ in chunks]
        # None: the count of value ends the chunk holds, so that chunks
        # which decode come up as often as chunks which do not
        counts = [
            sum(byte < 0x80 for byte in data) if count is None else count
            for data, count in chunks
        ]
        try:
            want = [
                varint_decode_python(data, count)
                for data, count in zip(payloads, counts)
            ]
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                decode_int64_chunks(payloads, counts, IntEncoding.VARINT)
            assert str(got.value) == str(err)
        else:
            np.testing.assert_array_equal(
                decode_int64_chunks(payloads, counts, IntEncoding.VARINT),
                np.concatenate([np.empty(0, dtype=np.int64), *want]),
            )

    def test_a_hostile_width_fails_before_it_sizes_the_gather(self):
        """The gather loops once per byte of the widest value, so the
        width is bounded by the overlong check before it is used: a
        megabyte of continuation bytes is one error, not a million
        passes."""
        hostile = b"\x80" * 1_000_000 + b"\x00"
        started = time.perf_counter()
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            decode_int64_chunks([hostile], [1], IntEncoding.VARINT)
        assert time.perf_counter() - started < 1.0
        good = encode_int64(np.array([1, 300]), IntEncoding.VARINT)
        long_mid = b"\x01" + b"\x80" * 11 + b"\x00" + b"\x02"
        # an over-long value mid-stream is its own chunk's error: the
        # wrong count in the chunk after it is never reached ...
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            decode_int64_chunks(
                [good, long_mid, good], [2, 3, 5], IntEncoding.VARINT
            )
        # ... and a wrong count in the chunk before it comes first
        with pytest.raises(ValueError, match="holds 2 values, expected 1"):
            decode_int64_chunks([good, long_mid], [1, 3], IntEncoding.VARINT)
        # the widest legal value is ten bytes: INT64_MIN zigzags to 2**64 - 1
        ten = encode_int64(np.array([_INT64_MIN]), IntEncoding.VARINT)
        assert len(ten) == 10
        np.testing.assert_array_equal(
            decode_int64_chunks([good, ten], [2, 1], IntEncoding.VARINT),
            [1, 300, _INT64_MIN],
        )
