"""Unit tests for JaggedTensor and offsets helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    JaggedTensor,
    offsets_from_lengths,
)


class TestOffsetsHelpers:
    def test_offsets_from_lengths_basic(self):
        np.testing.assert_array_equal(
            offsets_from_lengths([2, 0, 3]), [0, 2, 2, 5]
        )

    def test_offsets_from_lengths_empty(self):
        np.testing.assert_array_equal(offsets_from_lengths([]), [0])

    def test_round_trip(self):
        lengths = np.array([3, 1, 0, 7])
        np.testing.assert_array_equal(
            np.diff(offsets_from_lengths(lengths)), lengths
        )

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            offsets_from_lengths([1, -1])

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            offsets_from_lengths(np.zeros((2, 2)))


class TestJaggedTensorConstruction:
    def test_from_lists(self):
        jt = JaggedTensor.from_lists([[1, 2], [], [3]])
        assert jt.num_rows == 3
        assert jt.total_values == 3
        np.testing.assert_array_equal(jt.values, [1, 2, 3])
        np.testing.assert_array_equal(jt.offsets, [0, 2, 2, 3])

    def test_from_lists_empty_batch(self):
        jt = JaggedTensor.from_lists([])
        assert jt.num_rows == 0
        assert jt.total_values == 0

    def test_empty_constructor(self):
        jt = JaggedTensor.empty(5)
        assert jt.num_rows == 5
        assert all(len(jt.row(i)) == 0 for i in range(5))

    def test_rejects_2d_values(self):
        with pytest.raises(ValueError):
            JaggedTensor(np.zeros((2, 2)), np.array([0, 2, 4]))

    def test_rejects_bad_first_offset(self):
        with pytest.raises(ValueError):
            JaggedTensor(np.arange(3), np.array([1, 3]))

    def test_rejects_mismatched_last_offset(self):
        with pytest.raises(ValueError):
            JaggedTensor(np.arange(3), np.array([0, 2]))

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(ValueError):
            JaggedTensor(np.arange(3), np.array([0, 2, 1, 3]))

    def test_rejects_empty_offsets(self):
        with pytest.raises(ValueError):
            JaggedTensor(np.arange(0), np.array([], dtype=np.int64))

    @pytest.mark.parametrize(
        "offsets, dtype",
        [
            (np.array([0, 1.7, 3.0]), "float64"),
            (np.array([0.0, 1.0, 3.0], dtype=np.float32), "float32"),
            (np.array([False, True, True]), "bool"),
        ],
    )
    def test_non_integer_offsets_rejected_not_truncated(self, offsets, dtype):
        with pytest.raises(
            ValueError, match=f"offsets must be an integer array, got {dtype}"
        ):
            JaggedTensor(np.arange(3), offsets)

    def test_integer_offsets_of_any_width_accepted(self):
        for offsets in ([0, 1, 3], np.array([0, 1, 3], dtype=np.uint8)):
            jt = JaggedTensor(np.arange(3), offsets)
            assert jt.offsets.dtype == np.int64
            assert jt.to_lists() == [[0], [1, 2]]


class TestJaggedTensorAccess:
    def test_slice_rows_is_a_rebased_view(self):
        jt = JaggedTensor.from_lists([[1], [2, 3], [], [4, 5, 6]])
        part = jt.slice_rows(1, 3)
        assert part.to_lists() == [[2, 3], []]
        np.testing.assert_array_equal(part.offsets, [0, 2, 2])
        assert np.shares_memory(part.values, jt.values)
        assert jt.slice_rows(2, 2).to_lists() == []
        assert jt.slice_rows(0, 4) == jt

    def test_row_views(self):
        jt = JaggedTensor.from_lists([[1, 2], [3, 4, 5], [7, 8]])
        np.testing.assert_array_equal(jt.row(1), [3, 4, 5])

    def test_row_out_of_range(self):
        jt = JaggedTensor.from_lists([[1]])
        with pytest.raises(IndexError):
            jt.row(1)
        with pytest.raises(IndexError):
            jt.row(-1)

    def test_lengths(self):
        jt = JaggedTensor.from_lists([[1, 2], [], [3]])
        np.testing.assert_array_equal(jt.lengths, [2, 0, 1])

    def test_to_lists_round_trip(self):
        rows = [[1, 2], [], [3, 4, 5]]
        assert JaggedTensor.from_lists(rows).to_lists() == rows

    def test_to_dense_padding(self):
        jt = JaggedTensor.from_lists([[1, 2], [3]])
        np.testing.assert_array_equal(jt.to_dense(), [[1, 2], [3, 0]])

    def test_to_dense_custom_pad(self):
        jt = JaggedTensor.from_lists([[1], []])
        np.testing.assert_array_equal(jt.to_dense(pad_value=-1), [[1], [-1]])

    def test_to_dense_all_empty(self):
        jt = JaggedTensor.empty(3)
        assert jt.to_dense().shape == (3, 0)

    def test_len_and_repr(self):
        jt = JaggedTensor.from_lists([[1], [2, 3]])
        assert len(jt) == 2
        assert "num_rows=2" in repr(jt)

    def test_nbytes_counts_both_slices(self):
        jt = JaggedTensor.from_lists([[1, 2], [3]])
        assert jt.nbytes == jt.values.nbytes + jt.offsets.nbytes

    def test_equality(self):
        a = JaggedTensor.from_lists([[1, 2], [3]])
        b = JaggedTensor.from_lists([[1, 2], [3]])
        c = JaggedTensor.from_lists([[1, 2], [4]])
        assert a == b
        assert a != c
        assert a.__eq__(42) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(JaggedTensor.from_lists([[1]]))


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=10**9), max_size=8),
        max_size=20,
    )
)
def test_property_round_trip(rows):
    """from_lists -> to_lists is the identity for any list-of-lists."""
    jt = JaggedTensor.from_lists(rows)
    assert jt.to_lists() == rows
    np.testing.assert_array_equal(jt.lengths, [len(r) for r in rows])


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=30)
)
def test_property_offsets_lengths_inverse(lengths):
    offsets = offsets_from_lengths(lengths)
    assert offsets[0] == 0
    assert offsets[-1] == sum(lengths)
    np.testing.assert_array_equal(np.diff(offsets), lengths)
