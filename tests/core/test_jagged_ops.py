"""Unit and property tests for the jagged kernels (O6 and pooling)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    JaggedTensor,
    dense_index_select,
    expand_pooled,
    gather_ranges,
    jagged_index_select,
    segment_mean,
    segment_sum,
)
from repro.core.jagged_ops import scatter


class TestJaggedIndexSelect:
    def test_identity(self):
        jt = JaggedTensor.from_lists([[1, 2], [3], []])
        out = jagged_index_select(jt, np.arange(3))
        assert out == jt

    def test_gather_with_repeats(self):
        jt = JaggedTensor.from_lists([[1, 2], [3], [4, 5, 6]])
        out = jagged_index_select(jt, np.array([2, 0, 0]))
        assert out.to_lists() == [[4, 5, 6], [1, 2], [1, 2]]

    def test_empty_selection(self):
        jt = JaggedTensor.from_lists([[1, 2]])
        out = jagged_index_select(jt, np.array([], dtype=np.int64))
        assert out.num_rows == 0

    def test_select_empty_rows(self):
        jt = JaggedTensor.from_lists([[], [1], []])
        out = jagged_index_select(jt, np.array([0, 2, 1]))
        assert out.to_lists() == [[], [], [1]]

    def test_out_of_range_raises(self):
        jt = JaggedTensor.from_lists([[1]])
        with pytest.raises(IndexError):
            jagged_index_select(jt, np.array([1]))
        with pytest.raises(IndexError):
            jagged_index_select(jt, np.array([-1]))

    def test_2d_indices_rejected(self):
        jt = JaggedTensor.from_lists([[1]])
        with pytest.raises(ValueError):
            gather_ranges(jt.values, jt.offsets, np.zeros((1, 1), dtype=int))

    def test_matches_dense_baseline(self):
        jt = JaggedTensor.from_lists([[1, 2, 3], [], [4], [5, 6]])
        idx = np.array([3, 3, 0, 2, 1])
        assert jagged_index_select(jt, idx) == dense_index_select(jt, idx)

    def test_dense_baseline_all_empty(self):
        jt = JaggedTensor.empty(4)
        idx = np.array([1, 2])
        out = dense_index_select(jt, idx)
        assert out.num_rows == 2
        assert out.total_values == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-100, max_value=100), max_size=5),
        min_size=1,
        max_size=10,
    ),
    st.data(),
)
def test_property_jagged_equals_dense_index_select(rows, data):
    """O6's kernel must agree with the pad-then-gather baseline everywhere."""
    jt = JaggedTensor.from_lists(rows)
    idx = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(rows) - 1), max_size=15
        )
    )
    idx = np.asarray(idx, dtype=np.int64)
    assert jagged_index_select(jt, idx) == dense_index_select(jt, idx)


class TestSegmentReductions:
    def test_segment_sum_2d(self):
        acts = np.arange(12, dtype=np.float64).reshape(6, 2)
        offsets = np.array([0, 2, 2, 6])
        out = segment_sum(acts, offsets)
        np.testing.assert_allclose(out, [[2, 4], [0, 0], [28, 32]])

    def test_segment_sum_1d(self):
        out = segment_sum(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 3]))
        np.testing.assert_allclose(out, [1.0, 5.0])

    def test_segment_mean_handles_empty(self):
        acts = np.array([[2.0], [4.0]])
        out = segment_mean(acts, np.array([0, 2, 2]))
        np.testing.assert_allclose(out, [[3.0], [0.0]])

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError):
            segment_sum(np.zeros((3, 1)), np.array([0, 2]))

    def test_no_empty_nonempty_merge(self):
        # empty segment between two non-empty ones must stay zero
        acts = np.array([[1.0], [2.0], [3.0]])
        offsets = np.array([0, 1, 1, 3])
        np.testing.assert_allclose(
            segment_sum(acts, offsets), [[1.0], [0.0], [5.0]]
        )
        np.testing.assert_allclose(
            segment_mean(acts, offsets), [[1.0], [0.0], [2.5]]
        )


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_property_segment_sum_matches_loop(lengths, dim):
    """Vectorized segment_sum equals a per-segment Python-loop reference."""
    rng = np.random.default_rng(0)
    total = sum(lengths)
    acts = rng.normal(size=(total, dim))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    got = segment_sum(acts, offsets)
    for i, ln in enumerate(lengths):
        ref = acts[offsets[i] : offsets[i + 1]].sum(axis=0)
        np.testing.assert_allclose(got[i], ref)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_property_segment_mean_matches_loop(lengths, dim):
    """segment_mean equals a per-segment loop; an empty segment is zero."""
    rng = np.random.default_rng(1)
    acts = rng.normal(size=(sum(lengths), dim))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    got = segment_mean(acts, offsets)
    for i, ln in enumerate(lengths):
        seg = acts[offsets[i] : offsets[i + 1]]
        ref = seg.mean(axis=0) if ln else np.zeros(dim)
        np.testing.assert_allclose(got[i], ref)


class TestScatter:
    """The flat 1-D path applies ``ufunc.at``'s operations in its order."""

    @pytest.mark.parametrize("ufunc", [np.add, np.subtract])
    @pytest.mark.parametrize("shape", [(50,), (50, 16), (50, 3, 4)])
    def test_bitwise_equal_to_ufunc_at_with_repeated_ids(self, ufunc, shape):
        rng = np.random.default_rng(0)
        ids = rng.integers(-50, 50, size=400)  # repeats, negatives wrap
        values = rng.normal(size=(400,) + shape[1:])
        want = rng.normal(size=shape)
        got = want.copy()
        ufunc.at(want, ids, values)
        scatter(ufunc, got, ids, values)
        assert got.tobytes() == want.tobytes()

    def test_strided_target_is_updated_not_a_flat_copy_of_it(self):
        """``reshape(-1)`` of a non-contiguous target is a copy: an update
        through it would be lost.  Such targets take the N-D ``at``."""
        rng = np.random.default_rng(1)
        ids = np.array([3, 3, 7, 3, 0, 7])
        values = rng.normal(size=(6, 4))
        want = rng.normal(size=(20, 8))
        got = want.copy()
        assert not got[:, ::2].flags.c_contiguous
        np.subtract.at(want[:, ::2], ids, values)
        scatter(np.subtract, got[:, ::2], ids, values)
        assert got.tobytes() == want.tobytes()

    def test_out_of_range_id_raises(self):
        with pytest.raises(IndexError):
            scatter(np.add, np.zeros((4, 2)), np.array([4]), np.ones((1, 2)))

    def test_misaligned_values_raise(self):
        with pytest.raises(ValueError):
            scatter(np.add, np.zeros((4, 2)), np.array([0, 1]), np.ones((4, 1, 1)))


class TestExpandPooled:
    def test_expand(self):
        pooled = np.array([[24.0], [21.0]])
        out = expand_pooled(pooled, np.array([0, 0, 1]))
        np.testing.assert_allclose(out, [[24.0], [24.0], [21.0]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            expand_pooled(np.zeros((1, 2)), np.array([1]))

    def test_empty_lookup(self):
        out = expand_pooled(np.zeros((2, 3)), np.array([], dtype=np.int64))
        assert out.shape == (0, 3)
