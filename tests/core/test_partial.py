"""Tests for partial IKJTs (§7) — shift-aware deduplication."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InverseKeyedJaggedTensor,
    JaggedTensor,
    KeyedJaggedTensor,
    PartialJaggedTensor,
)
from repro.reader import DataLoaderConfig, convert_rows
from tests.conftest import make_reader_schema, make_trace


def _expand(pt):
    """Expand a partial tensor back to the jagged tensor it encodes,
    row by row."""
    return JaggedTensor.from_lists(
        [pt.row(i) for i in range(pt.batch_size)], dtype=pt.values.dtype
    )


class TestPaperExample:
    def test_figure5_feature_b_partial(self):
        """§7: b = [3,4,5]/[4,5,6]/[3,4,5] -> values [3,4,5,6] and
        inverse_lookup [[0,3],[1,3],[0,3]]."""
        jt = JaggedTensor.from_lists([[3, 4, 5], [4, 5, 6], [3, 4, 5]])
        pt = PartialJaggedTensor.from_jagged(jt)
        np.testing.assert_array_equal(pt.values, [3, 4, 5, 6])
        np.testing.assert_array_equal(
            pt.inverse_lookup, [[0, 3], [1, 3], [0, 3]]
        )

    def test_partial_beats_exact_on_shifts(self):
        jt = JaggedTensor.from_lists([[3, 4, 5], [4, 5, 6], [3, 4, 5]])
        pt = PartialJaggedTensor.from_jagged(jt)
        # exact dedup stores 6 values (two distinct lists); partial stores 4
        assert pt.total_values == 4
        assert pt.dedupe_factor() == pytest.approx(9 / 4)


class TestRoundTrip:
    def test_lossless(self):
        rows = [[1, 2, 3], [2, 3, 4], [9], [], [1, 2, 3], [3, 4]]
        jt = JaggedTensor.from_lists(rows)
        pt = PartialJaggedTensor.from_jagged(jt)
        assert _expand(pt).to_lists() == rows

    def test_empty_batch(self):
        pt = PartialJaggedTensor.from_jagged(JaggedTensor.from_lists([]))
        assert pt.batch_size == 0
        assert pt.total_values == 0
        assert pt.dedupe_factor() == 1.0

    def test_all_empty_rows(self):
        pt = PartialJaggedTensor.from_jagged(JaggedTensor.empty(3))
        assert _expand(pt).to_lists() == [[], [], []]

    def test_window_subsumption(self):
        # A row that is an interior window of a stored row adds no values.
        jt = JaggedTensor.from_lists([[1, 2, 3, 4], [2, 3]])
        pt = PartialJaggedTensor.from_jagged(jt)
        assert pt.total_values == 4
        assert _expand(pt).to_lists() == [[1, 2, 3, 4], [2, 3]]


class TestValidation:
    def test_bad_lookup_shape(self):
        with pytest.raises(ValueError):
            PartialJaggedTensor(np.arange(3), np.array([0, 3]))

    def test_out_of_bounds_window(self):
        with pytest.raises(ValueError):
            PartialJaggedTensor(np.arange(3), np.array([[1, 3]]))

    def test_nbytes(self):
        jt = JaggedTensor.from_lists([[1, 2]])
        pt = PartialJaggedTensor.from_jagged(jt)
        assert pt.nbytes == pt.values.nbytes + pt.inverse_lookup.nbytes


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), max_size=5),
        max_size=12,
    )
)
def test_property_partial_round_trip(rows):
    """Partial dedup is lossless for arbitrary batches."""
    jt = JaggedTensor.from_lists(rows)
    pt = PartialJaggedTensor.from_jagged(jt)
    assert _expand(pt).to_lists() == rows
    # and never stores more values than the original
    assert pt.total_values <= jt.total_values


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), max_size=5),
        min_size=1,
        max_size=12,
    )
)
def test_property_partial_never_stores_more_than_exact(rows):
    """A repeated row is a window of itself, so partial dedup keeps at
    most what exact dedup keeps: one copy of each distinct list."""
    kjt = KeyedJaggedTensor.from_rows([{"f": r} for r in rows])
    pt = PartialJaggedTensor.from_jagged(kjt["f"])
    exact = InverseKeyedJaggedTensor.from_kjt(kjt)["f"]
    assert pt.total_values <= exact.total_values


class TestOnReaderBatches:
    """The §7 encoding over a reader-converted KJT feature, the input the
    ``partial`` figure measures: ``hist`` shifts often here (change_prob
    0.3), the regime where partial dedup wins over exact dedup."""

    @pytest.fixture(scope="class")
    def batch(self):
        schema = make_reader_schema(hist_avg_length=12, hist_change_prob=0.3)
        rows = make_trace(schema, sessions=20, seed=0, clustered=True)
        cfg = DataLoaderConfig(
            batch_size=48, sparse_features=("hist", "item"), dense_features=("d",)
        )
        return convert_rows(rows[:48], cfg)[0]

    def test_partial_batch_lossless(self, batch):
        hist = batch.kjt["hist"]
        pt = PartialJaggedTensor.from_jagged(hist)
        assert pt.batch_size == batch.batch_size
        assert _expand(pt) == hist

    def test_partial_beats_exact_on_shifted_feature(self, batch):
        hist = batch.kjt["hist"]
        pt = PartialJaggedTensor.from_jagged(hist)
        exact = InverseKeyedJaggedTensor.from_kjt(batch.kjt, ["hist"])
        assert pt.total_values < exact["hist"].total_values
        assert pt.dedupe_factor() > hist.total_values / exact["hist"].total_values

    def test_partial_shrinks_bytes(self, batch):
        hist = batch.kjt["hist"]
        assert PartialJaggedTensor.from_jagged(hist).nbytes < hist.nbytes
