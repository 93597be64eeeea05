"""Unit tests for KeyedJaggedTensor."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import JaggedTensor, KeyedJaggedTensor


def make_kjt():
    # The Figure 5 batch from the paper.
    rows = [
        {"a": [1, 2], "b": [3, 4, 5], "c": [7, 8], "d": [9]},
        {"b": [4, 5, 6], "c": [7, 8], "d": [9]},
        {"a": [1, 2], "b": [3, 4, 5], "c": [10], "d": [11]},
    ]
    return KeyedJaggedTensor.from_rows(rows)


class TestConstruction:
    def test_from_rows_keys_discovered_in_order(self):
        kjt = make_kjt()
        assert kjt.keys == ["a", "b", "c", "d"]
        assert kjt.batch_size == 3

    def test_missing_key_becomes_empty_row(self):
        kjt = make_kjt()
        assert kjt["a"].to_lists() == [[1, 2], [], [1, 2]]

    def test_figure5_kjt_slices(self):
        kjt = make_kjt()
        np.testing.assert_array_equal(kjt["a"].values, [1, 2, 1, 2])
        np.testing.assert_array_equal(kjt["a"].offsets, [0, 2, 2, 4])

    def test_explicit_keys_subset(self):
        rows = [{"a": [1], "b": [2]}]
        kjt = KeyedJaggedTensor.from_rows(rows, keys=["b"])
        assert kjt.keys == ["b"]

    def test_empty_tensors_rejected(self):
        with pytest.raises(ValueError):
            KeyedJaggedTensor({})

    def test_mismatched_batch_sizes_rejected(self):
        with pytest.raises(ValueError):
            KeyedJaggedTensor(
                {
                    "a": JaggedTensor.from_lists([[1]]),
                    "b": JaggedTensor.from_lists([[1], [2]]),
                }
            )

    def test_from_rows_no_keys_rejected(self):
        with pytest.raises(ValueError):
            KeyedJaggedTensor.from_rows([{}, {}])


class TestAccess:
    def test_getitem_and_contains(self):
        kjt = make_kjt()
        assert "a" in kjt
        assert "z" not in kjt
        assert kjt["b"].to_lists()[1] == [4, 5, 6]

    def test_iter_and_items(self):
        kjt = make_kjt()
        assert list(kjt) == kjt.keys
        assert [k for k, _ in kjt.items()] == kjt.keys

    def test_total_values(self):
        kjt = make_kjt()
        assert kjt.total_values == 4 + 9 + 5 + 3

    def test_select_subset(self):
        kjt = make_kjt()
        sub = kjt.select(["c", "d"])
        assert sub.keys == ["c", "d"]
        assert sub.batch_size == 3

    def test_select_missing_raises(self):
        with pytest.raises(KeyError):
            make_kjt().select(["nope"])

    def test_select_repeated_key_raises_naming_it(self):
        with pytest.raises(ValueError, match="key 'a' is named more than once"):
            make_kjt().select(["a", "c", "a"])

    def test_select_reorders_and_copies(self):
        kjt = make_kjt()
        sub = kjt.select(["d", "a"])
        assert sub.keys == ["d", "a"]
        assert sub["d"] == kjt["d"] and sub["a"] == kjt["a"]
        assert not np.shares_memory(sub.flat.values, kjt.flat.values)

    def test_to_row_dicts_round_trip(self):
        rows = [
            {"a": [1, 2], "b": [3]},
            {"a": [], "b": [4, 5]},
        ]
        kjt = KeyedJaggedTensor.from_rows(rows)
        got = kjt.to_row_dicts()
        assert got == [
            {"a": [1, 2], "b": [3]},
            {"a": [], "b": [4, 5]},
        ]

    def test_equality(self):
        assert make_kjt() == make_kjt()
        other = KeyedJaggedTensor.from_rows([{"a": [1]}])
        assert make_kjt() != other
        assert make_kjt().__eq__(3) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_kjt())

    def test_nbytes_sums_keys(self):
        kjt = make_kjt()
        assert kjt.nbytes == sum(kjt[k].nbytes for k in kjt.keys)


@st.composite
def row_batches(draw):
    keys = draw(
        st.lists(
            st.sampled_from(["f1", "f2", "f3", "f4"]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    n = draw(st.integers(min_value=1, max_value=12))
    rows = [
        {
            k: draw(
                st.lists(st.integers(min_value=0, max_value=99), max_size=6)
            )
            for k in keys
        }
        for _ in range(n)
    ]
    return rows, keys


@given(row_batches())
def test_property_row_dict_round_trip(batch):
    rows, keys = batch
    kjt = KeyedJaggedTensor.from_rows(rows, keys=keys)
    assert kjt.to_row_dicts() == [{k: list(r[k]) for k in keys} for r in rows]
