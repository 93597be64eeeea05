"""Tests for IKJT: the Figure 5 worked example plus lossless round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InverseKeyedJaggedTensor,
    JaggedTensor,
    KeyedJaggedTensor,
    dedup_grouped_rows,
    dedup_rows,
)


def figure5_kjt():
    rows = [
        {"a": [1, 2], "b": [3, 4, 5], "c": [7, 8], "d": [9]},
        {"b": [4, 5, 6], "c": [7, 8], "d": [9]},
        {"a": [1, 2], "b": [3, 4, 5], "c": [10], "d": [11]},
    ]
    return KeyedJaggedTensor.from_rows(rows)


class TestFigure5:
    """The paper's worked example, asserted slice by slice."""

    def test_feature_b_single_key_ikjt(self):
        ikjt = InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["b"])
        np.testing.assert_array_equal(ikjt["b"].values, [3, 4, 5, 4, 5, 6])
        np.testing.assert_array_equal(ikjt["b"].offsets, [0, 3, 6])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1, 0])

    def test_grouped_c_d(self):
        ikjt = InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["c", "d"])
        np.testing.assert_array_equal(ikjt["c"].values, [7, 8, 10])
        np.testing.assert_array_equal(ikjt["c"].offsets, [0, 2, 3])
        np.testing.assert_array_equal(ikjt["d"].values, [9, 11])
        np.testing.assert_array_equal(ikjt["d"].offsets, [0, 1, 2])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 0, 1])

    def test_round_trip_restores_kjt(self):
        kjt = figure5_kjt()
        for keys in (["a"], ["b"], ["c", "d"]):
            ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, keys)
            assert ikjt.to_kjt() == kjt.select(keys)

    def test_dedupe_factor_feature_a(self):
        # a: rows [1,2], [], [1,2] -> 4 original values, 2 after dedup.
        ikjt = InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["a"])
        assert ikjt.dedupe_factor() == pytest.approx(2.0)

    def test_wire_bytes_exclude_inverse_lookup(self):
        ikjt = InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["c", "d"])
        assert ikjt.wire_nbytes == ikjt.nbytes - ikjt.inverse_lookup.nbytes


class TestGroupedInvariant:
    def test_unsynchronized_rows_not_deduped(self):
        """§4.2: if grouped features are not synchronously updated, the
        affected rows must stay un-deduplicated."""
        rows = [
            {"x": [1], "y": [5]},
            {"x": [1], "y": [6]},  # x repeats but y changed -> no merge
            {"x": [1], "y": [5]},  # both match row 0 -> merge
        ]
        kjt = KeyedJaggedTensor.from_rows(rows)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["x", "y"])
        assert ikjt.num_unique == 2
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 1, 0])
        assert ikjt.to_kjt() == kjt

    def test_group_dedup_weaker_than_single(self):
        rows = [
            {"x": [1], "y": [5]},
            {"x": [1], "y": [6]},
        ]
        kjt = KeyedJaggedTensor.from_rows(rows)
        solo = InverseKeyedJaggedTensor.from_kjt(kjt, ["x"])
        grouped = InverseKeyedJaggedTensor.from_kjt(kjt, ["x", "y"])
        assert solo.num_unique == 1
        assert grouped.num_unique == 2


class TestValidation:
    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), [])

    def test_no_tensors_rejected(self):
        with pytest.raises(ValueError):
            InverseKeyedJaggedTensor({}, np.array([0]))

    def test_mismatched_unique_counts_rejected(self):
        with pytest.raises(ValueError):
            InverseKeyedJaggedTensor(
                {
                    "a": JaggedTensor.from_lists([[1]]),
                    "b": JaggedTensor.from_lists([[1], [2]]),
                },
                np.array([0]),
            )

    def test_out_of_range_inverse_rejected(self):
        with pytest.raises(ValueError):
            InverseKeyedJaggedTensor(
                {"a": JaggedTensor.from_lists([[1]])}, np.array([0, 1])
            )

    def test_2d_inverse_rejected(self):
        with pytest.raises(ValueError):
            InverseKeyedJaggedTensor(
                {"a": JaggedTensor.from_lists([[1]])}, np.zeros((1, 1))
            )

    @pytest.mark.parametrize(
        "inverse, dtype",
        [(np.array([0.9, 1.9]), "float64"), (np.array([False, True]), "bool")],
    )
    def test_non_integer_inverse_rejected_not_truncated(self, inverse, dtype):
        with pytest.raises(
            ValueError,
            match=f"inverse_lookup must be an integer array, got {dtype}",
        ):
            InverseKeyedJaggedTensor(
                {"a": JaggedTensor.from_lists([[1], [2]])}, inverse
            )

    def test_integer_and_empty_inverse_accepted(self):
        jt = JaggedTensor.from_lists([[1], [2]])
        for inverse in ([1, 0, 1], np.array([1, 0, 1], dtype=np.uint8)):
            ikjt = InverseKeyedJaggedTensor({"a": jt}, inverse)
            assert ikjt.inverse_lookup.dtype == np.int64
            assert ikjt.inverse_lookup.tolist() == [1, 0, 1]
        # an empty list is a float64 array; there is nothing to truncate
        assert InverseKeyedJaggedTensor({"a": jt}, []).batch_size == 0

    @pytest.mark.parametrize(
        "groups", [[["a", "a"]], [["a", "b"], ["c", "a"]]], ids=["one", "two"]
    )
    def test_key_named_twice_rejected(self, groups):
        with pytest.raises(ValueError, match="key 'a' is named more than once"):
            InverseKeyedJaggedTensor.from_groups(figure5_kjt(), groups)

    def test_from_kjt_key_named_twice_rejected(self):
        with pytest.raises(ValueError, match="key 'a' is named more than once"):
            InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["a", "a"])

    def test_missing_key_is_a_value_error_naming_it(self):
        with pytest.raises(ValueError, match="key 'zz' is not in the KJT"):
            InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["a", "zz"])

    def test_empty_group_among_groups_rejected(self):
        with pytest.raises(ValueError, match="need at least one key"):
            InverseKeyedJaggedTensor.from_groups(figure5_kjt(), [["a"], []])

    def test_no_groups_is_no_ikjts(self):
        assert InverseKeyedJaggedTensor.from_groups(figure5_kjt(), []) == []

    def test_unhashable_and_eq(self):
        a = InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["a"])
        b = InverseKeyedJaggedTensor.from_kjt(figure5_kjt(), ["a"])
        assert a == b
        assert a.__eq__(1) is NotImplemented
        with pytest.raises(TypeError):
            hash(a)
        assert "dedupe_factor" in repr(a)


class TestDedupRows:
    def test_single(self):
        jt = JaggedTensor.from_lists([[1, 2], [3], [1, 2], [3], [1, 2]])
        uniq, inv = dedup_rows(jt)
        np.testing.assert_array_equal(uniq, [0, 1])
        np.testing.assert_array_equal(inv, [0, 1, 0, 1, 0])

    def test_empty_rows_are_equal(self):
        jt = JaggedTensor.from_lists([[], [], [1]])
        uniq, inv = dedup_rows(jt)
        np.testing.assert_array_equal(uniq, [0, 2])
        np.testing.assert_array_equal(inv, [0, 0, 1])

    def test_grouped_validations(self):
        with pytest.raises(ValueError):
            dedup_grouped_rows([])
        with pytest.raises(ValueError):
            dedup_grouped_rows(
                [
                    JaggedTensor.from_lists([[1]]),
                    JaggedTensor.from_lists([[1], [2]]),
                ]
            )

    def test_reconstruction_identity(self):
        jt = JaggedTensor.from_lists([[5], [5], [6], [5]])
        uniq, inv = dedup_rows(jt)
        rebuilt = [jt.row(u).tolist() for u in uniq]
        assert [rebuilt[i] for i in inv] == jt.to_lists()


@st.composite
def kjt_batches(draw):
    n_keys = draw(st.integers(min_value=1, max_value=3))
    keys = [f"f{i}" for i in range(n_keys)]
    n = draw(st.integers(min_value=1, max_value=16))
    # Small value alphabet to force duplicate collisions.
    rows = [
        {
            k: draw(
                st.lists(st.integers(min_value=0, max_value=3), max_size=4)
            )
            for k in keys
        }
        for _ in range(n)
    ]
    return KeyedJaggedTensor.from_rows(rows, keys=keys), keys


@settings(max_examples=60)
@given(kjt_batches())
def test_property_ikjt_round_trip_lossless(batch):
    """IKJT -> KJT must restore the exact original batch for any grouping."""
    kjt, keys = batch
    ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, keys)
    assert ikjt.to_kjt() == kjt.select(keys)
    # dedup never expands
    assert ikjt.num_unique <= kjt.batch_size
    assert ikjt.dedupe_factor() >= 1.0


@settings(max_examples=60)
@given(kjt_batches())
def test_property_inverse_lookup_first_occurrence(batch):
    """inverse_lookup indices appear in first-occurrence order: the first
    time a unique id appears equals the number of distinct ids before it."""
    kjt, keys = batch
    ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, keys)
    seen = set()
    for idx in ikjt.inverse_lookup:
        if idx not in seen:
            assert idx == len(seen)
            seen.add(int(idx))
