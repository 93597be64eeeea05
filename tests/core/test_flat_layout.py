"""Properties of the one-buffer KJT / IKJT layout (Hypothesis).

A :class:`~repro.core.KeyedJaggedTensor` is one jagged tensor over
``K·B`` rows (key ``k`` owns rows ``k·B … (k+1)·B``) and an
:class:`~repro.core.InverseKeyedJaggedTensor` the same over ``K·U``
unique rows.  Nothing a caller reads per key may depend on that:

* each key's view equals the tensor the KJT was built from;
* every registered transform, run once on the whole buffer, equals the
  per-key run bit for bit (they are element- or row-local);
* ``nbytes`` / ``wire_nbytes`` / ``expanded_nbytes`` keep their per-key
  formulas;
* both pickle round-trip;
* one buffer has one dtype, so mixed value dtypes raise.

Batches cover empty rows, keys with no values at all, ``B = 1`` and
``K = 1``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InverseKeyedJaggedTensor, JaggedTensor, KeyedJaggedTensor
from repro.reader import TRANSFORM_REGISTRY
from repro.reader.preprocess import ClampValues, HashModulo, TruncateLength

#: every registered transform at its defaults, plus settings that bite
#: on small values (a tiny modulus, clamp bound and length cap)
TRANSFORMS = [
    pytest.param(cls(), id=name) for name, cls in TRANSFORM_REGISTRY.items()
] + [
    pytest.param(HashModulo(modulus=7), id="hash_modulo-7"),
    pytest.param(ClampValues(max_id=2), id="clamp_values-2"),
    pytest.param(TruncateLength(max_len=1), id="truncate_length-1"),
    pytest.param(TruncateLength(max_len=0), id="truncate_length-0"),
]

_OFFSET = 8


@st.composite
def keyed_tensors(draw):
    """``key -> JaggedTensor``: 1-4 keys over 1-6 shared rows of 0-4
    values from a small alphabet (so rows repeat); a key may be empty
    in every row."""
    num_keys = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 6))
    value = st.integers(-3, 3) | st.sampled_from([2**40, -(2**40)])
    tensors = {}
    for k in range(num_keys):
        if draw(st.booleans()) and draw(st.booleans()):
            tensors[f"k{k}"] = JaggedTensor.empty(num_rows)
            continue
        pool = draw(st.lists(st.lists(value, max_size=4), min_size=1, max_size=3))
        picks = draw(
            st.lists(
                st.integers(0, len(pool) - 1),
                min_size=num_rows,
                max_size=num_rows,
            )
        )
        tensors[f"k{k}"] = JaggedTensor.from_lists([pool[p] for p in picks])
    return tensors


@st.composite
def grouped(draw):
    """A KJT and a split of its keys into consecutive dedup groups."""
    tensors = draw(keyed_tensors())
    keys = list(tensors)
    cuts = sorted(draw(st.sets(st.integers(1, len(keys) - 1))) if len(keys) > 1 else [])
    bounds = [0, *cuts, len(keys)]
    groups = [keys[a:b] for a, b in zip(bounds, bounds[1:])]
    return KeyedJaggedTensor(tensors), groups


def _same_bits(a: JaggedTensor, b: JaggedTensor) -> bool:
    return (
        a.values.dtype == b.values.dtype
        and a.values.tobytes() == b.values.tobytes()
        and a.offsets.dtype == b.offsets.dtype
        and np.array_equal(a.offsets, b.offsets)
    )


@settings(max_examples=80, deadline=None)
@given(tensors=keyed_tensors())
def test_each_view_equals_its_source_tensor(tensors):
    built = KeyedJaggedTensor(tensors)
    columns = KeyedJaggedTensor.from_columns(
        {key: (jt.offsets, jt.values) for key, jt in tensors.items()}
    )
    for kjt in (built, columns):
        assert kjt.keys == list(tensors)
        assert kjt.batch_size == next(iter(tensors.values())).num_rows
        assert kjt.flat.num_rows == len(tensors) * kjt.batch_size
        for key, jt in tensors.items():
            assert _same_bits(kjt[key], jt)
            # the view reads the KJT's one buffer, never the source's
            assert np.shares_memory(kjt[key].values, kjt.flat.values) or (
                jt.total_values == 0
            )
            assert not np.shares_memory(kjt[key].values, jt.values)
        assert [key for key, _ in kjt.items()] == kjt.keys
        assert all(_same_bits(v, tensors[key]) for key, v in kjt.items())
    assert built == columns


@settings(max_examples=80, deadline=None)
@given(batch=grouped())
def test_ikjt_views_are_the_unique_rows_of_each_key(batch):
    kjt, groups = batch
    for ikjt, group in zip(
        InverseKeyedJaggedTensor.from_groups(kjt, groups), groups
    ):
        assert ikjt.flat.num_rows == len(group) * ikjt.num_unique
        rebuilt = InverseKeyedJaggedTensor(
            {key: ikjt[key] for key in group}, ikjt.inverse_lookup
        )
        assert rebuilt == ikjt
        for key in group:
            view = ikjt[key]
            assert view.num_rows == ikjt.num_unique
            assert view.to_lists() == [
                kjt[key].to_lists()[i]
                for i in np.unique(ikjt.inverse_lookup, return_index=True)[1]
            ]
            expanded = view.to_lists()
            assert [expanded[i] for i in ikjt.inverse_lookup] == kjt[
                key
            ].to_lists()


@pytest.mark.parametrize("transform", TRANSFORMS)
@settings(max_examples=40, deadline=None)
@given(batch=grouped())
def test_one_transform_over_the_buffer_is_the_per_key_one(transform, batch):
    kjt, groups = batch
    out = KeyedJaggedTensor.from_flat(kjt.keys, transform.apply(kjt.flat))
    for key in kjt.keys:
        assert _same_bits(out[key], transform.apply(kjt[key]))
    for ikjt in InverseKeyedJaggedTensor.from_groups(kjt, groups):
        done = InverseKeyedJaggedTensor.from_flat(
            ikjt.keys, transform.apply(ikjt.flat), ikjt.inverse_lookup
        )
        for key in ikjt.keys:
            assert _same_bits(done[key], transform.apply(ikjt[key]))


@settings(max_examples=80, deadline=None)
@given(batch=grouped())
def test_byte_accounting_keeps_the_per_key_formulas(batch):
    kjt, groups = batch
    b = kjt.batch_size
    assert kjt.nbytes == sum(kjt[key].nbytes for key in kjt.keys)
    assert kjt.nbytes == kjt.flat.values.nbytes + len(kjt.keys) * (b + 1) * _OFFSET
    for ikjt in InverseKeyedJaggedTensor.from_groups(kjt, groups):
        wire = sum(ikjt[key].nbytes for key in ikjt.keys)
        assert ikjt.wire_nbytes == wire
        assert ikjt.nbytes == wire + ikjt.inverse_lookup.nbytes
        expanded = sum(
            int(ikjt[key].lengths[ikjt.inverse_lookup].sum())
            * ikjt[key].values.itemsize
            + (b + 1) * _OFFSET
            for key in ikjt.keys
        )
        assert ikjt.expanded_nbytes == expanded == ikjt.to_kjt().nbytes
        for key in ikjt.keys:
            jt = ikjt[key]
            want = (
                int(jt.lengths[ikjt.inverse_lookup].sum()) / jt.total_values
                if jt.total_values
                else 1.0
            )
            assert ikjt.dedupe_factor(key) == want


@settings(max_examples=60, deadline=None)
@given(batch=grouped())
def test_pickle_round_trips(batch):
    kjt, groups = batch
    back = pickle.loads(pickle.dumps(kjt))
    assert back == kjt and back.keys == kjt.keys
    assert back.batch_size == kjt.batch_size
    for ikjt in InverseKeyedJaggedTensor.from_groups(kjt, groups):
        back = pickle.loads(pickle.dumps(ikjt))
        assert back == ikjt and back.keys == ikjt.keys
        assert back.num_unique == ikjt.num_unique
        assert back.to_kjt() == ikjt.to_kjt() == kjt.select(ikjt.keys)


@settings(max_examples=60, deadline=None)
@given(
    tensors=keyed_tensors().filter(lambda t: len(t) > 1),
    data=st.data(),
)
def test_mixed_value_dtypes_raise(tensors, data):
    key = data.draw(st.sampled_from(list(tensors)))
    dtype = data.draw(st.sampled_from([np.float32, np.float64, np.int32]))
    jt = tensors[key]
    tensors[key] = JaggedTensor(jt.values.astype(dtype), jt.offsets)
    with pytest.raises(ValueError, match="one value dtype"):
        KeyedJaggedTensor(tensors)
    with pytest.raises(ValueError, match="one value dtype"):
        KeyedJaggedTensor.from_columns(
            {k: (t.offsets, t.values) for k, t in tensors.items()}
        )
    with pytest.raises(ValueError, match="one value dtype"):
        InverseKeyedJaggedTensor(tensors, np.zeros(0, dtype=np.int64))


class TestFlatLayout:
    """The layout itself, on the paper's Figure 5 batch."""

    def _kjt(self):
        return KeyedJaggedTensor.from_rows(
            [
                {"a": [1, 2], "b": [3, 4, 5], "c": [7, 8], "d": [9]},
                {"b": [4, 5, 6], "c": [7, 8], "d": [9]},
                {"a": [1, 2], "b": [3, 4, 5], "c": [10], "d": [11]},
            ]
        )

    def test_kjt_is_one_buffer_key_after_key(self):
        flat = self._kjt().flat
        np.testing.assert_array_equal(
            flat.values,
            [1, 2, 1, 2, 3, 4, 5, 4, 5, 6, 3, 4, 5, 7, 8, 7, 8, 10, 9, 9, 11],
        )
        np.testing.assert_array_equal(
            flat.offsets, [0, 2, 2, 4, 7, 10, 13, 15, 17, 18, 19, 20, 21]
        )

    def test_ikjt_is_one_buffer_over_unique_rows(self):
        (ikjt,) = InverseKeyedJaggedTensor.from_groups(self._kjt(), [["c", "d"]])
        np.testing.assert_array_equal(ikjt.flat.values, [7, 8, 10, 9, 11])
        np.testing.assert_array_equal(ikjt.flat.offsets, [0, 2, 3, 4, 5])
        np.testing.assert_array_equal(ikjt.inverse_lookup, [0, 0, 1])

    def test_groups_are_slices_of_one_gathered_buffer(self):
        kjt = self._kjt()
        first, second = InverseKeyedJaggedTensor.from_groups(
            kjt, [["a", "b"], ["c", "d"]]
        )
        assert first.flat.values.base is second.flat.values.base is not None
        assert not np.shares_memory(first.flat.values, kjt.flat.values)

    def test_flat_rows_must_split_into_the_keys(self):
        with pytest.raises(ValueError, match="do not split into 2 keys"):
            KeyedJaggedTensor.from_flat(
                ["a", "b"], JaggedTensor.from_lists([[1], [2], [3]])
            )
        with pytest.raises(ValueError, match="key 'a' is named more than once"):
            KeyedJaggedTensor.from_flat(
                ["a", "a"], JaggedTensor.from_lists([[1], [2]])
            )

    def test_a_column_that_is_not_jagged_is_rejected(self):
        with pytest.raises(ValueError, match="from 0 to len"):
            KeyedJaggedTensor.from_columns(
                {
                    "a": (np.array([0, 1]), np.array([1, 2])),
                    "b": (np.array([0, 1]), np.array([3])),
                }
            )
        with pytest.raises(ValueError, match="integer"):
            KeyedJaggedTensor.from_columns(
                {"a": (np.array([0.0, 1.5]), np.array([1, 2]))}
            )
