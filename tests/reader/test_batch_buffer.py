"""A batch's IKJT groups are one buffer (Hypothesis).

:attr:`~repro.reader.Batch.unique` holds every IKJT group's unique rows,
group after group; each transform runs once over it, the group views
are cut from its output when read, and the batch's wire and expanded
bytes are counted once over it.  Each must equal, bit for bit, the per-group
path it replaced: a transform applied to every group's own ``flat``
tensor, and the byte counts summed IKJT by IKJT.  Batches are built both
ways a batch gets its buffer — gathered by ``gather_groups`` and
concatenated from IKJTs built apart.
"""

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InverseKeyedJaggedTensor, JaggedTensor, KeyedJaggedTensor
from repro.reader import (
    TRANSFORM_REGISTRY,
    Batch,
    ClampValues,
    HashModulo,
    TruncateLength,
    apply_transforms,
)
from repro.reader.preprocess import ProcessStats
from tests.core.test_dedup_properties import _same_bits, kjt_and_groups

#: every registered transform at its defaults, then settings that bite
#: on small values; the truncations change lengths
_VARIANTS = {
    **TRANSFORM_REGISTRY,
    "hash_modulo-7": partial(HashModulo, modulus=7),
    "clamp_values-1": partial(ClampValues, max_id=1),
    "truncate_length-1": partial(TruncateLength, max_len=1),
    "truncate_length-0": partial(TruncateLength, max_len=0),
}


@st.composite
def batches(draw):
    """A batch of the KJT's groups (its buffer gathered, or concatenated
    from the IKJTs), beside a plain KJT of the keys left over or none."""
    kjt, groups = draw(kjt_and_groups())
    b = kjt.batch_size
    rest = [key for key in kjt.keys if key not in sum(groups, [])]
    plain = kjt.select(rest) if rest else None
    dense = np.arange(2 * b, dtype=np.float32).reshape(b, 2)
    labels = np.ones(b, dtype=np.float32)
    if draw(st.booleans()):
        apart = [InverseKeyedJaggedTensor.from_kjt(kjt, group) for group in groups]
        return Batch(dense, labels, plain, apart)
    unique, layout = InverseKeyedJaggedTensor.gather_groups(kjt, groups)
    return Batch(dense, labels, plain, unique=unique, layout=layout)


def _per_group(batch: Batch, transforms) -> tuple:
    """The per-group path: each transform on the KJT, then on every IKJT
    group's own ``flat`` tensor."""
    stats = ProcessStats()
    kjt, ikjts = batch.kjt, batch.ikjts
    for t in transforms:
        if kjt is not None:
            stats.values_processed += kjt.total_values
            stats.rows_processed += kjt.flat.num_rows
            kjt = KeyedJaggedTensor.from_flat(kjt.keys, t.apply(kjt.flat))
        for ik in ikjts:
            stats.values_processed += ik.total_values
            stats.rows_processed += ik.flat.num_rows
        ikjts = [
            InverseKeyedJaggedTensor.from_flat(
                ik.keys, t.apply(ik.flat), ik.inverse_lookup
            )
            for ik in ikjts
        ]
    return kjt, ikjts, stats


def _per_ikjt_bytes(batch: Batch) -> tuple[int, int]:
    """``(wire, expanded)`` bytes summed IKJT by IKJT."""
    plain = batch.dense.nbytes + batch.labels.nbytes
    plain += batch.kjt.nbytes if batch.kjt is not None else 0
    return (
        plain + sum(ik.nbytes for ik in batch.ikjts),
        plain + sum(ik.expanded_nbytes for ik in batch.ikjts),
    )


@settings(max_examples=150, deadline=None)
@given(
    batch=batches(),
    names=st.lists(st.sampled_from(sorted(_VARIANTS)), min_size=1, max_size=3),
)
def test_one_transform_over_the_buffer_is_the_per_group_one(batch, names):
    with pytest.MonkeyPatch.context() as patch:
        for name, factory in _VARIANTS.items():
            patch.setitem(TRANSFORM_REGISTRY, name, factory)
        out, stats = apply_transforms(batch, tuple(names))
    kjt, ikjts, want_stats = _per_group(
        batch, [_VARIANTS[name]() for name in names]
    )
    assert stats == want_stats
    if kjt is None:
        assert out.kjt is None
    else:
        assert out.kjt.keys == kjt.keys and _same_bits(out.kjt.flat, kjt.flat)
    assert [ik.keys for ik in out.ikjts] == [ik.keys for ik in ikjts]
    start = 0
    for got, want in zip(out.ikjts, ikjts, strict=True):
        np.testing.assert_array_equal(got.inverse_lookup, want.inverse_lookup)
        assert got.num_unique == want.num_unique
        for key in want.keys:
            assert _same_bits(got[key], want[key])
        # each group is its row range of the transformed buffer
        stop = start + got.flat.num_rows
        assert _same_bits(got.flat, out.unique.slice_rows(start, stop))
        start = stop
    assert (out.wire_nbytes, out.expanded_nbytes) == _per_ikjt_bytes(out)


@settings(max_examples=150, deadline=None)
@given(batch=batches())
def test_batch_bytes_are_the_per_ikjt_sums(batch):
    assert (batch.wire_nbytes, batch.expanded_nbytes) == _per_ikjt_bytes(batch)
    if batch.ikjts:
        expanded = batch.to_kjt_only()
        assert expanded.wire_nbytes == expanded.expanded_nbytes
        assert expanded.wire_nbytes == batch.expanded_nbytes


def test_a_concatenated_buffer_holds_the_groups_back_to_back():
    kjt = KeyedJaggedTensor.from_rows(
        [{"a": [1, 2], "b": [3], "c": [4]}, {"a": [1, 2], "b": [5], "c": [4]}]
    )
    apart = [
        InverseKeyedJaggedTensor.from_kjt(kjt, group)
        for group in (["a"], ["b", "c"])
    ]
    batch = Batch(
        np.zeros((2, 0), np.float32), np.zeros(2, np.float32), ikjts=apart
    )
    gathered, _ = InverseKeyedJaggedTensor.gather_groups(kjt, [["a"], ["b", "c"]])
    assert _same_bits(batch.unique, gathered)
    np.testing.assert_array_equal(batch.unique.values, [1, 2, 3, 5, 4, 4])
    np.testing.assert_array_equal(batch.unique.offsets, [0, 2, 3, 4, 5, 6])


def test_groups_of_two_value_dtypes_are_rejected():
    ints = KeyedJaggedTensor({"a": JaggedTensor.from_lists([[1]])})
    floats = KeyedJaggedTensor(
        {"b": JaggedTensor.from_lists([[1.5]], dtype=np.float32)}
    )
    with pytest.raises(ValueError, match="one value dtype"):
        Batch(
            np.zeros((1, 0), np.float32),
            np.zeros(1, np.float32),
            ikjts=[
                InverseKeyedJaggedTensor.from_kjt(ints),
                InverseKeyedJaggedTensor.from_kjt(floats),
            ],
        )


def test_a_transform_that_drops_rows_is_rejected(monkeypatch):
    class DropRow(TruncateLength):
        name = "drop_row"

        def apply(self, jt):
            return jt.slice_rows(0, jt.num_rows - 1)

    monkeypatch.setitem(TRANSFORM_REGISTRY, DropRow.name, DropRow)
    kjt = KeyedJaggedTensor.from_rows([{"a": [1]}, {"a": [2]}])
    batch = Batch(
        np.zeros((2, 0), np.float32),
        np.zeros(2, np.float32),
        ikjts=[InverseKeyedJaggedTensor.from_kjt(kjt)],
    )
    with pytest.raises(ValueError, match="'drop_row' made 1 rows of 2"):
        apply_transforms(batch, ("drop_row",))


def test_views_are_cut_once_and_only_the_buffer_travels():
    kjt = KeyedJaggedTensor.from_rows(
        [{"a": [1, 2], "b": [3]}, {"a": [1, 2], "b": [4]}, {"a": [1, 2], "b": [3]}]
    )
    unique, layout = InverseKeyedJaggedTensor.gather_groups(kjt, [["a"], ["b"]])
    batch = Batch(
        np.zeros((3, 0), np.float32), np.zeros(3, np.float32),
        unique=unique, layout=layout,
    )
    before = pickle.dumps(batch)
    views = batch.ikjts
    assert batch.ikjts is views
    assert all(np.shares_memory(ik.flat.values, unique.values) for ik in views)
    # the pickle carries the buffer and the layout, never the views beside them
    assert len(pickle.dumps(batch)) == len(before)
    back = pickle.loads(pickle.dumps(batch))
    assert back.ikjts == views and back.layout[1][1] == 2
    assert (back.wire_nbytes, back.expanded_nbytes) == _per_ikjt_bytes(batch)
