"""Property wall for the dedup hot path (Hypothesis).

The streaming pipeline ships deduplicated IKJT batches and expands them
only after the pooled embedding lookup, so the whole bit-identity story
rests on three algebraic contracts of :mod:`repro.core.dedup` and
:class:`~repro.core.InverseKeyedJaggedTensor`:

* **inverse round-trip** — ``rows[unique][inverse] == rows`` for any
  batch, single-feature or grouped;
* **idempotence** — deduplicating an already-unique batch is the
  identity (``unique == arange``, ``inverse == arange``);
* **collapse→expand identity** — ``from_kjt(kjt, keys).to_kjt()``
  restores the duplicate-bearing KJT bit-for-bit, and the analytic
  ``expanded_nbytes`` equals what the restored KJT actually carries.

``dedup_groups`` — the batch kernel ``dedup_grouped_rows`` and
``from_groups`` / ``from_kjt`` are calls of — is a fixed number of array
passes; the dict-of-``tobytes`` row loop it replaced lives on here as
:func:`_reference_dedup`, the oracle the array version must equal
exactly, one group alone or many groups in one call, and
``TestEqualityRule`` pins what "equal rows" means (bytes, not values).

The edge-case unit tests at the bottom pin the exact error messages and
empty/single-row behaviour of the characterization helpers.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InverseKeyedJaggedTensor,
    JaggedTensor,
    KeyedJaggedTensor,
    dedup_grouped_rows,
    dedup_groups,
    dedup_rows,
    exact_duplicate_fraction,
    jagged_index_select,
    measured_dedupe_factor,
    partial_duplicate_fraction,
)

# A row drawn from a tiny alphabet of short lists, so generated batches
# actually contain duplicates (the interesting regime) while still
# exercising empty rows and empty batches.
_row = st.lists(st.integers(min_value=0, max_value=5), max_size=4)
_batch = st.lists(_row, max_size=12)


def _gather(jt: JaggedTensor, indices: np.ndarray) -> list[list]:
    return [jt.row(int(i)).tolist() for i in indices]


def _same_bits(a: JaggedTensor, b: JaggedTensor) -> bool:
    """Bytewise equality (``==`` would call a ``NaN`` row unequal to
    itself and ``0.0`` equal to ``-0.0``)."""
    return (
        a.values.dtype == b.values.dtype
        and a.values.tobytes() == b.values.tobytes()
        and np.array_equal(a.offsets, b.offsets)
    )


def _reference_dedup(tensors):
    """The per-row hash loop ``dedup_grouped_rows`` used to be: a row's
    key is the tuple of its members' value bytes."""
    n = tensors[0].num_rows
    seen: dict[tuple[bytes, ...], int] = {}
    unique: list[int] = []
    inverse = np.empty(n, dtype=np.int64)
    for i in range(n):
        key = tuple(t.row(i).tobytes() for t in tensors)
        pos = seen.get(key)
        if pos is None:
            pos = len(unique)
            seen[key] = pos
            unique.append(i)
        inverse[i] = pos
    return np.asarray(unique, dtype=np.int64), inverse


#: float values whose bytes and ``==`` disagree, among ordinary ones
_FLOATS = [0.0, -0.0, float("nan"), 1.0, 2.5]


def _draw_member(draw, num_rows, dtypes):
    """One member over ``num_rows`` rows of 0-12 values each, drawn from
    a few distinct rows so duplicates are common."""
    dtype = draw(st.sampled_from(dtypes))
    alphabet = (
        st.integers(-2, 3) if dtype is np.int64 else st.sampled_from(_FLOATS)
    )
    pool = draw(
        st.lists(st.lists(alphabet, max_size=12), min_size=1, max_size=5)
    )
    picks = draw(
        st.lists(
            st.integers(0, len(pool) - 1),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    return JaggedTensor.from_lists([pool[p] for p in picks], dtype=dtype)


@st.composite
def _ragged_groups(draw):
    """1-4 members over 0-80 shared rows; members are int64, float32 or
    float64."""
    num_rows = draw(st.integers(0, 80))
    return [
        _draw_member(draw, num_rows, [np.int64, np.float32, np.float64])
        for _ in range(draw(st.integers(1, 4)))
    ]


@st.composite
def _ragged_batches(draw):
    """A KJT over 0-80 rows and 1-4 groups of 1-4 of its keys, all int64
    or all float32 (a KJT is one buffer of one dtype; members of mixed
    dtypes meet in ``TestEqualityRule``, on the kernel)."""
    num_rows = draw(st.integers(0, 80))
    dtype = draw(st.sampled_from([np.int64, np.float32]))
    tensors, groups = {}, []
    for g in range(draw(st.integers(1, 4))):
        groups.append([f"g{g}m{m}" for m in range(draw(st.integers(1, 4)))])
        for key in groups[-1]:
            tensors[key] = _draw_member(draw, num_rows, [dtype])
    return KeyedJaggedTensor(tensors), groups


class TestAgainstTheRowLoop:
    @settings(max_examples=100, deadline=None)
    @given(group=_ragged_groups())
    def test_same_two_arrays_as_the_reference(self, group):
        unique, inverse = dedup_grouped_rows(group)
        want_unique, want_inverse = _reference_dedup(group)
        assert unique.dtype == inverse.dtype == np.int64
        np.testing.assert_array_equal(unique, want_unique)
        np.testing.assert_array_equal(inverse, want_inverse)


class TestBatchKernelAgainstTheRowLoop:
    """``from_groups`` converts all groups of a batch in one pass; group
    by group it must be what the row loop finds in that group alone."""

    @settings(max_examples=60, deadline=None)
    @given(batch=_ragged_batches())
    def test_every_group_equals_the_reference(self, batch):
        kjt, groups = batch
        tensors = [[kjt[key] for key in group] for group in groups]
        pairs = dedup_groups(tensors)
        ikjts = InverseKeyedJaggedTensor.from_groups(kjt, groups)
        assert [ikjt.keys for ikjt in ikjts] == groups
        assert len(pairs) == len(groups)
        for ikjt, (unique, inverse), group, members in zip(
            ikjts, pairs, groups, tensors
        ):
            want_unique, want_inverse = _reference_dedup(members)
            assert unique.dtype == inverse.dtype == np.int64
            np.testing.assert_array_equal(unique, want_unique)
            np.testing.assert_array_equal(inverse, want_inverse)
            assert ikjt.inverse_lookup.dtype == np.int64
            np.testing.assert_array_equal(ikjt.inverse_lookup, want_inverse)
            restored = ikjt.to_kjt()
            # the one-group call, and from_kjt which is that call
            (alone,) = InverseKeyedJaggedTensor.from_groups(kjt, [group])
            single = InverseKeyedJaggedTensor.from_kjt(kjt, group)
            assert alone.keys == single.keys == group
            for other in (alone, single):
                np.testing.assert_array_equal(
                    other.inverse_lookup, want_inverse
                )
            for key, member in zip(group, members):
                want = jagged_index_select(member, want_unique)
                assert _same_bits(ikjt[key], want)
                assert _same_bits(alone[key], want)
                assert _same_bits(single[key], want)
                assert _same_bits(restored[key], member)

    def test_zero_row_kjt_gives_zero_unique_ikjts(self):
        kjt = KeyedJaggedTensor(
            {
                "a": JaggedTensor.empty(0, dtype=np.float32),
                "b": JaggedTensor.empty(0, dtype=np.float32),
                "c": JaggedTensor.empty(0, dtype=np.float32),
            }
        )
        ikjts = InverseKeyedJaggedTensor.from_groups(kjt, [["a", "b"], ["c"]])
        assert [ikjt.keys for ikjt in ikjts] == [["a", "b"], ["c"]]
        for ikjt in ikjts:
            assert ikjt.num_unique == ikjt.batch_size == 0
        assert ikjts[0]["b"].values.dtype == np.float32

    def test_member_empty_in_every_row_dedups_to_one_row(self):
        """The ``absent`` column ``convert_rows`` substitutes for a feature
        the block lacks."""
        kjt = KeyedJaggedTensor(
            {
                "absent": JaggedTensor.empty(5),
                "hist": JaggedTensor.from_lists([[1], [2], [1], [], [2]]),
            }
        )
        alone, beside = InverseKeyedJaggedTensor.from_groups(
            kjt, [["absent"], ["hist"]]
        )
        assert alone.num_unique == 1
        np.testing.assert_array_equal(alone.inverse_lookup, [0] * 5)
        np.testing.assert_array_equal(beside.inverse_lookup, [0, 1, 0, 2, 1])
        (grouped,) = InverseKeyedJaggedTensor.from_groups(
            kjt, [["absent", "hist"]]
        )
        np.testing.assert_array_equal(grouped.inverse_lookup, [0, 1, 0, 2, 1])
        assert grouped["absent"].num_rows == 3

    def test_padding_is_per_member(self):
        """One 50 000-value row widens its own member's key columns and
        no other member's: the batch peaks below three of that member's
        padded keys, where a shared width would need sixteen."""
        rows, long_row = 64, 50_000
        tensors = {
            "long": JaggedTensor(
                np.arange(long_row),
                np.r_[0, np.full(rows, long_row)],
            )
        }
        for m in range(15):
            tensors[f"short{m}"] = JaggedTensor(
                np.arange(rows * 8) % (m + 2), np.arange(rows + 1) * 8
            )
        kjt = KeyedJaggedTensor(tensors)
        groups = [["long"], *([key] for key in tensors if key != "long")]
        padded_key = rows * (8 + long_row * 8)
        tracemalloc.start()
        try:
            ikjts = InverseKeyedJaggedTensor.from_groups(kjt, groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * padded_key
        assert ikjts[0].num_unique == 2
        assert ikjts[0].to_kjt() == kjt.select(["long"])


_INT64 = np.iinfo(np.int64)


@st.composite
def kjt_and_groups(draw):
    """An int64 KJT over 0-12 rows (``B = 1`` and empty rows among them;
    ``INT64_MIN`` / ``INT64_MAX`` among the values) and a partition of a
    subset of its keys, taken in any order, into consecutive groups."""
    num_rows = draw(st.integers(0, 12))
    value = st.integers(-2, 2) | st.sampled_from([_INT64.min, _INT64.max])
    tensors = {}
    for k in range(draw(st.integers(1, 5))):
        pool = draw(st.lists(st.lists(value, max_size=3), min_size=1, max_size=3))
        picks = draw(
            st.lists(
                st.integers(0, len(pool) - 1),
                min_size=num_rows,
                max_size=num_rows,
            )
        )
        tensors[f"k{k}"] = JaggedTensor.from_lists([pool[p] for p in picks])
    keys = draw(st.permutations(list(tensors)))
    keys = keys[: draw(st.integers(1, len(keys)))]
    cuts = draw(st.sets(st.integers(1, len(keys) - 1))) if len(keys) > 1 else ()
    bounds = [0, *sorted(cuts), len(keys)]
    return KeyedJaggedTensor(tensors), [
        keys[a:b] for a, b in zip(bounds, bounds[1:])
    ]


class TestFlatBufferAgainstPerGroup:
    """``gather_groups`` keys every group straight from the KJT's one
    buffer; group by group it must be what the per-group
    ``dedup_groups`` call (and the row loop) finds, gathered by hand, and
    each group a row range of the one gathered buffer."""

    @settings(max_examples=150, deadline=None)
    @given(batch=kjt_and_groups())
    def test_every_group_equals_its_own_dedup_groups_call(self, batch):
        kjt, groups = batch
        unique, layout = InverseKeyedJaggedTensor.gather_groups(kjt, groups)
        ikjts = InverseKeyedJaggedTensor.split(unique, layout)
        assert InverseKeyedJaggedTensor.from_groups(kjt, groups) == ikjts
        assert [ikjt.keys for ikjt in ikjts] == groups
        start = 0
        for ikjt, group in zip(ikjts, groups, strict=True):
            members = [kjt[key] for key in group]
            ((rows, inverse),) = dedup_groups([members])
            want_rows, want_inverse = _reference_dedup(members)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(inverse, want_inverse)
            by_hand = InverseKeyedJaggedTensor(
                {key: jagged_index_select(kjt[key], rows) for key in group},
                inverse,
            )
            assert ikjt == by_hand
            assert ikjt.inverse_lookup.dtype == np.int64
            for key in group:
                assert _same_bits(ikjt[key], by_hand[key])
            stop = start + ikjt.flat.num_rows
            assert _same_bits(ikjt.flat, unique.slice_rows(start, stop))
            start = stop
        assert start == unique.num_rows
        assert not np.shares_memory(unique.values, kjt.flat.values)


class TestEqualityRule:
    """Rows are equal iff every member's row has the same length and
    the same value *bytes*."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_are_distinct_and_nans_are_equal(self, dtype):
        jt = JaggedTensor.from_lists(
            [[0.0], [-0.0], [np.nan], [0.0], [np.nan], [-0.0]], dtype=dtype
        )
        unique, inverse = dedup_rows(jt)
        np.testing.assert_array_equal(unique, [0, 1, 2])
        np.testing.assert_array_equal(inverse, [0, 1, 2, 0, 2, 1])

    def test_nans_of_different_bits_are_distinct(self):
        bits = np.array([0x7FF8000000000000, 0x7FF8000000000001], np.uint64)
        jt = JaggedTensor(bits.view(np.float64), np.arange(3))
        assert np.isnan(jt.values).all()
        np.testing.assert_array_equal(dedup_rows(jt)[0], [0, 1])

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.float16, np.complex128, "U3"], ids=str
    )
    def test_values_narrower_and_wider_than_a_key_word(self, dtype):
        """Key columns are 8-byte words; a value may be any size."""
        rows = [[1, 0], [1], [1, 0], [], [2, 1, 0], [1]]
        group = [
            JaggedTensor.from_lists(rows, dtype=dtype),
            JaggedTensor.from_lists(rows[::-1]),
        ]
        for tensors in ([group[0]], group):
            unique, inverse = dedup_grouped_rows(tensors)
            want_unique, want_inverse = _reference_dedup(tensors)
            np.testing.assert_array_equal(unique, want_unique)
            np.testing.assert_array_equal(inverse, want_inverse)

    def test_members_of_different_dtypes_in_one_group(self):
        ids = JaggedTensor.from_lists([[7, 8], [7, 8], [7, 8], [9]])
        weights = JaggedTensor.from_lists(
            [[0.5], [0.5], [0.25], [0.5]], dtype=np.float32
        )
        unique, inverse = dedup_grouped_rows([ids, weights])
        np.testing.assert_array_equal(unique, [0, 2, 3])
        np.testing.assert_array_equal(inverse, [0, 0, 1, 2])

    def test_rows_equal_in_one_member_only_do_not_collapse(self):
        same = JaggedTensor.from_lists([[1, 2], [1, 2], [1, 2]])
        differs = JaggedTensor.from_lists([[5], [6], [5]])
        unique, inverse = dedup_grouped_rows([same, differs])
        np.testing.assert_array_equal(unique, [0, 1])
        np.testing.assert_array_equal(inverse, [0, 1, 0])

    def test_padding_is_not_a_value(self):
        """A trailing zero is a value; a shorter row is not that row."""
        jt = JaggedTensor.from_lists([[4, 0], [4], [4, 0], [], [0]])
        unique, inverse = dedup_rows(jt)
        np.testing.assert_array_equal(unique, [0, 1, 3, 4])
        np.testing.assert_array_equal(inverse, [0, 1, 0, 2, 3])

    def test_zero_row_batch(self):
        for group in ([JaggedTensor.empty(0)], [JaggedTensor.empty(0)] * 3):
            unique, inverse = dedup_grouped_rows(group)
            assert unique.shape == inverse.shape == (0,)
            assert unique.dtype == inverse.dtype == np.int64

    def test_all_empty_rows_are_one_row(self):
        unique, inverse = dedup_grouped_rows(
            [JaggedTensor.empty(4), JaggedTensor.empty(4, dtype=np.float32)]
        )
        np.testing.assert_array_equal(unique, [0])
        np.testing.assert_array_equal(inverse, [0, 0, 0, 0])


class TestInverseRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_single_feature_gather_restores_rows(self, rows):
        jt = JaggedTensor.from_lists(rows)
        unique, inverse = dedup_rows(jt)
        assert inverse.shape == (jt.num_rows,)
        assert _gather(jt, unique[inverse]) == jt.to_lists()

    @settings(max_examples=60, deadline=None)
    @given(rows_a=_batch, seed=st.integers(min_value=0, max_value=2**16))
    def test_grouped_gather_restores_every_member(self, rows_a, seed):
        rng = np.random.default_rng(seed)
        rows_b = [
            [int(v) for v in rng.integers(0, 3, size=len(r) % 3)]
            for r in rows_a
        ]
        group = [
            JaggedTensor.from_lists(rows_a),
            JaggedTensor.from_lists(rows_b),
        ]
        unique, inverse = dedup_grouped_rows(group)
        for jt in group:
            assert _gather(jt, unique[inverse]) == jt.to_lists()

    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_unique_indices_are_first_occurrences(self, rows):
        jt = JaggedTensor.from_lists(rows)
        unique, inverse = dedup_rows(jt)
        # first-appearance order: strictly increasing, and each unique
        # row's first reference in inverse is at the row itself.
        assert np.all(np.diff(unique) > 0) if unique.size > 1 else True
        for pos, row_idx in enumerate(unique):
            assert inverse[row_idx] == pos


class TestIdempotence:
    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_dedup_of_deduped_batch_is_identity(self, rows):
        jt = JaggedTensor.from_lists(rows)
        unique, _ = dedup_rows(jt)
        deduped = JaggedTensor.from_lists(_gather(jt, unique))
        unique2, inverse2 = dedup_rows(deduped)
        np.testing.assert_array_equal(unique2, np.arange(deduped.num_rows))
        np.testing.assert_array_equal(inverse2, np.arange(deduped.num_rows))
        assert measured_dedupe_factor(deduped) == 1.0

    def test_all_unique_batch_identity(self):
        jt = JaggedTensor.from_lists([[1], [2], [3]])
        unique, inverse = dedup_rows(jt)
        np.testing.assert_array_equal(unique, [0, 1, 2])
        np.testing.assert_array_equal(inverse, [0, 1, 2])
        assert measured_dedupe_factor(jt) == 1.0


class TestCollapseExpand:
    @settings(max_examples=60, deadline=None)
    @given(rows=_batch, seed=st.integers(min_value=0, max_value=2**16))
    def test_from_kjt_to_kjt_is_identity(self, rows, seed):
        rng = np.random.default_rng(seed)
        kjt = KeyedJaggedTensor(
            {
                "hist": JaggedTensor.from_lists(rows),
                "item": JaggedTensor.from_lists(
                    [
                        [int(v) for v in rng.integers(0, 4, size=2)]
                        for _ in rows
                    ]
                ),
            }
        )
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        restored = ikjt.to_kjt()
        assert restored == kjt

    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_expanded_nbytes_matches_restored_kjt(self, rows):
        kjt = KeyedJaggedTensor({"hist": JaggedTensor.from_lists(rows)})
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        restored = ikjt.to_kjt()
        actual = sum(jt.nbytes for _, jt in restored.items())
        assert ikjt.expanded_nbytes == actual
        # Dedup never grows the wire payload.
        assert ikjt.wire_nbytes <= ikjt.expanded_nbytes

    @settings(max_examples=60, deadline=None)
    @given(rows=_batch)
    def test_dedupe_factor_matches_measured(self, rows):
        jt = JaggedTensor.from_lists(rows)
        kjt = KeyedJaggedTensor({"hist": jt})
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        assert ikjt.dedupe_factor() == pytest.approx(
            measured_dedupe_factor(jt)
        )


class TestEdgeCases:
    """Exact-message and empty/single-row contracts of the helpers."""

    def test_grouped_rejects_empty_group(self):
        with pytest.raises(
            ValueError, match="need at least one tensor in the group"
        ):
            dedup_grouped_rows([])

    def test_grouped_rejects_mismatched_batch_sizes(self):
        with pytest.raises(
            ValueError, match="group members must share a batch size"
        ):
            dedup_grouped_rows(
                [
                    JaggedTensor.from_lists([[1], [2]]),
                    JaggedTensor.from_lists([[1]]),
                ]
            )

    def test_exact_fraction_rejects_misaligned_inputs(self):
        with pytest.raises(
            ValueError, match="rows and session_ids must align"
        ):
            exact_duplicate_fraction([[1], [2]], [0])

    def test_partial_fraction_rejects_misaligned_inputs(self):
        with pytest.raises(
            ValueError, match="rows and session_ids must align"
        ):
            partial_duplicate_fraction([[1]], [0, 1])

    def test_exact_fraction_empty_inputs(self):
        assert exact_duplicate_fraction([], []) == 0.0

    def test_exact_fraction_accepts_numpy_rows(self):
        # Regression: a numpy ``rows`` array used to trip the ambiguous
        # truth-value check that guarded the empty case.
        rows = np.array([[1, 2], [1, 2], [3, 4]])
        sids = np.array([0, 0, 0])
        assert exact_duplicate_fraction(rows, sids) == pytest.approx(1 / 3)

    def test_exact_fraction_empty_numpy_rows(self):
        assert exact_duplicate_fraction(
            np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        ) == 0.0

    def test_exact_fraction_single_row_is_never_duplicate(self):
        assert exact_duplicate_fraction([[1, 2, 3]], [7]) == 0.0

    def test_partial_fraction_empty_inputs(self):
        assert partial_duplicate_fraction([], []) == 0.0

    def test_partial_fraction_all_empty_rows(self):
        assert partial_duplicate_fraction([[], []], [0, 1]) == 0.0

    def test_partial_fraction_single_row(self):
        # One row, one session: 2 extra copies of "1" in 4 IDs.
        assert partial_duplicate_fraction(
            [[1, 1, 1, 2]], [3]
        ) == pytest.approx(0.5)

    def test_measured_factor_empty_tensor(self):
        assert measured_dedupe_factor(JaggedTensor.empty(0)) == 1.0

    def test_measured_factor_all_empty_rows(self):
        assert measured_dedupe_factor(JaggedTensor.empty(5)) == 1.0

    def test_measured_factor_single_row(self):
        assert measured_dedupe_factor(
            JaggedTensor.from_lists([[1, 2, 3]])
        ) == 1.0

    def test_measured_factor_duplicated_rows(self):
        jt = JaggedTensor.from_lists([[1, 2], [1, 2], [1, 2], [9]])
        # 7 original values, 3 after dedup.
        assert measured_dedupe_factor(jt) == pytest.approx(7 / 3)
