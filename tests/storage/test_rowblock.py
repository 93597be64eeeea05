"""Property tests for RowBlock, the columnar run-of-rows value object.

The reference throughout is the row form: a block must slice,
concatenate, materialize and convert exactly as the list of ``Sample``
rows it was built from does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.datagen.session import Sample
from repro.reader import Batch, ConvertStats, DataLoaderConfig, convert_rows
from repro.storage import RowBlock

_SPARSE = ("a", "b", "c")
_DENSE = ("x", "y")

_ids = st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=5)


@st.composite
def _rows(draw, min_size=0):
    """Rows over a random sub-schema: empty lists, features missing from
    some rows, a feature empty (or absent) in every row, dense features
    missing."""
    sparse_keys = draw(st.lists(st.sampled_from(_SPARSE), unique=True))
    dense_keys = draw(st.lists(st.sampled_from(_DENSE), unique=True))
    all_empty = draw(st.sampled_from([None, *sparse_keys]))
    n = draw(st.integers(min_value=min_size, max_value=12))
    rows = []
    for i in range(n):
        sparse = {}
        for key in sparse_keys:
            if draw(st.booleans()):
                continue  # this row lacks the feature
            ids = [] if key == all_empty else draw(_ids)
            sparse[key] = np.array(ids, dtype=np.int64)
        dense = {
            key: draw(st.floats(-1e6, 1e6, allow_nan=False))
            for key in dense_keys
            if draw(st.booleans())
        }
        rows.append(
            Sample(
                sample_id=i,
                session_id=draw(st.integers(0, 3)),
                timestamp=draw(st.floats(0, 1e9, allow_nan=False)),
                label=draw(st.integers(0, 1)),
                sparse=sparse,
                dense=dense,
            )
        )
    return rows, sparse_keys, dense_keys


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _assert_blocks_equal(got: RowBlock, want: RowBlock):
    assert len(got) == len(want)
    for name in ("sample_id", "session_id", "timestamp", "label"):
        _assert_same_array(getattr(got, name), getattr(want, name))
    assert list(got.sparse) == list(want.sparse)
    for key in want.sparse:
        _assert_same_array(got.sparse[key][0], want.sparse[key][0])
        _assert_same_array(got.sparse[key][1], want.sparse[key][1])
    assert list(got.dense) == list(want.dense)
    for key in want.dense:
        _assert_same_array(got.dense[key], want.dense[key])


@given(_rows())
def test_from_samples_round_trips_through_iteration(drawn):
    rows, sparse_keys, dense_keys = drawn
    block = RowBlock.from_samples(rows, sparse_keys, dense_keys)
    assert len(block) == len(rows)
    got = list(block)
    assert len(got) == len(rows)
    for g, r in zip(got, rows):
        assert isinstance(g, Sample)
        assert (g.sample_id, g.session_id, g.timestamp, g.label) == (
            r.sample_id,
            r.session_id,
            r.timestamp,
            r.label,
        )
        # an absent feature comes back as empty / 0.0
        assert list(g.sparse) == sparse_keys
        for key in sparse_keys:
            _assert_same_array(
                g.sparse[key], r.sparse.get(key, np.empty(0, dtype=np.int64))
            )
        assert g.dense == {key: r.dense.get(key, 0.0) for key in dense_keys}


@given(_rows())
def test_default_keys_are_every_key_seen_in_first_seen_order(drawn):
    rows, _, _ = drawn
    block = RowBlock.from_samples(rows)
    assert list(block.sparse) == list(
        dict.fromkeys(k for r in rows for k in r.sparse)
    )
    assert list(block.dense) == list(
        dict.fromkeys(k for r in rows for k in r.dense)
    )


@given(_rows(), st.data())
def test_slice_equals_from_samples_of_the_row_slice(drawn, data):
    rows, sparse_keys, dense_keys = drawn
    block = RowBlock.from_samples(rows, sparse_keys, dense_keys)
    lo = data.draw(st.integers(0, len(rows)))
    hi = data.draw(st.integers(lo, len(rows)))
    _assert_blocks_equal(
        block[lo:hi], RowBlock.from_samples(rows[lo:hi], sparse_keys, dense_keys)
    )
    # a slice of a slice still lines up (offsets are re-based each time)
    _assert_blocks_equal(
        block[lo:][: hi - lo],
        RowBlock.from_samples(rows[lo:hi], sparse_keys, dense_keys),
    )


@given(_rows(), st.data())
def test_concat_of_arbitrary_cuts_is_the_whole(drawn, data):
    rows, sparse_keys, dense_keys = drawn
    block = RowBlock.from_samples(rows, sparse_keys, dense_keys)
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(rows)), max_size=4))
    )
    bounds = [0, *cuts, len(rows)]
    pieces = [block[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    whole = RowBlock.concat(pieces)
    _assert_blocks_equal(whole, block)
    if len(pieces) > 1:  # a real concat owns fresh arrays
        for key in sparse_keys:
            assert not np.shares_memory(whole.sparse[key][1], block.sparse[key][1])


@given(_rows(min_size=1), st.data())
def test_integer_index_materializes_that_row(drawn, data):
    rows, sparse_keys, dense_keys = drawn
    block = RowBlock.from_samples(rows, sparse_keys, dense_keys)
    i = data.draw(st.integers(-len(rows), len(rows) - 1))
    got, want = block[i], rows[i]
    assert got.sample_id == want.sample_id
    for key in sparse_keys:
        np.testing.assert_array_equal(
            got.sparse[key], want.sparse.get(key, ())
        )


@given(_rows(), st.data())
def test_take_equals_from_samples_of_the_picked_rows(drawn, data):
    """``take`` is the row-list comprehension, for any index list:
    permutations, subsets, repeats, reversed, empty."""
    rows, sparse_keys, dense_keys = drawn
    block = RowBlock.from_samples(rows, sparse_keys, dense_keys)
    picks = st.lists(st.integers(0, len(rows) - 1), max_size=20) if rows else st.just([])
    order = data.draw(
        st.one_of(
            picks,
            st.permutations(range(len(rows))),
            st.just(list(range(len(rows)))[::-1]),
            st.just([]),
        )
    )
    taken = block.take(np.array(order, dtype=np.int64))
    _assert_blocks_equal(
        taken,
        RowBlock.from_samples([rows[i] for i in order], sparse_keys, dense_keys),
    )
    for key in sparse_keys:  # fresh arrays, never views of the source
        assert not np.shares_memory(taken.sparse[key][1], block.sparse[key][1])
    # a take of a slice sees the slice's rows, not the parent's
    lo = data.draw(st.integers(0, len(rows)))
    part = list(range(len(rows) - lo))[::-1]
    _assert_blocks_equal(
        block[lo:].take(part),
        RowBlock.from_samples(
            [rows[lo:][i] for i in part], sparse_keys, dense_keys
        ),
    )


def test_take_rejects_rows_outside_the_block():
    block = RowBlock.from_samples(
        [Sample(0, 0, 0.0, 1, {"a": np.array([1, 2])}, {"x": 1.0})]
    )
    with pytest.raises(IndexError):
        block.take([1])
    with pytest.raises(IndexError):
        block.take([-1])


def test_index_and_concat_validation():
    rows = [Sample(0, 0, 0.0, 1, {"a": np.array([1, 2])}, {"x": 1.0})]
    block = RowBlock.from_samples(rows)
    with pytest.raises(IndexError):
        block[1]
    with pytest.raises(IndexError):
        block[-2]
    with pytest.raises(ValueError, match="contiguous"):
        block[::2]
    with pytest.raises(ValueError, match="zero blocks"):
        RowBlock.concat([])
    other = RowBlock.from_samples(rows, sparse_keys=("b",), dense_keys=("x",))
    with pytest.raises(ValueError, match="feature columns"):
        RowBlock.concat([block, other])
    assert RowBlock.concat([block]) is block
    assert len(block[5:2]) == 0


@st.composite
def _config(draw):
    """A config over ``a, b, c`` plus ``ghost`` (in no block): each key
    plain, in one of two dedup groups, or unused."""
    roles = {
        key: draw(st.sampled_from(["plain", "g1", "g2", None]))
        for key in (*_SPARSE, "ghost")
    }

    def having(role):
        return tuple(k for k, r in roles.items() if r == role)

    return DataLoaderConfig(
        batch_size=4,
        sparse_features=having("plain"),
        dedup_sparse_features=tuple(
            g for g in (having("g1"), having("g2")) if g
        ),
        dense_features=tuple(
            draw(st.lists(st.sampled_from((*_DENSE, "nope")), unique=True))
        ),
    )


def _jagged_pairs(batch):
    """Every (values, offsets[, inverse]) array a batch holds, in order."""
    out = [batch.dense, batch.labels]
    if batch.kjt is not None:
        for _, jt in batch.kjt.items():
            out += [jt.values, jt.offsets]
    for ik in batch.ikjts:
        for _, jt in ik.items():
            out += [jt.values, jt.offsets]
        out.append(ik.inverse_lookup)
    return out


def _convert_row_by_row(rows, config):
    """The reference: feature conversion as the row-based reader did it
    (commit 7f972b8), one ``from_rows`` gather per key group."""
    stats = ConvertStats()
    dense = np.array(
        [[r.dense.get(name, 0.0) for name in config.dense_features] for r in rows],
        dtype=np.float32,
    ).reshape(len(rows), len(config.dense_features))
    labels = np.array([r.label for r in rows], dtype=np.float32)
    sparse = [r.sparse for r in rows]
    kjt = None
    if config.sparse_features:
        kjt = KeyedJaggedTensor.from_rows(sparse, keys=config.sparse_features)
        stats.values_copied += kjt.total_values
    ikjts = []
    for group in config.dedup_sparse_features:
        group_kjt = KeyedJaggedTensor.from_rows(sparse, keys=group)
        ikjt = InverseKeyedJaggedTensor.from_kjt(group_kjt, list(group))
        ikjts.append(ikjt)
        stats.values_hashed += group_kjt.total_values
        stats.values_copied += ikjt.total_values
    return Batch(dense=dense, labels=labels, kjt=kjt, ikjts=ikjts), stats


@settings(deadline=None)
@given(_rows(min_size=1), _config())
def test_convert_block_equals_convert_rows(drawn, cfg):
    """Plain and dedup-group configs: ``convert_rows`` of a
    block converts to the row-by-row reference's arrays (values,
    offsets, inverse_lookup, dense, labels — dtypes included) and work
    units."""
    rows, sparse_keys, dense_keys = drawn
    block = RowBlock.from_samples(rows, sparse_keys, dense_keys)
    reference, reference_stats = _convert_row_by_row(rows, cfg)
    want = _jagged_pairs(reference)
    batch, stats = convert_rows(block, cfg)
    assert stats == reference_stats
    assert batch.sparse_keys == reference.sparse_keys
    got = _jagged_pairs(batch)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_array(g, w)
    # and the tensors own their memory: nothing aliases the block
    columns = [a for pair in block.sparse.values() for a in pair]
    for g in _jagged_pairs(batch):
        for column in columns:
            assert not np.shares_memory(g, column)


def test_convert_of_a_hand_written_block():
    """One fixed batch, expected tensors written out: a missing feature,
    a feature no row has, a dense feature outside the schema."""
    rows = [
        Sample(0, 0, 1.0, 1, {"a": np.array([5, 6]), "b": np.array([1])}, {"x": 0.5}),
        Sample(1, 0, 2.0, 0, {"a": np.array([5, 6])}, {}),
        Sample(2, 1, 3.0, 1, {"a": np.array([], int), "b": np.array([2, 3])}, {"x": 2.0}),
    ]
    cfg = DataLoaderConfig(
        batch_size=3,
        sparse_features=("b", "ghost"),
        dedup_sparse_features=(("a",),),
        dense_features=("x", "nope"),
    )
    batch, stats = convert_rows(RowBlock.from_samples(rows), cfg)
    assert batch.kjt["b"].to_lists() == [[1], [], [2, 3]]
    assert batch.kjt["ghost"].to_lists() == [[], [], []]
    assert batch.ikjts[0]["a"].to_lists() == [[5, 6], []]
    assert batch.ikjts[0].inverse_lookup.tolist() == [0, 0, 1]
    np.testing.assert_array_equal(
        batch.dense, np.array([[0.5, 0], [0, 0], [2, 0]], dtype=np.float32)
    )
    np.testing.assert_array_equal(
        batch.labels, np.array([1, 0, 1], dtype=np.float32)
    )
    assert (stats.values_copied, stats.values_hashed) == (3 + 2, 4)


def _from_columns(block, keys):
    """The oracle: ``from_columns`` over the block's own (rebased)
    columns, a key the block lacks empty in every row."""
    absent = (np.zeros(len(block) + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    return KeyedJaggedTensor.from_columns(
        {key: block.sparse.get(key, absent) for key in keys}
    )


def _assert_same_jagged(got, want):
    _assert_same_array(got.values, want.values)
    _assert_same_array(got.offsets, want.offsets)


#: a non-empty key subset of every sparse key and one no block has, in
#: any order
_keys = st.permutations((*_SPARSE, "ghost")).flatmap(
    lambda keys: st.integers(1, len(keys)).map(lambda k: tuple(keys[:k]))
)


@settings(deadline=None)
@given(_rows(min_size=1), _rows(min_size=1), _keys, st.data())
def test_a_batch_converts_as_from_columns_of_its_rows(first, second, keys, data):
    """Every batch fill can cut — a window of a run across any stripe
    edge, the same rows cut from a stripe's view, a file-boundary
    concat, the run itself — converts, out of its run's packed columns,
    to exactly ``from_columns`` over its own rows (plain KJT and the
    grouped KJT's unique rows and layout), in arrays no block holds."""
    rows, sparse_keys, dense_keys = first
    run = RowBlock.from_samples(rows, sparse_keys, dense_keys)
    other = RowBlock.from_samples(second[0], sparse_keys, dense_keys)
    n = len(run)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    stripe = data.draw(st.integers(0, lo))
    tail = data.draw(st.integers(0, n - 1))
    head = data.draw(st.integers(1, len(other)))
    split = data.draw(st.integers(1, len(keys)))
    groups = (keys[:split], keys[split:]) if split < len(keys) else (keys,)
    batches = [
        run[lo:hi],
        run[stripe:][lo - stripe : hi - stripe],
        RowBlock.concat([run[tail:], other[:head]]),
        run,
    ]
    columns = [a for b in (run, other) for pair in b.sparse.values() for a in pair]
    for batch in batches:
        plain = DataLoaderConfig(batch_size=len(batch), sparse_features=keys)
        dedup = DataLoaderConfig(batch_size=len(batch), dedup_sparse_features=groups)
        got_plain, _ = convert_rows(batch, plain)
        got_dedup, _ = convert_rows(batch, dedup)
        want = _from_columns(batch, keys)
        assert got_plain.kjt.keys == want.keys
        _assert_same_jagged(got_plain.kjt.flat, want.flat)
        unique, layout = InverseKeyedJaggedTensor.gather_groups(want, groups)
        _assert_same_jagged(got_dedup.unique, unique)
        assert len(got_dedup.layout) == len(layout)
        for (gk, gu, gi), (wk, wu, wi) in zip(got_dedup.layout, layout):
            assert (list(gk), gu) == (list(wk), wu)
            _assert_same_array(gi, wi)
        held = columns + [a for pair in batch.sparse.values() for a in pair]
        for got in (*_jagged_pairs(got_plain), *_jagged_pairs(got_dedup)):
            for column in held:
                assert not np.shares_memory(got, column)


def test_a_run_is_packed_once_per_key_tuple(monkeypatch):
    """Converting every batch of a run packs (and checks) its columns
    once for the plain keys and once for the dedup keys, not per batch."""
    from repro.storage import rowblock

    calls = []
    real = rowblock.pack
    monkeypatch.setattr(rowblock, "pack", lambda cols: calls.append(1) or real(cols))
    rows = [
        Sample(i, i // 3, float(i), i % 2, {"a": np.arange(i % 4), "b": np.array([i])}, {})
        for i in range(12)
    ]
    run = RowBlock.from_samples(rows)
    cfg = DataLoaderConfig(
        batch_size=4, sparse_features=("b",), dedup_sparse_features=(("a",),)
    )
    for lo in range(0, 12, 4):
        convert_rows(run[lo : lo + 4], cfg)
    assert len(calls) == 2
    convert_rows(RowBlock.from_samples(rows)[:4], cfg)  # another run
    assert len(calls) == 4


def _hostile(sparse):
    n = len(next(iter(sparse.values()))[0]) - 1
    return RowBlock(
        sample_id=np.arange(n),
        session_id=np.zeros(n, dtype=np.int64),
        timestamp=np.zeros(n),
        label=np.zeros(n, dtype=np.int64),
        sparse=sparse,
        dense={},
    )


_OFFSETS = np.array([0, 2, 2, 3, 5], dtype=np.int64)


@pytest.mark.parametrize(
    "sparse",
    [
        {  # mixed value dtypes
            "a": (_OFFSETS, np.arange(5, dtype=np.int64)),
            "b": (_OFFSETS, np.arange(5, dtype=np.int32)),
        },
        {"a": (_OFFSETS + 1, np.arange(6, dtype=np.int64))},  # not from 0
        {"a": (_OFFSETS, np.arange(7, dtype=np.int64))},  # not to len(values)
    ],
    ids=["mixed-dtypes", "offsets-not-from-0", "offsets-short-of-len"],
)
def test_a_hostile_column_raises_the_pack_error(sparse):
    """A run whose columns do not pack raises ``pack``'s ``ValueError``
    through ``convert_rows`` on its first batch (and on every later
    one: a failed pack is not kept), as ``from_columns`` does on every
    call."""
    run = _hostile(sparse)
    cfg = DataLoaderConfig(batch_size=2, sparse_features=tuple(sparse))
    messages = set()
    for call in [lambda: KeyedJaggedTensor.from_columns(run.sparse)] * 3 + [
        lambda lo=lo: convert_rows(run[lo : lo + 2], cfg) for lo in (0, 2, 0)
    ]:
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1
