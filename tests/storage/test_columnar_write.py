"""The columnar write path against the row path it replaced.

``tests/storage/reference_rows.py`` keeps the plane-loop varint codec
and the row-based stripe writer as oracles: the constant-pass codec must
produce and accept the same bytes (and the same error messages), and
``DwrfWriter.write`` of a ``RowBlock`` must produce the file the old
writer made of the rows the block materializes to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetSchema, DenseFeatureSpec, SparseFeatureSpec
from repro.datagen.session import Sample
from repro.storage import (
    Codec,
    DwrfReader,
    DwrfWriter,
    HiveTable,
    IntEncoding,
    RowBlock,
    TectonicFS,
    decode_int64,
    encode_int64,
)
from repro.storage.encoding import encode_int64_chunks

from .reference_rows import (
    varint_decode_planes,
    varint_encode_planes,
    write_rows,
)

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# zigzagged magnitudes right at every 7-bit boundary: 1..10-byte values
_EDGES = [
    sign * ((1 << (7 * k)) // 2 + d)
    for k in range(1, 10)
    for d in (-1, 0, 1)
    for sign in (1, -1)
] + [2**63 - 1, -(2**63), 0]
_values = st.lists(st.one_of(_INT64, st.sampled_from(_EDGES)), max_size=60)
_single_byte = st.lists(st.integers(-64, 63), max_size=60)


class TestVarintAgainstPlaneLoop:
    @given(st.one_of(_values, _single_byte))
    def test_encode_bytes_and_decode_values_match(self, values):
        v = np.array(values, dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        assert data == varint_encode_planes(v)
        got = decode_int64(data, v.size, IntEncoding.VARINT)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, varint_decode_planes(data, v.size))
        np.testing.assert_array_equal(got, v)

    def test_every_byte_width(self):
        v = np.array(_EDGES, dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        assert data == varint_encode_planes(v)
        widths = np.diff(
            np.flatnonzero(np.frombuffer(data, np.uint8) < 0x80), prepend=-1
        )
        assert set(widths.tolist()) == set(range(1, 11))
        np.testing.assert_array_equal(
            decode_int64(data, v.size, IntEncoding.VARINT), v
        )

    @given(_single_byte)
    def test_all_single_byte_stream_is_one_byte_per_value(self, values):
        v = np.array(values, dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        assert len(data) == v.size
        np.testing.assert_array_equal(
            decode_int64(data, v.size, IntEncoding.VARINT), v
        )

    @given(
        st.binary(max_size=40),
        st.integers(min_value=0, max_value=45),
    )
    def test_hostile_streams_fail_with_the_same_message(self, data, count):
        """Truncated, over-long and count-mismatched streams raise what
        the plane loop raised, word for word; anything it decoded, the
        new decoder decodes to the same values."""
        try:
            want = varint_decode_planes(data, count)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                decode_int64(data, count, IntEncoding.VARINT)
            assert str(got.value) == str(err)
        else:
            np.testing.assert_array_equal(
                decode_int64(data, count, IntEncoding.VARINT), want
            )

    @pytest.mark.parametrize(
        "data, count, message",
        [
            (b"\x01\x02\x03", 2, "varint stream holds 3 values, expected 2"),
            (b"\x01\x02", 3, "varint stream holds 2 values, expected 3"),
            (b"", 1, "varint stream holds 0 values, expected 1"),
            (b"\x01\x80", 1, "varint stream is truncated inside its last value"),
            (b"\x80", 0, "varint stream is truncated inside its last value"),
            (
                b"\x80" * 10 + b"\x01",
                1,
                "varint stream holds a value longer than 10 bytes",
            ),
        ],
    )
    def test_exact_messages(self, data, count, message):
        with pytest.raises(ValueError) as got:
            decode_int64(data, count, IntEncoding.VARINT)
        assert str(got.value) == message


@given(
    _values,
    st.lists(st.integers(0, 60), max_size=6),
    st.sampled_from(list(IntEncoding)),
)
def test_chunked_encode_equals_encode_of_each_chunk(values, cuts, encoding):
    v = np.array(values, dtype=np.int64)
    bounds = sorted({0, v.size, *(min(c, v.size) for c in cuts)})
    chunks = encode_int64_chunks(v, bounds, encoding)
    assert chunks == [
        encode_int64(v[a:b], encoding) for a, b in zip(bounds, bounds[1:])
    ]


# -- write(block) == the row writer -------------------------------------------

_SCHEMA = DatasetSchema(
    sparse=(
        SparseFeatureSpec("hist", avg_length=6),
        SparseFeatureSpec("item", avg_length=2),
        SparseFeatureSpec("never_logged", avg_length=2),
    ),
    dense=(DenseFeatureSpec("hour"), DenseFeatureSpec("never_logged_d")),
)


@st.composite
def _blocks(draw):
    """A block over a sub-schema: ``never_logged*`` columns are always
    absent, ``item`` sometimes is, lists may be empty, ids span the whole
    int64 range."""
    n = draw(st.integers(0, 23))
    sparse_keys = ["hist"] + (["item"] if draw(st.booleans()) else [])
    dense_keys = ["hour"] if draw(st.booleans()) else []
    ids = st.lists(st.one_of(_INT64, st.integers(0, 50)), max_size=5)
    rows = [
        Sample(
            sample_id=draw(st.integers(0, 2**40)),
            session_id=draw(st.integers(0, 5)),
            timestamp=draw(st.floats(0, 1e9, allow_nan=False)),
            label=draw(st.integers(0, 1)),
            sparse={k: np.array(draw(ids), dtype=np.int64) for k in sparse_keys},
            dense={k: draw(st.floats(-1e6, 1e6)) for k in dense_keys},
        )
        for _ in range(n)
    ]
    return RowBlock.from_samples(rows, sparse_keys, dense_keys)


@settings(deadline=None, max_examples=60)
@given(
    _blocks(),
    st.sampled_from(list(IntEncoding)),
    st.sampled_from(list(Codec)),
    st.integers(1, 9),
)
def test_block_and_rows_write_the_same_file(block, encoding, codec, stripe_rows):
    """4 encodings × 2 codecs × ragged last stripe × absent features ×
    empty input: the block's file is the row writer's file of its rows."""
    writer = DwrfWriter(_SCHEMA, stripe_rows, codec, encoding)
    blob, stats = writer.write(block)
    want_blob, want_stats = write_rows(
        _SCHEMA, list(block), stripe_rows, codec, encoding
    )
    assert blob == want_blob
    assert [
        (s.raw_bytes, s.compressed_bytes, s.num_rows) for s in stats.stripes
    ] == want_stats
    # and it reads back as the block, absent features empty / 0.0, every
    # schema column present even when there are no rows
    reader = DwrfReader(blob, _SCHEMA)
    assert reader.num_rows == len(block)
    back = reader.read_all()
    np.testing.assert_array_equal(back.sample_id, block.sample_id)
    np.testing.assert_array_equal(back.timestamp, block.timestamp)
    for name in ("hist", "item", "never_logged"):
        offsets, values = block.sparse.get(
            name, (np.zeros(len(block) + 1, np.int64), np.empty(0, np.int64))
        )
        np.testing.assert_array_equal(back.sparse[name][0], offsets)
        np.testing.assert_array_equal(back.sparse[name][1], values)
    np.testing.assert_array_equal(
        back.dense["never_logged_d"], np.zeros(len(block))
    )


def test_a_slice_of_a_block_writes_like_its_rows():
    """Stripes are cut from a block whose offsets do not start at the
    underlying arrays' origin (how ``land_partition`` cuts files): the
    file equals that of a fresh block of the same rows."""
    rng = np.random.default_rng(3)
    rows = [
        Sample(
            sample_id=i,
            session_id=i % 4,
            timestamp=float(i),
            label=i % 2,
            sparse={
                "hist": rng.integers(0, 2**40, rng.integers(0, 6)),
                "item": rng.integers(0, 90, rng.integers(0, 3)),
            },
            dense={"hour": float(rng.random())},
        )
        for i in range(50)
    ]
    block = RowBlock.from_samples(rows, ["hist", "item"], ["hour"])
    writer = DwrfWriter(_SCHEMA, stripe_rows=7)
    fresh = RowBlock.from_samples(rows[11:43], ["hist", "item"], ["hour"])
    assert writer.write(block[11:43])[0] == writer.write(fresh)[0]


def test_compaction_builds_no_sample_and_equals_a_direct_landing(count_constructions):
    """``compact_partition`` re-lands the concatenated stripe blocks:
    the compacted files are exactly what landing the rows at the full
    file size would have written, and no row object is built."""
    rng = np.random.default_rng(5)
    rows = [
        Sample(
            sample_id=i,
            session_id=i // 3,
            timestamp=float(i),
            label=i % 2,
            sparse={"hist": rng.integers(0, 1000, 4), "item": rng.integers(0, 9, 1)},
            dense={"hour": 0.5},
        )
        for i in range(90)
    ]

    def table():
        return HiveTable("t", _SCHEMA, TectonicFS(), rows_per_file=64, stripe_rows=8)

    block = RowBlock.from_samples(rows)
    direct = table()
    direct.land_partition("p", block)
    micro = table()
    micro.land_partition("p", block, rows_per_file=10)
    built = count_constructions(Sample)
    assert micro.compact_partition("p") == 9 - 2
    assert built == [0]
    assert [micro.fs.read(f) for f in micro.partitions["p"].files] == [
        direct.fs.read(f) for f in direct.partitions["p"].files
    ]
