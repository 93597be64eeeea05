"""Tests for the DWRF-like columnar format and compression accounting."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.etl.cluster import cluster_order
from repro.storage import (
    Codec,
    DwrfReader,
    DwrfWriter,
    IntEncoding,
    RowBlock,
    compress,
    decode_int64,
    encode_int64,
)
from repro.storage.dwrf import (
    _FILE_HEADER,
    _STREAM_HEADER,
    _STREAM_META,
    _STRIPE_HEADER,
)


def _schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec("hist", avg_length=20, change_prob=0.05),
            SparseFeatureSpec("short", avg_length=2, change_prob=0.5),
        ),
        dense=(DenseFeatureSpec("hour"),),
    )


def _trace(n=40, seed=0) -> RowBlock:
    return RowBlock.from_samples(
        generate_partition(_schema(), n, TraceConfig(seed=seed))
    )


def _clustered(block: RowBlock) -> RowBlock:
    return block.take(cluster_order(block.session_id, block.timestamp))


class TestRoundTrip:
    @pytest.mark.parametrize("codec", [Codec.NONE, Codec.ZLIB])
    @pytest.mark.parametrize(
        "encoding", [IntEncoding.PLAIN, IntEncoding.VARINT]
    )
    def test_full_round_trip(self, codec, encoding):
        samples = _trace(20, seed=1)
        writer = DwrfWriter(
            _schema(), stripe_rows=64, codec=codec, int_encoding=encoding
        )
        blob, stats = writer.write(samples)
        reader = DwrfReader(blob, _schema())
        got = reader.read_all()
        assert len(got) == len(samples)
        for a, b in zip(got, samples):
            assert a.sample_id == b.sample_id
            assert a.session_id == b.session_id
            assert a.label == b.label
            assert a.timestamp == pytest.approx(b.timestamp)
            np.testing.assert_array_equal(a.sparse["hist"], b.sparse["hist"])
            np.testing.assert_array_equal(a.sparse["short"], b.sparse["short"])
            assert a.dense["hour"] == pytest.approx(b.dense["hour"])

    def test_multiple_stripes(self):
        samples = _trace(30, seed=2)
        writer = DwrfWriter(_schema(), stripe_rows=7)
        blob, stats = writer.write(samples)
        reader = DwrfReader(blob, _schema())
        assert reader.num_stripes == -(-len(samples) // 7)
        assert stats.num_rows == len(samples)

    def test_single_stripe_read(self):
        samples = _trace(20, seed=3)
        writer = DwrfWriter(_schema(), stripe_rows=8)
        blob, _ = writer.write(samples)
        reader = DwrfReader(blob, _schema())
        first = reader.read_stripe(0)
        assert isinstance(first, RowBlock) and len(first) == 8
        assert [s.sample_id for s in first] == [
            s.sample_id for s in samples[:8]
        ]

    def test_empty_file(self):
        """A file of no stripes reads as a zero-row block that still
        carries every schema column (``RowBlock.concat`` of nothing
        cannot)."""
        writer = DwrfWriter(_schema())
        blob, stats = writer.write(_trace(0))
        reader = DwrfReader(blob, _schema())
        assert reader.num_stripes == 0 and stats.num_rows == 0
        got = reader.read_all()
        assert isinstance(got, RowBlock) and len(got) == 0
        assert list(got.sparse) == ["hist", "short"]
        assert list(got.dense) == ["hour"]
        for offsets, values in got.sparse.values():
            assert offsets.tolist() == [0] and values.size == 0


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            DwrfReader(b"JUNKxxxxxxxx", _schema())

    def test_bad_stripe_index(self):
        blob, _ = DwrfWriter(_schema()).write(_trace(5))
        reader = DwrfReader(blob, _schema())
        with pytest.raises(IndexError):
            reader.read_stripe(99)

    def test_bad_stripe_rows(self):
        with pytest.raises(ValueError):
            DwrfWriter(_schema(), stripe_rows=0)

    def test_write_takes_only_a_block(self):
        rows = list(_trace(5))
        with pytest.raises(TypeError, match=r"DwrfWriter\.write.*RowBlock\.from_samples"):
            DwrfWriter(_schema()).write(rows)


def _patch_stream(blob: bytes, stripe: int, name: str, values) -> bytes:
    """``blob`` with one stream of one stripe re-encoded to hold
    ``values`` (int streams as plain-codec varint, float streams as
    float64), stripe ``byte_len`` fixed up — a well-formed file whose
    streams disagree with each other."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        payload = values.astype(np.float64).tobytes()
        return _patch_payload(
            blob, stripe, name, payload, IntEncoding.PLAIN.value, values.size
        )
    ints = values.astype(np.int64)
    return _patch_payload(
        blob,
        stripe,
        name,
        encode_int64(ints, IntEncoding.VARINT),
        IntEncoding.VARINT.value,
        ints.size,
    )


def _patch_payload(
    blob: bytes, stripe: int, name: str, payload: bytes, enc_id: int, count
) -> bytes:
    """``blob`` with one stream of one stripe replaced by ``payload``
    under encoding id ``enc_id`` (any byte, known or not) declaring
    ``count`` values, uncompressed, stripe ``byte_len`` fixed up."""
    _, _, num_stripes = _FILE_HEADER.unpack_from(blob, 0)
    out = [blob[: _FILE_HEADER.size]]
    pos = _FILE_HEADER.size
    for index in range(num_stripes):
        byte_len, num_rows, num_streams = _STRIPE_HEADER.unpack_from(blob, pos)
        if index != stripe:
            out.append(blob[pos : pos + byte_len])
            pos += byte_len
            continue
        end = pos + byte_len
        pos += _STRIPE_HEADER.size
        streams = []
        for _ in range(num_streams):
            start = pos
            (name_len,) = _STREAM_HEADER.unpack_from(blob, pos)
            pos += _STREAM_HEADER.size
            this = blob[pos : pos + name_len].decode()
            pos += name_len
            _, _, blob_len = _STREAM_META.unpack_from(blob, pos)
            pos += _STREAM_META.size + blob_len
            if this != name:
                streams.append(blob[start:pos])
                continue
            framed = compress(payload, Codec.NONE)
            streams.append(
                blob[start : start + _STREAM_HEADER.size + name_len]
                + _STREAM_META.pack(enc_id, count, len(framed))
                + framed
            )
        assert pos == end
        body = b"".join(streams)
        out.append(
            _STRIPE_HEADER.pack(
                _STRIPE_HEADER.size + len(body), num_rows, num_streams
            )
        )
        out.append(body)
    return b"".join(out)


class TestHostileStreams:
    """Streams that each decode cleanly but do not describe the stripe's
    rows must fail loudly, naming the stripe and the stream — never come
    back as wrong rows."""

    def _blob(self):
        samples = _trace(12, seed=8)[:20]
        blob, _ = DwrfWriter(_schema(), stripe_rows=10).write(samples)
        block = DwrfReader(blob, _schema()).read_stripe(1)
        return blob, block

    def test_patching_a_stream_with_its_own_values_changes_nothing(self):
        blob, block = self._blob()
        offsets, values = block.sparse["hist"]
        same = _patch_stream(blob, 1, "s:hist:val", values)
        same = _patch_stream(same, 1, "s:hist:len", np.diff(offsets))
        same = _patch_stream(same, 1, "d:hour", block.dense["hour"])
        got = DwrfReader(same, _schema()).read_stripe(1)
        np.testing.assert_array_equal(got.sparse["hist"][0], offsets)
        np.testing.assert_array_equal(got.sparse["hist"][1], values)
        np.testing.assert_array_equal(got.dense["hour"], block.dense["hour"])

    def test_lengths_stream_with_too_few_rows(self):
        blob, block = self._blob()
        lengths = np.diff(block.sparse["hist"][0])
        bad = _patch_stream(blob, 1, "s:hist:len", lengths[:-1])
        with pytest.raises(ValueError, match=r"stripe 1: stream 's:hist:len'"):
            DwrfReader(bad, _schema()).read_stripe(1)
        # the untouched stripe still reads
        assert len(DwrfReader(bad, _schema()).read_stripe(0)) == 10

    def test_negative_length(self):
        blob, block = self._blob()
        lengths = np.diff(block.sparse["hist"][0])
        lengths[0], lengths[1] = -1, lengths[0] + lengths[1] + 1  # same sum
        bad = _patch_stream(blob, 1, "s:hist:len", lengths)
        with pytest.raises(
            ValueError, match=r"stripe 1: stream 's:hist:len'.*negative"
        ):
            DwrfReader(bad, _schema()).read_stripe(1)

    def test_lengths_do_not_sum_to_the_values(self):
        blob, block = self._blob()
        values = block.sparse["short"][1]
        bad = _patch_stream(blob, 1, "s:short:val", values[:-1])
        with pytest.raises(
            ValueError,
            match=rf"stripe 1: stream 's:short:val' holds {values.size - 1} "
            rf"values, expected {values.size}",
        ):
            DwrfReader(bad, _schema()).read_stripe(1)

    @pytest.mark.parametrize(
        "name, column",
        [
            ("__label", np.zeros(9, dtype=np.int64)),
            ("__sample_id", np.zeros(11, dtype=np.int64)),
            ("__timestamp", np.zeros(9)),
            ("d:hour", np.zeros(11)),
        ],
    )
    def test_fixed_width_column_of_the_wrong_length(self, name, column):
        blob, _ = self._blob()
        bad = _patch_stream(blob, 1, name, column)
        with pytest.raises(
            ValueError, match=rf"stripe 1: stream '{name}' holds {column.size}"
        ):
            DwrfReader(bad, _schema()).read_stripe(1)


def _rle_runs(*runs: tuple[int, int]) -> bytes:
    """An RLE payload of ``(value, length)`` runs, lengths unchecked."""
    return struct.pack("<Q", len(runs)) + encode_int64(
        np.array(runs, dtype=np.int64).ravel(), IntEncoding.VARINT
    )


#: payloads that do not decode, as (payload, encoding id, the codec's
#: message), each standing in for a 10-value ``__label`` chunk
HOSTILE_PAYLOADS = [
    (
        bytes(9) + b"\x80",
        IntEncoding.VARINT.value,
        "varint stream is truncated inside its last value",
    ),
    (
        _rle_runs((0, -2), (1, 12)),
        IntEncoding.RLE.value,
        "RLE stream has a run of -2 values",
    ),
    (
        _rle_runs((0, 1 << 33)),
        IntEncoding.RLE.value,
        "RLE stream has a run of 8589934592 values, expected 10 in all",
    ),
    (bytes(10), 9, "9 is not a valid IntEncoding"),
]


class TestHostilePayloads:
    """A payload its codec cannot decode fails naming the stripe and the
    stream, like every other malformed stream, and a run length read
    from the bytes never sizes an allocation before it is checked."""

    def _blob(self):
        blob, _ = DwrfWriter(_schema(), stripe_rows=10).write(
            _trace(12, seed=8)[:20]
        )
        return blob

    @pytest.mark.parametrize(
        "payload, enc_id, message",
        HOSTILE_PAYLOADS,
        ids=["truncated-varint", "negative-run", "long-run", "unknown-id"],
    )
    def test_decode_errors_name_stripe_and_stream(
        self, payload, enc_id, message
    ):
        bad = _patch_payload(self._blob(), 1, "__label", payload, enc_id, 10)
        with pytest.raises(ValueError) as got:
            DwrfReader(bad, _schema()).read_stripe(1)
        assert str(got.value) == f"stripe 1: stream '__label': {message}"
        assert len(DwrfReader(bad, _schema()).read_stripe(0)) == 10

    @pytest.mark.parametrize("run", [1 << 27, 1 << 33, -2])
    def test_a_hostile_run_length_allocates_nothing(self, run):
        """One run of 2^27 values used to reach ~1 GB of RSS, 2^33 a
        64 GiB request, -2 numpy's negative-dimensions error."""
        payload = _rle_runs((7, run))
        bad = _patch_payload(
            self._blob(), 1, "__label", payload, IntEncoding.RLE.value, 10
        )
        reader = DwrfReader(bad, _schema())
        tracemalloc.start()
        try:
            with pytest.raises(
                ValueError,
                match=rf"stripe 1: stream '__label': RLE stream has a run "
                rf"of {run} values",
            ):
                reader.read_stripe(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "payload, message",
        [
            (struct.pack("<Q", 1 << 62), "declares 4611686018427387904 runs"),
            (b"\x01", "cut short inside its run count"),
        ],
        ids=["more-runs-than-bytes", "no-run-count"],
    )
    def test_rle_run_count_is_bounded_by_the_bytes(self, payload, message):
        with pytest.raises(ValueError, match=message):
            decode_int64(payload, 10, IntEncoding.RLE)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (struct.pack("<QQ", 1 << 62, 4), "declares 4611686018427387904"),
            (struct.pack("<QQ", 1, 1 << 40), "1 values in 1099511627776"),
            (b"\x01" * 8, "cut short inside its header"),
        ],
        ids=["more-values-than-bytes", "dict-past-the-end", "no-header"],
    )
    def test_dict_header_is_bounded_by_the_bytes(self, payload, message):
        with pytest.raises(ValueError, match=message):
            decode_int64(payload, 10, IntEncoding.DICT)


class TestDamagedBytes:
    """A blob cut short, or one whose length fields point outside it,
    is a ``ValueError`` naming the stripe (and stream, where one is
    known) — never ``struct.error`` / ``zlib.error``, never rows."""

    def _blob(self):
        blob, _ = DwrfWriter(_schema(), stripe_rows=10).write(
            _trace(12, seed=8)[:20]
        )
        assert DwrfReader(blob, _schema()).num_stripes == 2
        return blob

    def test_truncation_anywhere_is_a_value_error(self):
        blob = self._blob()
        cuts = [*range(0, len(blob), 97), len(blob) - 1]
        assert len(cuts) > 10
        for cut in cuts:
            with pytest.raises(ValueError):
                DwrfReader(blob[:cut], _schema()).read_all()

    def test_cut_inside_the_second_stripe_names_it(self):
        blob = self._blob()
        with pytest.raises(ValueError, match=r"stripe 1: byte_len"):
            DwrfReader(blob[:-5], _schema())
        with pytest.raises(ValueError, match="cut short inside its file header"):
            DwrfReader(blob[:6], _schema())

    def _first_stream_meta(self, blob, stripe):
        """Byte offset of the ``_STREAM_META`` of a stripe's first stream."""
        pos = _FILE_HEADER.size
        for _ in range(stripe):
            pos += _STRIPE_HEADER.unpack_from(blob, pos)[0]
        pos += _STRIPE_HEADER.size
        (name_len,) = _STREAM_HEADER.unpack_from(blob, pos)
        return pos + _STREAM_HEADER.size + name_len

    def test_stream_longer_than_its_stripe(self):
        blob = bytearray(self._blob())
        meta = self._first_stream_meta(blob, 1)
        enc_id, count, _ = _STREAM_META.unpack_from(blob, meta)
        _STREAM_META.pack_into(blob, meta, enc_id, count, 1 << 20)
        reader = DwrfReader(bytes(blob), _schema())
        with pytest.raises(
            ValueError,
            match=r"stripe 1: stream '__session_id' of 1048576 bytes runs past",
        ):
            reader.read_stripe(1)
        assert len(reader.read_stripe(0)) == 10

    def test_stream_name_longer_than_its_stripe(self):
        blob = bytearray(self._blob())
        pos = self._first_stream_meta(blob, 1) - len("__session_id") - 2
        _STREAM_HEADER.pack_into(blob, pos, 0xFFFF)
        with pytest.raises(ValueError, match=r"stripe 1: a stream name of 65535"):
            DwrfReader(bytes(blob), _schema()).read_stripe(1)

    def test_stream_that_does_not_inflate(self):
        blob = bytearray(self._blob())
        body = self._first_stream_meta(blob, 0) + _STREAM_META.size + 9
        blob[body : body + 4] = b"\xff\xff\xff\xff"
        with pytest.raises(
            ValueError, match=r"stripe 0: stream '__session_id': corrupt frame"
        ):
            DwrfReader(bytes(blob), _schema()).read_stripe(0)


class TestWriterBytes:
    def test_stripe_header_counts_its_own_bytes(self):
        """``byte_len`` spans header + streams, so stripes chain: walking
        the headers lands exactly on the end of the blob."""
        blob, _ = DwrfWriter(_schema(), stripe_rows=7).write(_trace(6, seed=9))
        _, _, num_stripes = _FILE_HEADER.unpack_from(blob, 0)
        pos = _FILE_HEADER.size
        for _ in range(num_stripes):
            (byte_len, _, _) = _STRIPE_HEADER.unpack_from(blob, pos)
            pos += byte_len
        assert num_stripes > 1 and pos == len(blob)

    def test_written_bytes_are_pinned(self):
        """The file layout is a contract with every landed table: these
        bytes were recorded at commit 7f972b8 (uncompressed, so the pin
        does not depend on the zlib build)."""
        blob, _ = DwrfWriter(_schema(), stripe_rows=7, codec=Codec.NONE).write(
            _trace(6, seed=9)
        )
        assert len(blob) == 8195
        assert hashlib.sha256(blob).hexdigest() == (
            "735a43bb6a8eb5771c71dde8712e864cab624f48bc41bf29e137bb328ebf829b"
        )


class TestAccounting:
    def test_reader_byte_counters(self):
        samples = _trace(25, seed=4)
        blob, _ = DwrfWriter(_schema(), stripe_rows=8).write(samples)
        reader = DwrfReader(blob, _schema())
        assert reader.bytes_read == 0
        reader.read_stripe(0)
        after_one = reader.bytes_read
        assert after_one > 0
        reader.read_all()
        assert reader.bytes_read > after_one
        assert reader.raw_bytes >= reader.bytes_read * 0  # both tracked
        assert reader.values_decoded > 0

    def test_compression_stats_positive(self):
        samples = _trace(30, seed=5)
        _, stats = DwrfWriter(_schema(), stripe_rows=16).write(samples)
        assert stats.raw_bytes > stats.compressed_bytes > 0
        assert stats.compression_ratio > 1.0


class TestClusteringImprovesCompression:
    def test_o2_compression_gain(self):
        """O2's core claim at the file level: clustering a partition by
        session improves the stripe compression ratio (paper: up to
        3.71x relative)."""
        samples = _trace(250, seed=6)
        writer = DwrfWriter(_schema(), stripe_rows=256)
        _, base = writer.write(samples)
        _, clustered = writer.write(_clustered(samples))
        assert (
            clustered.compression_ratio > base.compression_ratio * 1.3
        ), (
            f"clustered {clustered.compression_ratio:.2f} vs "
            f"baseline {base.compression_ratio:.2f}"
        )

    def test_clustered_file_strictly_smaller(self):
        samples = _trace(250, seed=7)
        writer = DwrfWriter(_schema(), stripe_rows=256)
        blob_base, _ = writer.write(samples)
        blob_clustered, _ = writer.write(_clustered(samples))
        assert len(blob_clustered) < len(blob_base)
