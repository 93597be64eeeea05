"""The reader decodes a window's run of stripes once per file and hands
the stripes out as views: everything observable — blocks, the readers'
counters, per-batch ``FillStats``, and which stripe a typed error names
— must equal a stripe-at-a-time read (``read_stripe(i)`` bare)."""

import numpy as np
import pytest

from repro.reader import fill_batches
from repro.storage import (
    Codec,
    DwrfReader,
    DwrfWriter,
    HiveTable,
    RowBlock,
    TectonicFS,
)
from tests.conftest import make_reader_schema, make_trace
from tests.storage.test_dwrf import (
    HOSTILE_PAYLOADS,
    _patch_payload,
    _patch_stream,
    _schema,
    _trace,
)


class _StripeAtATime(DwrfReader):
    """The reference reader: never told of a run, so every
    ``read_stripe`` is the one-stripe run."""

    def plan_run(self, start, stop):
        return range(start, stop)


def _columns(block):
    out = {
        "sample_id": block.sample_id,
        "session_id": block.session_id,
        "timestamp": block.timestamp,
        "label": block.label,
    }
    for name, (offsets, values) in block.sparse.items():
        out[f"{name}:offsets"], out[f"{name}:values"] = offsets, values
    for name, column in block.dense.items():
        out[f"dense:{name}"] = column
    return out


def _assert_same_block(got, want):
    got, want = _columns(got), _columns(want)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.fixture(scope="module")
def files():
    """643 clustered rows as three files (300, 300, 43 rows) of 48-row
    stripes: seven stripes a file, the last of each file short."""
    schema = make_reader_schema()
    table = HiveTable(
        "t", schema, TectonicFS(), rows_per_file=300, stripe_rows=48
    )
    info = table.land_partition(
        "p", make_trace(schema, sessions=60, seed=11, clustered=True)
    )
    assert info.num_rows == 643 and len(info.files) == 3
    return [table.fs.read(path) for path in info.files], schema


#: windows that start and end mid-stripe, on a stripe edge, inside one
#: stripe, across one and across both file boundaries, and nowhere
_GRID = [
    (start, stop)
    for start in (0, 17, 48, 100, 299, 300, 331)
    for stop in (17, 96, 250, 300, 301, 431, 620, 643, None)
    if stop is None or start <= stop
]


class TestRunEqualsStripeAtATime:
    @pytest.mark.parametrize("window", _GRID, ids=str)
    @pytest.mark.parametrize("batch_size", [17, 40, 64, 100])
    def test_blocks_counters_and_fill_stats(self, files, window, batch_size):
        blobs, schema = files
        start, stop = window
        runs = [DwrfReader(blob, schema) for blob in blobs]
        bare = [_StripeAtATime(blob, schema) for blob in blobs]
        got = list(fill_batches(runs, batch_size, start, stop))
        want = list(fill_batches(bare, batch_size, start, stop))
        assert len(got) == len(want)
        for (block, stats), (ref_block, ref_stats) in zip(got, want):
            _assert_same_block(block, ref_block)
            assert stats == ref_stats
        for reader, ref in zip(runs, bare):
            for counter in ("bytes_read", "raw_bytes", "values_decoded"):
                assert getattr(reader, counter) == getattr(ref, counter)

    def test_a_file_is_decoded_once_and_only_when_reached(
        self, files, monkeypatch
    ):
        blobs, schema = files
        decoded = []
        inner = DwrfReader._decode
        monkeypatch.setattr(
            DwrfReader,
            "_decode",
            lambda self, stripes: decoded.append((self, stripes))
            or inner(self, stripes),
        )
        readers = [DwrfReader(blob, schema) for blob in blobs]
        batches = fill_batches(readers, 40, row_start=100, row_stop=431)
        next(batches)
        # rows 100..431 touch stripes 2..6 of file 0 and 0..2 of file 1
        assert decoded == [(readers[0], range(2, 7))]
        list(batches)
        assert decoded == [
            (readers[0], range(2, 7)),
            (readers[1], range(0, 3)),
        ]

    def test_read_all_and_compaction_read_runs(self, files, monkeypatch):
        blobs, schema = files
        runs = []
        inner = DwrfReader._decode
        monkeypatch.setattr(
            DwrfReader,
            "_decode",
            lambda self, stripes: runs.append(stripes) or inner(self, stripes),
        )
        rows = DwrfReader(blobs[0], schema).read_all()
        assert len(rows) == 300 and runs == [range(0, 7)]
        table = HiveTable(
            "t", schema, TectonicFS(), rows_per_file=300, stripe_rows=48
        )
        table.land_partition(
            "p", make_trace(schema, sessions=20, seed=3), rows_per_file=100
        )
        files_before = len(table.partitions["p"].files)
        before = table.read_partition("p")
        del runs[:]
        assert table.compact_partition("p") > 0
        assert len(runs) == files_before  # one run per small file
        _assert_same_block(table.read_partition("p"), before)

    def test_read_all_is_the_run_without_a_concat(self, files, monkeypatch):
        blobs, schema = files
        bare = _StripeAtATime(blobs[0], schema)
        want = RowBlock.concat(
            [bare.read_stripe(i) for i in range(bare.num_stripes)]
        )
        concats = _spy_concat(monkeypatch)
        reader = DwrfReader(blobs[0], schema)
        got = reader.read_all()
        assert reader.num_stripes == 7 and concats == []
        _assert_same_block(got, want)
        for counter in ("bytes_read", "raw_bytes", "values_decoded"):
            assert getattr(reader, counter) == getattr(bare, counter)

    def test_run_of_answers_the_latest_read_once(self, files):
        blobs, schema = files
        reader = DwrfReader(blobs[0], schema)
        reader.plan_run(1, 4)
        stripe = reader.read_stripe(2)
        with pytest.raises(LookupError, match="stripe 1"):
            reader.run_of(1)
        block, first = reader.run_of(2)
        assert (len(block), first) == (3 * 48, 48)
        _assert_same_block(block[first : first + 48], stripe)
        with pytest.raises(LookupError, match="stripe 2"):
            reader.run_of(2)

    def test_stripes_of_a_run_are_views_until_the_last_is_taken(self, files):
        blobs, schema = files
        reader = DwrfReader(blobs[0], schema)
        reader.plan_run(1, 4)
        first, second = reader.read_stripe(1), reader.read_stripe(2)
        assert np.shares_memory(first.sample_id, second.sample_id.base)
        # out of order, twice, and past the run: still the same rows
        again = reader.read_stripe(1)
        _assert_same_block(again, first)
        reader.read_stripe(3)
        alone = reader.read_stripe(2)
        _assert_same_block(alone, second)
        assert not np.shares_memory(alone.sample_id, second.sample_id)
        with pytest.raises(IndexError):
            reader.plan_run(3, 9)


def _spy_concat(monkeypatch) -> list[int]:
    """Record the block count of every ``RowBlock.concat`` call."""
    calls, inner = [], RowBlock.concat

    def concat(cls, blocks):
        blocks = list(blocks)
        calls.append(len(blocks))
        return inner(blocks)

    monkeypatch.setattr(RowBlock, "concat", classmethod(concat))
    return calls


class TestABatchIsAViewOfItsRun:
    @pytest.mark.parametrize("window", [(0, None), (17, 620), (299, 301)])
    @pytest.mark.parametrize("batch_size", [17, 64, 100, 301])
    def test_concat_only_across_a_file_boundary(
        self, files, monkeypatch, window, batch_size
    ):
        """The fixture's files hold rows [0, 300), [300, 600) and
        [600, 643): one concat per batch that straddles 300 or 600."""
        blobs, schema = files
        start, stop = window
        stop = 643 if stop is None else stop
        readers = [DwrfReader(blob, schema) for blob in blobs]
        concats = _spy_concat(monkeypatch)
        lo = start
        for block, _ in fill_batches(readers, batch_size, start, stop):
            hi = lo + len(block)
            crossed = sum(lo < edge < hi for edge in (300, 600))
            assert concats == ([crossed + 1] if crossed else [])
            del concats[:]
            lo = hi
        assert lo == start + (stop - start) // batch_size * batch_size


def _three_stripes():
    """30 rows as three 10-row stripes, and each stripe's block."""
    blob, _ = DwrfWriter(_schema(), stripe_rows=10, codec=Codec.NONE).write(
        _trace(12, seed=8)[:30]
    )
    reader = DwrfReader(blob, _schema())
    assert reader.num_stripes == 3
    return blob, [reader.read_stripe(k) for k in range(3)]


def _negative(block):
    lengths = np.diff(block.sparse["hist"][0])
    lengths[0], lengths[1] = -1, lengths[0] + lengths[1] + 1  # same sum
    return lengths


#: the ``TestHostileStreams`` corruptions as (stream, the stripe's block
#: -> hostile values, message after ``stripe <k>: ``)
_HOSTILE = [
    (
        "s:hist:len",
        lambda block: np.diff(block.sparse["hist"][0])[:-1],
        r"stream 's:hist:len' holds 9 values, expected 10",
    ),
    ("s:hist:len", _negative, r"stream 's:hist:len'.*negative"),
    (
        "s:short:val",
        lambda block: block.sparse["short"][1][:-1],
        r"stream 's:short:val' holds \d+ values, expected \d+",
    ),
    (
        "__label",
        lambda _: np.zeros(9, dtype=np.int64),
        r"stream '__label' holds 9",
    ),
    (
        "__sample_id",
        lambda _: np.zeros(11, dtype=np.int64),
        r"stream '__sample_id' holds 11",
    ),
    ("__timestamp", lambda _: np.zeros(9), r"stream '__timestamp' holds 9"),
    ("d:hour", lambda _: np.zeros(11), r"stream 'd:hour' holds 11"),
]


class TestHostileStreamsInAWindow:
    @pytest.mark.parametrize("stripe", [0, 1, 2])
    @pytest.mark.parametrize(
        "name, hostile, message",
        _HOSTILE,
        ids=[f"{i}-{h[0]}" for i, h in enumerate(_HOSTILE)],
    )
    def test_the_run_names_the_stripe_the_lone_read_names(
        self, stripe, name, hostile, message
    ):
        blob, blocks = _three_stripes()
        bad = _patch_stream(blob, stripe, name, hostile(blocks[stripe]))
        with pytest.raises(
            ValueError, match=rf"stripe {stripe}: {message}"
        ) as alone:
            DwrfReader(bad, _schema()).read_stripe(stripe)
        with pytest.raises(ValueError) as in_window:
            list(fill_batches([DwrfReader(bad, _schema())], 10))
        assert str(in_window.value) == str(alone.value)

    @pytest.mark.parametrize("stripe", [0, 1, 2])
    @pytest.mark.parametrize(
        "payload, enc_id, message",
        HOSTILE_PAYLOADS,
        ids=["truncated-varint", "negative-run", "long-run", "unknown-id"],
    )
    def test_a_payload_that_does_not_decode_names_its_stripe(
        self, stripe, payload, enc_id, message
    ):
        blob, _ = _three_stripes()
        bad = _patch_payload(blob, stripe, "__label", payload, enc_id, 10)
        want = f"stripe {stripe}: stream '__label': {message}"
        with pytest.raises(ValueError) as alone:
            DwrfReader(bad, _schema()).read_stripe(stripe)
        with pytest.raises(ValueError) as in_window:
            list(fill_batches([DwrfReader(bad, _schema())], 10))
        assert str(alone.value) == str(in_window.value) == want

    def test_two_bad_stripes_name_the_first(self):
        """Column order must not decide: a late column of an early
        stripe is named before an early column of a late stripe."""
        blob, blocks = _three_stripes()
        bad = _patch_stream(blob, 2, "s:hist:len", _negative(blocks[2]))
        bad = _patch_stream(bad, 1, "d:hour", np.zeros(11))
        with pytest.raises(ValueError, match=r"stripe 1: stream 'd:hour'"):
            list(fill_batches([DwrfReader(bad, _schema())], 10))

    def test_stripes_outside_the_window_are_not_touched(self):
        blob, _ = _three_stripes()
        bad = _patch_stream(blob, 2, "__label", np.zeros(9, dtype=np.int64))
        got = list(fill_batches([DwrfReader(bad, _schema())], 10, row_stop=20))
        assert [len(block) for block, _ in got] == [10, 10]

    def test_a_missing_stream_names_its_stripe(self):
        blob, _ = _three_stripes()
        # renaming a stream in place keeps every length field valid
        at = blob.index(b"d:hour", blob.index(b"d:hour") + 1)
        bad = blob[:at] + b"d:HOUR" + blob[at + 6 :]
        with pytest.raises(
            ValueError, match=r"stripe 1: stream 'd:hour' is missing"
        ):
            list(fill_batches([DwrfReader(bad, _schema())], 10))
