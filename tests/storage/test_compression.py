"""The compression module: framing limits on the read side, and the
shared pool every write-side compression runs on.

The pool may move *where* a blob is compressed, never its bytes: each
test below compares the output of a pool of several workers with that
of a one-worker pool (a one-CPU host) or of the codec called directly.
"""

import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings
import zlib
from concurrent.futures import Future

import numpy as np
import pytest

from repro.datagen import DatasetSchema, DenseFeatureSpec, SparseFeatureSpec
from repro.scribe import (
    ScribeCluster,
    ScribeShard,
    ScribeStats,
    ShardKeyPolicy,
    bus,
    split_sample,
)
from repro.storage import (
    Codec,
    DwrfWriter,
    HiveTable,
    TectonicFS,
    compress,
    decompress,
)
from repro.storage import compression
from repro.storage.compression import _FRAME, compress_many
from tests.conftest import make_trace


def _schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec("hist", avg_length=20, change_prob=0.05),
            SparseFeatureSpec("short", avg_length=2, change_prob=0.5),
        ),
        dense=(DenseFeatureSpec("hour"),),
    )


def _trace(sessions=40, seed=0):
    return make_trace(_schema(), sessions=sessions, seed=seed)


def _shut_down_pool() -> None:
    pool, compression._pool = compression._pool, None
    if pool is not None:
        pool.shutdown(wait=True)


@pytest.fixture
def pool_of(monkeypatch):
    """``pool_of(n)``: no pool (and no pool thread) until the next
    compression, which makes one of ``n`` workers whatever this host's
    CPUs; the pool left at the end of the test is shut down."""

    def use(n: int) -> None:
        _shut_down_pool()
        monkeypatch.setattr(compression, "workers", lambda: n)

    yield use
    _shut_down_pool()


@pytest.fixture
def pooled(pool_of):
    """Compression on a fresh four-worker pool."""
    pool_of(4)


class TestDecompressIsBounded:
    def test_frame_recording_a_short_length_does_not_inflate_the_rest(self):
        """A 64 MiB stream framed as 10 raw bytes must be refused after
        inflating about 10 bytes, not after inflating all of it."""
        deflater = zlib.compressobj(9)
        zeros = bytes(1 << 20)
        body = b"".join(deflater.compress(zeros) for _ in range(64))
        frame = _FRAME.pack(Codec.ZLIB.value, 10) + body + deflater.flush()
        tracemalloc.start()
        try:
            with pytest.raises(
                ValueError, match="corrupt frame: inflates past its recorded"
            ):
                decompress(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_stream_without_its_end_is_refused(self):
        whole = compress(b"abcdefgh" * 100)
        with pytest.raises(ValueError, match="corrupt frame: stream cut short"):
            decompress(whole[:-6])

    def test_recorded_length_beyond_the_stream_is_refused(self):
        body = zlib.compress(b"abc")
        frame = _FRAME.pack(Codec.ZLIB.value, 5) + body
        with pytest.raises(
            ValueError, match=r"corrupt frame: raw length 3 != recorded 5"
        ):
            decompress(frame)

    def test_stream_recorded_empty_that_is_not(self):
        frame = _FRAME.pack(Codec.ZLIB.value, 0) + zlib.compress(b"x" * 1000)
        with pytest.raises(ValueError, match="corrupt frame"):
            decompress(frame)

    def test_recorded_length_too_large_for_a_size_is_refused(self):
        frame = _FRAME.pack(Codec.ZLIB.value, 2**64 - 1) + zlib.compress(b"")
        with pytest.raises(ValueError, match=r"raw length 1844\d+ is too large"):
            decompress(frame)

    def test_bytes_after_the_stream_are_refused(self):
        frame = compress(b"abcdefgh" * 100) + b"tail"
        with pytest.raises(
            ValueError, match="corrupt frame: 4 bytes follow the end of its stream"
        ):
            decompress(frame)

    def test_unknown_codec_is_refused(self):
        frame = _FRAME.pack(7, 3) + b"abc"
        with pytest.raises(ValueError, match="corrupt frame: unknown codec id 7"):
            decompress(frame)

    @pytest.mark.parametrize("data", [b"", b"x", b"abc" * 5000])
    @pytest.mark.parametrize("codec", [Codec.NONE, Codec.ZLIB])
    def test_round_trip(self, data, codec):
        assert decompress(compress(data, codec)) == data


_PAYLOADS = {
    "empty list": [],
    "one payload": [b"one payload " * 40],
    "many payloads": [
        bytes(np.random.default_rng(i).integers(0, 8, 50 * i, np.uint8))
        for i in range(37)
    ],
    "empty payloads": [b"", b"", b"x", b""],
}


class TestCompressMany:
    @pytest.mark.parametrize("name", list(_PAYLOADS))
    @pytest.mark.parametrize("codec", [Codec.NONE, Codec.ZLIB])
    def test_equals_one_compress_per_payload(self, pooled, name, codec):
        payloads = _PAYLOADS[name]
        assert compress_many(payloads, codec) == [
            compress(p, codec) for p in payloads
        ]

    @pytest.mark.parametrize("count", [1, 4])
    def test_any_worker_count_gives_the_codec_bytes(self, pool_of, count):
        pool_of(count)
        payloads = _PAYLOADS["many payloads"]
        assert compress_many(payloads) == [compress(p) for p in payloads]
        assert compression.deflate_later(b"abc").result() == zlib.compress(
            b"abc", 6
        )

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no affinity call"
    )
    def test_workers_are_the_cpus_this_process_may_use(self):
        assert compression.workers() == len(os.sched_getaffinity(0))

    def test_many_callers_share_one_pool(self, pool_of):
        """Threads outnumbering the workers race to create the pool and
        compress through it with the interpreter switching often: every
        result stays exact and one pool is created."""
        pool_of(3)
        payloads = _PAYLOADS["many payloads"]
        want = [compress(p) for p in payloads]
        pools, wrong = set(), []

        def call():
            for _ in range(20):
                if compress_many(payloads) != want:
                    wrong.append(threading.get_ident())
                pools.add(id(compression._executor()))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and len(pools) == 1



class _Boom(Exception):
    """Raised by a pool worker: names the thread it was raised on."""


class TestWorkerErrors:
    """An exception a pool worker raises surfaces, itself, where the
    result is awaited, and the pool goes on serving the next call."""

    @pytest.fixture
    def failing(self, monkeypatch, pool_of):
        pool_of(4)
        real = zlib.compress

        def compress_or_fail(data, level=6):
            if data == b"boom":
                raise _Boom(threading.current_thread().name)
            return real(data, level)

        monkeypatch.setattr(compression.zlib, "compress", compress_or_fail)
        return real

    def test_compress_many(self, failing):
        payloads = [b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"boom"]
        with pytest.raises(_Boom, match="^compress_") as err:
            compress_many(payloads, Codec.ZLIB)
        assert err.value.args[0] != threading.current_thread().name
        pool = compression._pool
        payloads[-1] = b"h"
        assert compress_many(payloads) == [
            _FRAME.pack(Codec.ZLIB.value, 1) + failing(p, 6) for p in payloads
        ]
        assert compression._pool is pool

    def test_deflate_later(self, failing):
        future = compression.deflate_later(b"boom")
        with pytest.raises(_Boom, match="^compress_"):
            future.result()
        pool = compression._pool
        assert compression.deflate_later(b"abc").result() == failing(b"abc", 6)
        assert compression._pool is pool


class TestWritersGiveTheSameBytes:
    def _write(self):
        return DwrfWriter(_schema(), stripe_rows=5).write(_trace(60, seed=3))

    def test_dwrf_file(self, pool_of):
        pool_of(4)
        blob, stats = self._write()
        pool_of(1)
        one_blob, one_stats = self._write()
        assert len(stats.stripes) > 20
        assert blob == one_blob and stats == one_stats

    def _log(self, samples):
        cluster = ScribeCluster(
            num_shards=4,
            policy=ShardKeyPolicy.SESSION_ID,
            block_bytes=4 * 1024,
        )
        for s in samples:
            features, event = split_sample(s)
            cluster.log_features(features)
            cluster.log_event(event)
        cluster.flush()
        return cluster

    def test_scribe_cluster(self, pool_of):
        samples = _trace(60, seed=4)
        pool_of(4)
        pooled = self._log(samples)
        messages = pooled.read_all()
        pool_of(1)
        one = self._log(samples)
        assert messages == one.read_all()
        assert pooled.stats == one.stats
        assert pooled.stats.num_blocks > 8
        for a, b in zip(pooled.shards, one.shards):
            assert a._blocks == b._blocks


def _frame(message: bytes) -> bytes:
    return len(message).to_bytes(4, "little") + message


class TestShardSettlesBeforeReading:
    MESSAGES = [bytes([i % 7]) * (100 + 37 * i) for i in range(60)]

    def _expected_blocks(self, messages, block_bytes, flush=True):
        """The sealing rule by hand: one block per run of frames that
        first reaches ``block_bytes``, the remainder on flush."""
        blocks, run = [], []
        for m in messages:
            run.append(_frame(m))
            if sum(map(len, run)) >= block_bytes:
                blocks.append(zlib.compress(b"".join(run), 6))
                run = []
        if run and flush:
            blocks.append(zlib.compress(b"".join(run), 6))
        return blocks

    def _shard(self, messages):
        shard = ScribeShard(0, block_bytes=2048)
        for m in messages:
            shard.append(m)
        return shard

    def test_stats_mid_stream_equal_the_one_worker_values(self, pool_of):
        half = self.MESSAGES[:31]
        pool_of(1)
        want = self._shard(half).stats
        pool_of(4)
        sealed = self._expected_blocks(half, 2048, flush=False)
        assert want == ScribeStats(
            raw_bytes=sum(len(_frame(m)) for m in half),
            compressed_bytes=sum(map(len, sealed)),
            num_messages=len(half),
            num_blocks=len(sealed),
        )
        assert len(sealed) > 3
        shard = self._shard(half)
        assert shard.stats == want  # nothing drained, a partial buffer
        for m in self.MESSAGES[31:]:
            shard.append(m)
        shard.flush()
        assert shard.read_messages() == self.MESSAGES
        assert shard._blocks == self._expected_blocks(self.MESSAGES, 2048)

    def test_counting_sealed_blocks_does_not_wait(self, monkeypatch):
        """``flush()`` counts a block whose compression has not finished."""
        unfinished = []

        def later(data, level=6):
            unfinished.append((Future(), data, level))
            return unfinished[-1][0]

        monkeypatch.setattr(bus, "deflate_later", later)
        cluster = ScribeCluster(num_shards=2, block_bytes=1 << 20)
        cluster.shards[1].append(b"m")
        assert cluster.flush() == 1
        for future, data, level in unfinished:
            future.set_result(zlib.compress(data, level))
        assert cluster.drain_all() == [b"m"]
        assert cluster.stats.compressed_bytes == len(zlib.compress(_frame(b"m")))

    def test_drain_and_egress_see_settled_blocks(self, pooled):
        shard = self._shard(self.MESSAGES)
        shard.flush()
        assert shard.egress_bytes == sum(
            map(len, self._expected_blocks(self.MESSAGES, 2048))
        )
        assert shard.drain() == self.MESSAGES
        assert all(isinstance(b, bytes) for b in shard._blocks)


def _write_in_child(expected: bytes) -> None:
    if compression._pool is not None:
        raise SystemExit("the child inherited a compression pool")
    blob, _ = DwrfWriter(_schema(), stripe_rows=5).write(_trace(30, seed=5))
    if blob != expected:
        raise SystemExit("the child wrote different bytes")


def test_fork_after_a_pooled_landing(pooled):
    """Landing starts the pool; a fork afterwards runs single-threaded,
    the child compresses on a pool of its own and exits cleanly, and the
    parent's next compression makes a new pool."""
    table = HiveTable("t", _schema(), TectonicFS(), stripe_rows=5)
    table.land_partition("p0", _trace(30, seed=6))
    assert compression._pool is not None
    expected, _ = DwrfWriter(_schema(), stripe_rows=5).write(_trace(30, seed=5))
    child = multiprocessing.get_context("fork").Process(
        target=_write_in_child, args=(expected,)
    )
    with warnings.catch_warnings():
        # Python 3.12 warns when fork() runs with threads alive
        warnings.simplefilter("error", DeprecationWarning)
        child.start()
    child.join(timeout=60)
    assert not child.is_alive()
    assert child.exitcode == 0
    assert compression._pool is None
    again, _ = DwrfWriter(_schema(), stripe_rows=5).write(_trace(30, seed=5))
    assert again == expected
    assert compression._pool is not None
