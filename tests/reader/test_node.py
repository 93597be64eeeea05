"""Tests for fill batching, the reader node pipeline, and tier planning."""

import hashlib

import numpy as np
import pytest

from repro.datagen.session import Sample
from repro.reader import (
    DataLoaderConfig,
    ReaderNode,
    fill_batches,
    readers_required,
)
from repro.storage import Codec, HiveTable, RowBlock, TectonicFS
from tests.conftest import make_reader_schema, make_trace


class TestFillBatches:
    def test_batches_cover_rows_in_order(self, landed_table):
        table, samples = landed_table(seed=1)
        readers = table.open_readers("p")
        got = []
        for rows, _ in fill_batches(readers, 64):
            got.extend(rows)
        assert [s.sample_id for s in got] == [
            s.sample_id for s in samples[: len(got)]
        ]

    def test_drop_last(self, landed_table):
        table, samples = landed_table(seed=2)
        readers = table.open_readers("p")
        batches = list(fill_batches(readers, 50))
        assert all(len(rows) == 50 for rows, _ in batches)

    def test_incremental_stats(self, landed_table):
        table, _ = landed_table(seed=3)
        readers = table.open_readers("p")
        stats = [s for _, s in fill_batches(readers, 64)]
        assert all(s.compressed_bytes >= 0 for s in stats)
        total_comp = sum(s.compressed_bytes for s in stats)
        assert total_comp > 0
        # incremental deltas must sum to the readers' final counters
        assert total_comp <= sum(r.bytes_read for r in readers)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(fill_batches([], 0))


class TestReaderNode:
    def _config(self, dedup: bool) -> DataLoaderConfig:
        if dedup:
            return DataLoaderConfig(
                batch_size=128,
                sparse_features=("item",),
                dedup_sparse_features=(("hist",),),
                dense_features=("d",),
                transforms=("hash_modulo",),
            )
        return DataLoaderConfig(
            batch_size=128,
            sparse_features=("item", "hist"),
            dense_features=("d",),
            transforms=("hash_modulo",),
        )

    def test_pipeline_produces_batches(self, landed_table):
        table, samples = landed_table(seed=4)
        node = ReaderNode(self._config(dedup=False))
        batches = node.run_all(table.open_readers("p"))
        assert node.report.batches == len(batches)
        assert node.report.samples == 128 * len(batches)
        assert node.report.cpu.total > 0
        assert node.report.bytes.read > 0
        assert node.report.bytes.decoded > 0

    def test_max_batches(self, landed_table):
        table, _ = landed_table(seed=4)
        node = ReaderNode(self._config(dedup=False))
        batches = node.run_all(table.open_readers("p"), max_batches=2)
        assert len(batches) == 2

    def test_clustered_table_reduces_fill_time(self, landed_table):
        """O2 at the reader: same rows, clustered -> fewer compressed bytes
        -> less fill CPU (paper: -33..50%)."""
        base_table, _ = landed_table(seed=5)
        clus_table, _ = landed_table(clustered=True, seed=5)
        cfg = self._config(dedup=False)
        base_node, clus_node = ReaderNode(cfg), ReaderNode(cfg)
        base_node.run_all(base_table.open_readers("p"))
        clus_node.run_all(clus_table.open_readers("p"))
        assert clus_node.report.cpu.fill < base_node.report.cpu.fill
        assert clus_node.report.bytes.read < base_node.report.bytes.read

    def test_dedup_cuts_send_bytes_and_process_time(self, landed_table):
        """O3+O4 on a clustered table: deduped output is smaller on the
        wire and cheaper to preprocess, at some convert overhead."""
        table, _ = landed_table(clustered=True, seed=6)
        plain, dedup = (
            ReaderNode(self._config(dedup=False)),
            ReaderNode(self._config(dedup=True)),
        )
        plain.run_all(table.open_readers("p"))
        dedup.run_all(table.open_readers("p"))
        assert dedup.report.bytes.decoded < plain.report.bytes.decoded
        assert dedup.report.cpu.process < plain.report.cpu.process
        assert dedup.report.cpu.convert > plain.report.cpu.convert
        # net effect: higher reader throughput (Fig 7)
        assert (
            dedup.report.samples_per_cpu_second
            > plain.report.samples_per_cpu_second
        )

    def test_batches_functionally_identical(self, landed_table):
        """IKJTs encode the exact same logical data as KJTs (§6.2)."""
        table, _ = landed_table(clustered=True, seed=7)
        plain = ReaderNode(self._config(dedup=False)).run_all(
            table.open_readers("p"), max_batches=3
        )
        dedup = ReaderNode(self._config(dedup=True)).run_all(
            table.open_readers("p"), max_batches=3
        )
        for pb, db in zip(plain, dedup):
            expanded = db.to_kjt_only()
            for key in ("hist", "item"):
                assert expanded.kjt[key] == pb.kjt[key]
            np.testing.assert_array_equal(pb.labels, db.labels)


def _batch_digest(batch) -> str:
    """Content digest of every array a batch ships, dtype and shape in."""
    h = hashlib.sha256()

    def feed(a):
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())

    feed(batch.dense)
    feed(batch.labels)
    if batch.kjt is not None:
        for k, jt in batch.kjt.items():
            h.update(k.encode())
            feed(jt.values)
            feed(jt.offsets)
    for ik in batch.ikjts:
        for k, jt in ik.items():
            h.update(k.encode())
            feed(jt.values)
            feed(jt.offsets)
        feed(ik.inverse_lookup)
    return h.hexdigest()[:16]


def _window_config(dedup: bool) -> DataLoaderConfig:
    return DataLoaderConfig(
        batch_size=40,
        sparse_features=("item",) if dedup else ("item", "hist"),
        dedup_sparse_features=(("hist",),) if dedup else (),
        dense_features=("d",),
        transforms=("hash_modulo",),
    )


@pytest.fixture(scope="module")
def window_table():
    """643 clustered rows in 300-row files of 48-row stripes, stored
    uncompressed so the pinned byte counts do not depend on the zlib
    build."""
    schema = make_reader_schema()
    table = HiveTable(
        "t",
        schema,
        TectonicFS(),
        rows_per_file=300,
        stripe_rows=48,
        codec=Codec.NONE,
    )
    table.land_partition(
        "p", make_trace(schema, sessions=60, seed=11, clustered=True)
    )
    return table


#: ((row_start, row_stop), per-batch FillStats as (compressed, raw,
#: decoded), plain-config batch digests, dedup-config batch digests) —
#: recorded from the row-based reader at commit 7f972b8.  Every window
#: starts and ends inside a stripe; the last crosses a file boundary.
_PINNED_WINDOWS = [
    (
        (17, 431),
        [
            (7818, 7198, 2400), (3902, 3592, 1200), (0, 0, 0),
            (3915, 3605, 1200), (3883, 3573, 1200), (3899, 3589, 1200),
            (1210, 900, 300), (3936, 3626, 1200), (3886, 3576, 1200),
            (3927, 3617, 1200),
        ],
        [
            "119dc6c82f66783a", "9eb9362972afbf45", "7e34cdd0b3a2ec0e",
            "28f05ea4be8543d6", "f880ea488dfc4351", "ea65e1402db0abda",
            "54fa079d2162d197", "115c8ec2ae16368a", "3d3eba10951cb2ea",
            "f0e7acb31a06c7a4",
        ],
        [
            "72130a5bde6299d9", "03d30c31816eebee", "65e0e909a088a5e4",
            "a649660229f69f89", "a6871a568b284c03", "bd930177e224802f",
            "115c2ba16254e586", "c79b4e199d509a96", "15d8494a1deb64db",
            "54f9fc7876a97d57",
        ],
    ),
    (
        (100, 260),
        [
            (3902, 3592, 1200), (3915, 3605, 1200), (3883, 3573, 1200),
            (3899, 3589, 1200),
        ],
        [
            "5e28c851ece69f2c", "be8182fe0bdd0989", "4bf42e197f5291eb",
            "0f12f7679ca21704",
        ],
        [
            "3e7b12f25d49d307", "a5581b0dec5eb419", "96176287c4127085",
            "0fd359d59f7c0247",
        ],
    ),
    (
        (250, 330),
        [(5109, 4489, 1500), (3936, 3626, 1200)],
        ["1f338338291bc5d4", "fe1bce02b7ad1218"],
        ["f36bdbb54554510c", "72c38a14c32a0d6f"],
    ),
]


class TestColumnarReadPath:
    """The reader moves column slices from stripe to tensor: the batch
    stream and its metered work are the row-based reader's, bit for bit,
    and no row object is built on the way."""

    @pytest.mark.parametrize(
        "window, fill_stats, plain, dedup",
        _PINNED_WINDOWS,
        ids=[str(w[0]) for w in _PINNED_WINDOWS],
    )
    def test_mid_stripe_windows_match_the_row_based_reader(
        self, window_table, window, fill_stats, plain, dedup
    ):
        start, stop = window
        got = [
            (s.compressed_bytes, s.raw_bytes, s.values_decoded)
            for _, s in fill_batches(
                window_table.open_readers("p"),
                40,
                row_start=start,
                row_stop=stop,
            )
        ]
        assert got == fill_stats
        for cfg, want in ((False, plain), (True, dedup)):
            batches = ReaderNode(_window_config(cfg)).run_all(
                window_table.open_readers("p"), row_start=start, row_stop=stop
            )
            assert [_batch_digest(b) for b in batches] == want

    def test_fill_yields_blocks_of_exactly_batch_size(self, window_table):
        blocks = [
            rows
            for rows, _ in fill_batches(
                window_table.open_readers("p"), 40, row_start=17, row_stop=431
            )
        ]
        assert all(isinstance(b, RowBlock) and len(b) == 40 for b in blocks)
        ids = np.concatenate([b.sample_id for b in blocks])
        want = [r.sample_id for r in window_table.read_partition("p")]
        assert ids.tolist() == want[17 : 17 + ids.size]

    @pytest.mark.parametrize("dedup", [False, True])
    def test_run_all_builds_no_sample(
        self, window_table, count_constructions, dedup
    ):
        readers = window_table.open_readers("p")
        built = count_constructions(Sample)
        batches = ReaderNode(_window_config(dedup)).run_all(readers)
        assert len(batches) == 643 // 40
        assert built == [0]

    def test_batches_cut_from_one_stripe_own_their_memory(self):
        """Two 20-row batches out of one 48-row stripe: no array of one
        overlaps an array of the other, and writing to one is not seen
        by the other or by a re-scan."""
        schema = make_reader_schema()
        table = HiveTable("t", schema, TectonicFS(), stripe_rows=48)
        table.land_partition("p", make_trace(schema, sessions=8, seed=3)[:48])
        cfg = DataLoaderConfig(
            batch_size=20,
            sparse_features=("item", "hist"),
            dense_features=("d",),
        )

        def arrays(batch):
            out = [batch.dense, batch.labels]
            for _, jt in batch.kjt.items():
                out += [jt.values, jt.offsets]
            return out

        first, second = ReaderNode(cfg).run_all(table.open_readers("p"))
        for a in arrays(first):
            for b in arrays(second):
                assert not np.shares_memory(a, b)
        before = _batch_digest(second)
        for a in arrays(first):
            a[...] = 7
        assert _batch_digest(second) == before
        again = ReaderNode(cfg).run_all(table.open_readers("p"))
        assert _batch_digest(again[1]) == before


class TestTier:
    def test_provisioning(self):
        plan = readers_required(1000, 100)
        assert plan.num_readers == 11  # 10% headroom

    def test_faster_readers_fewer_nodes(self):
        slow = readers_required(1000, 100).num_readers
        fast = readers_required(1000, 179).num_readers  # 1.79x (Fig 7 RM1)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            readers_required(-1, 10)
        with pytest.raises(ValueError):
            readers_required(10, 0)
        with pytest.raises(ValueError):
            readers_required(10, 10, headroom=0.5)

    def test_minimum_one_reader(self):
        assert readers_required(0, 100).num_readers == 1
