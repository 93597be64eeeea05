"""Tests for the Tectonic FS stand-in and Hive partitioned tables."""

import pytest

from repro.datagen import (
    DatasetSchema,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.etl.cluster import cluster_order
from repro.storage import HiveTable, RowBlock, TectonicFS
from repro.storage.dwrf import DwrfWriter
from tests.storage.test_rowblock import _assert_blocks_equal


def _schema():
    return DatasetSchema(
        sparse=(SparseFeatureSpec("hist", avg_length=10, change_prob=0.1),)
    )


def _trace(n=50, seed=0) -> RowBlock:
    return RowBlock.from_samples(
        generate_partition(_schema(), n, TraceConfig(seed=seed))
    )


class TestTectonicFS:
    def test_write_read(self):
        fs = TectonicFS()
        fs.write("a/b", b"hello")
        assert fs.read("a/b") == b"hello"
        assert fs.stats.bytes_written == 5
        assert fs.stats.bytes_read == 5
        assert fs.stats.read_ops == 1

    def test_ranged_read(self):
        fs = TectonicFS()
        fs.write("f", b"0123456789")
        assert fs.read("f", offset=2, length=3) == b"234"
        assert fs.stats.bytes_read == 3

    def test_immutability(self):
        fs = TectonicFS()
        fs.write("f", b"x")
        with pytest.raises(FileExistsError):
            fs.write("f", b"y")

    def test_missing_file(self):
        fs = TectonicFS()
        with pytest.raises(FileNotFoundError):
            fs.read("nope")
        with pytest.raises(FileNotFoundError):
            fs.size("nope")
        with pytest.raises(FileNotFoundError):
            fs.delete("nope")

    def test_bad_offset(self):
        fs = TectonicFS()
        fs.write("f", b"ab")
        with pytest.raises(ValueError):
            fs.read("f", offset=5)

    def test_delete_and_listdir(self):
        fs = TectonicFS()
        fs.write("t/p1/f0", b"a")
        fs.write("t/p1/f1", b"b")
        fs.write("t/p2/f0", b"c")
        assert fs.listdir("t/p1/") == ["t/p1/f0", "t/p1/f1"]
        fs.delete("t/p1/f0")
        assert fs.listdir("t/p1/") == ["t/p1/f1"]
        assert sum(fs.size(p) for p in fs.listdir("")) == 2


class TestHiveTable:
    def _table(self, fs=None):
        return HiveTable(
            "dlrm_table",
            _schema(),
            fs or TectonicFS(),
            rows_per_file=32,
            stripe_rows=16,
        )

    def test_land_and_read_partition(self):
        table = self._table()
        samples = _trace(20, seed=1)[:70]
        info = table.land_partition("2026061200", samples)
        assert info.num_rows == 70
        assert len(info.files) == 3  # ceil(70/32)
        got = table.read_partition("2026061200")
        assert isinstance(got, RowBlock)
        assert got.sample_id.tolist() == samples.sample_id.tolist()

    def test_land_takes_only_a_block(self):
        table = self._table()
        with pytest.raises(
            TypeError, match=r"HiveTable\.land_partition.*RowBlock\.from_samples"
        ):
            table.land_partition("p", list(_trace(5)))
        assert table.partitions == {}

    def test_zero_file_partition_reads_as_every_schema_column(self):
        """Landing no rows writes no file; reading it back is a zero-row
        block with the schema's columns, not a failed ``concat``."""
        table = self._table()
        assert table.land_partition("p", _trace(0)).files == []
        got = table.read_partition("p")
        assert len(got) == 0 and list(got.sparse) == ["hist"]
        assert got.sparse["hist"][0].tolist() == [0]

    def test_duplicate_partition_rejected(self):
        table = self._table()
        table.land_partition("p", _trace(5))
        with pytest.raises(ValueError):
            table.land_partition("p", _trace(5, seed=2))

    def test_failed_landing_leaves_nothing_and_can_be_retried(
        self, monkeypatch
    ):
        """A write that raises partway deletes the files it already
        wrote, so the retry lands the same partition as a first try."""
        from repro.storage import dwrf

        rows = _trace(40, seed=4)
        fs = TectonicFS()
        table = self._table(fs)
        write = dwrf.DwrfWriter.write
        calls = []

        def second_write_fails(writer, block):
            calls.append(block)
            if len(calls) == 2:
                raise OSError("disk gone")
            return write(writer, block)

        monkeypatch.setattr(dwrf.DwrfWriter, "write", second_write_fails)
        with pytest.raises(OSError, match="disk gone"):
            table.land_partition("p0", rows, rows_per_file=64)
        assert len(calls) == 2
        assert fs.listdir("") == [] and table.partitions == {}
        monkeypatch.setattr(dwrf.DwrfWriter, "write", write)
        info = table.land_partition("p0", rows, rows_per_file=64)
        fresh = self._table()
        assert info == fresh.land_partition("p0", rows, rows_per_file=64)
        assert [fs.read(p) for p in info.files] == [
            fresh.fs.read(p) for p in info.files
        ]
        assert table.bytes_ever_landed == fresh.bytes_ever_landed

    def test_drop_partition_retention(self):
        fs = TectonicFS()
        table = self._table(fs)
        table.land_partition("p", _trace(40, seed=3))
        assert fs.listdir("")
        table.drop_partition("p")
        assert fs.listdir("") == []
        with pytest.raises(KeyError):
            table.drop_partition("p")

    def test_drop_partition_returns_the_freed_bytes(self):
        fs = TectonicFS()
        table = self._table(fs)
        info = table.land_partition("p", _trace(40, seed=3))
        freed = table.drop_partition("p")
        assert freed == info.compressed_bytes > 0

    def test_drop_unknown_partition_message(self):
        table = self._table()
        with pytest.raises(
            KeyError, match="never landed, or already dropped"
        ):
            table.drop_partition("ghost")

    def test_bytes_live_and_ever_landed_diverge_under_retention(self):
        """The retention-aware ledger: ``bytes_ever_landed`` only grows,
        the live partitions' bytes track what retention has not yet
        dropped."""
        table = self._table()

        def live():
            return sum(p.compressed_bytes for p in table.partitions.values())

        a = table.land_partition("a", _trace(40, seed=1))
        b = table.land_partition("b", _trace(40, seed=2))
        landed = a.compressed_bytes + b.compressed_bytes
        assert table.bytes_ever_landed == landed
        assert live() == landed
        freed = table.drop_partition("a")
        assert live() == landed - freed == b.compressed_bytes
        assert table.bytes_ever_landed == landed  # the ledger keeps it

    def test_compact_partition_merges_small_files(self):
        fs = TectonicFS()
        small = HiveTable(
            "t", _schema(), fs, rows_per_file=4096, stripe_rows=4
        )
        rows = _trace(30, seed=7)
        # The micro file size is an argument of the landing, not a
        # table setting to flip and restore around it.
        info = small.land_partition("p", rows, rows_per_file=8)
        micro_files = len(info.files)
        assert micro_files == -(-len(rows) // 8) > 1
        assert small.rows_per_file == 4096
        merged = small.compact_partition("p")
        assert merged == micro_files - 1
        assert len(small.partitions["p"].files) == 1
        # Row order is preserved exactly — readers see the same stream.
        assert small.read_partition("p").sample_id.tolist() == (
            rows.sample_id.tolist()
        )
        # Already compact: a second pass is a no-op.
        assert small.compact_partition("p") == 0

    def test_failed_compaction_keeps_the_partition(self, monkeypatch):
        """A write that fails while compacting leaves the partition's files
        and rows as they were, and a retry compacts it to the files a
        compaction that never failed lands."""
        rows = _trace(40, seed=3)[:586]
        tables = []
        for _ in range(2):
            fs = TectonicFS()
            table = HiveTable("t", _schema(), fs, rows_per_file=256, stripe_rows=4)
            assert len(table.land_partition("p", rows, rows_per_file=16).files) == 37
            tables.append((fs, table))
        (fs, table), (clean_fs, clean) = tables
        landed = {path: fs.read(path) for path in fs.listdir("")}

        def fail(writer, block):
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(DwrfWriter, "write", fail)
            with pytest.raises(OSError, match="disk full"):
                table.compact_partition("p")
        assert table.live_partitions == ["p"]
        assert {path: fs.read(path) for path in fs.listdir("")} == landed
        assert table.partitions["p"].files == sorted(landed)
        _assert_blocks_equal(table.read_partition("p"), rows)
        assert table.files_compacted == 0

        assert table.compact_partition("p") == clean.compact_partition("p") == 37 - 3
        assert fs.listdir("") == clean_fs.listdir("") == table.partitions["p"].files
        assert [fs.read(f) for f in fs.listdir("")] == [
            clean_fs.read(f) for f in clean_fs.listdir("")
        ]
        assert table.files_compacted == clean.files_compacted
        assert table.bytes_ever_landed == clean.bytes_ever_landed
        _assert_blocks_equal(table.read_partition("p"), rows)

    def test_compact_unknown_partition_message(self):
        table = self._table()
        with pytest.raises(
            KeyError, match="never landed, or dropped by retention"
        ):
            table.compact_partition("ghost")

    def test_partition_stored_bytes(self):
        fs = TectonicFS()
        table = self._table(fs)
        table.land_partition("p", _trace(40, seed=4))
        stored = sum(fs.size(f) for f in table.partitions["p"].files)
        assert stored == sum(fs.size(p) for p in fs.listdir("")) > 0

    def test_clustered_partition_smaller(self):
        """Landing the same rows clustered must store fewer bytes (O2)."""
        fs = TectonicFS()
        table = HiveTable(
            "t", _schema(), fs, rows_per_file=4096, stripe_rows=512
        )
        samples = _trace(200, seed=5)
        base = table.land_partition("base", samples)
        clustered = table.land_partition(
            "clustered",
            samples.take(cluster_order(samples.session_id, samples.timestamp)),
        )
        assert clustered.compression_ratio > base.compression_ratio
        stored = {
            name: sum(fs.size(f) for f in table.partitions[name].files)
            for name in ("base", "clustered")
        }
        assert stored["clustered"] < stored["base"]

    def test_open_readers_per_file(self):
        table = self._table()
        table.land_partition("p", _trace(20, seed=6)[:70])
        readers = table.open_readers("p")
        assert len(readers) == 3
        assert sum(len(r.read_all()) for r in readers) == 70
