"""Tests for the sharded reader fleet: shard planning round-trips,
bit-identical output versus the serial reader, report merging, and the
prefetch-queue accounting."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import ByteLedger, QueueWaitBreakdown, ReaderCpuBreakdown
from repro.reader import (
    DataLoaderConfig,
    FleetReport,
    ReaderFleet,
    ReaderNode,
    ReaderReport,
    RowRangeShard,
    covering_files,
    plan_shards,
)


def _plain_cfg(batch_size=48):
    return DataLoaderConfig(
        batch_size=batch_size,
        sparse_features=("hist", "item"),
        dense_features=("d",),
        transforms=("hash_modulo",),
    )


def _dedup_cfg(batch_size=48):
    return DataLoaderConfig(
        batch_size=batch_size,
        sparse_features=("item",),
        dedup_sparse_features=(("hist",),),
        dense_features=("d",),
        transforms=("hash_modulo",),
    )


def assert_batches_identical(got, want):
    """Bit-level batch equality: every tensor component must match."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert (a.kjt is None) == (b.kjt is None)
        if a.kjt is not None:
            assert a.kjt == b.kjt
        assert a.ikjts == b.ikjts


# -- shard planning ----------------------------------------------------------


class TestPlanShards:
    @given(
        num_rows=st.integers(min_value=0, max_value=5000),
        batch_size=st.integers(min_value=1, max_value=128),
        num_shards=st.integers(min_value=1, max_value=16),
    )
    def test_property_round_trip(self, num_rows, batch_size, num_shards):
        """Shards are ordered, contiguous, disjoint, cover every row, and
        interior boundaries stay batch-aligned."""
        shards = plan_shards(num_rows, batch_size, num_shards)
        assert [s.index for s in shards] == list(range(len(shards)))
        pos = 0
        for s in shards:
            assert s.row_start == pos  # contiguous => disjoint + ordered
            assert s.row_stop >= s.row_start
            pos = s.row_stop
        assert pos == num_rows  # full coverage
        for s in shards[:-1]:
            assert s.num_rows % batch_size == 0
        # no full batch is lost or invented by the split
        assert (
            sum(s.num_rows // batch_size for s in shards)
            == num_rows // batch_size
        )
        assert len(shards) <= num_shards

    @given(
        num_rows=st.integers(min_value=0, max_value=5000),
        batch_size=st.integers(min_value=1, max_value=128),
        num_shards=st.integers(min_value=1, max_value=16),
        max_batches=st.integers(min_value=0, max_value=40),
    )
    def test_property_max_batches_cap(
        self, num_rows, batch_size, num_shards, max_batches
    ):
        shards = plan_shards(
            num_rows, batch_size, num_shards, max_batches=max_batches
        )
        planned = sum(s.num_rows // batch_size for s in shards)
        assert planned == min(max_batches, num_rows // batch_size)

    def test_tail_rides_in_last_shard(self):
        shards = plan_shards(250, 32, 3)
        # 7 full batches, tail of 26 rows on the last shard
        assert shards[-1].row_stop == 250
        assert shards[0].num_rows % 32 == 0

    def test_no_full_batch_single_shard(self):
        shards = plan_shards(10, 32, 4)
        assert shards == [RowRangeShard(0, 0, 10)]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 32, 2)
        with pytest.raises(ValueError):
            plan_shards(100, 0, 2)
        with pytest.raises(ValueError):
            plan_shards(100, 32, 0)
        with pytest.raises(ValueError):
            plan_shards(100, 32, 2, max_batches=-1)
        with pytest.raises(ValueError):
            RowRangeShard(0, 5, 4)


class TestCoveringFiles:
    def test_window_maps_to_files(self):
        counts = [100, 100, 100]
        assert covering_files(counts, 0, 100) == ([0], 0)
        assert covering_files(counts, 50, 150) == ([0, 1], 0)
        assert covering_files(counts, 100, 300) == ([1, 2], 100)
        assert covering_files(counts, 250, 260) == ([2], 200)

    def test_empty_window(self):
        assert covering_files([100, 100], 50, 50) == ([], 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            covering_files([10], 5, 4)
        with pytest.raises(ValueError):
            covering_files([-1], 0, 1)

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=200), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    def test_property_covers_window(self, counts, data):
        total = sum(counts)
        start = data.draw(st.integers(min_value=0, max_value=total))
        stop = data.draw(st.integers(min_value=start, max_value=total))
        idxs, base = covering_files(counts, start, stop)
        # every row of the window falls inside the returned files
        if start < stop:
            assert idxs
            covered_stop = base + sum(counts[i] for i in range(idxs[0], idxs[-1] + 1))
            assert base <= start and covered_stop >= stop


# -- fleet output determinism ------------------------------------------------


class TestFleetDeterminism:
    def _serial(self, table, cfg, max_batches=None):
        return ReaderNode(cfg).run_all(
            table.open_readers("p"), max_batches=max_batches
        )

    @pytest.mark.parametrize("num_readers", [1, 2, 4])
    def test_inprocess_matches_serial(self, landed_table, num_readers):
        table, _ = landed_table(seed=1, stripe_rows=64)
        cfg = _plain_cfg()
        serial = self._serial(table, cfg)
        fleet = ReaderFleet(num_readers, cfg, executor="inprocess")
        got = fleet.run_epoch(table, ["p"])
        assert serial  # the table must be big enough to mean something
        assert_batches_identical(got, serial)
        assert fleet.report.executor_used == "inprocess"

    @pytest.mark.parametrize("num_readers", [2, 4])
    def test_multiprocess_matches_serial(self, landed_table, num_readers):
        table, _ = landed_table(seed=2, stripe_rows=64)
        cfg = _plain_cfg()
        serial = self._serial(table, cfg)
        fleet = ReaderFleet(num_readers, cfg, executor="process")
        got = fleet.run_epoch(table, ["p"])
        assert_batches_identical(got, serial)
        assert fleet.report.executor_used == "process"

    def test_dedup_config_matches_serial(self, landed_table):
        table, _ = landed_table(clustered=True, seed=3, stripe_rows=64)
        cfg = _dedup_cfg()
        serial = self._serial(table, cfg)
        fleet = ReaderFleet(3, cfg, executor="inprocess")
        got = fleet.run_epoch(table, ["p"])
        assert serial and all(b.ikjts for b in serial)
        assert_batches_identical(got, serial)

    def test_max_batches_matches_serial_prefix(self, landed_table):
        table, _ = landed_table(seed=4, stripe_rows=64)
        cfg = _plain_cfg()
        serial = self._serial(table, cfg)
        fleet = ReaderFleet(4, cfg, executor="inprocess")
        got = fleet.run_epoch(table, ["p"], max_batches=3)
        assert_batches_identical(got, serial[:3])

    def test_max_batches_zero_yields_nothing(self, landed_table):
        """The serial reader and the fleet must agree on a zero cap."""
        table, _ = landed_table(seed=4, stripe_rows=64)
        cfg = _plain_cfg()
        assert self._serial(table, cfg, max_batches=0) == []
        fleet = ReaderFleet(2, cfg, executor="inprocess")
        assert fleet.run_epoch(table, ["p"], max_batches=0) == []

    def test_partition_smaller_than_batch(self, landed_table):
        table, samples = landed_table(seed=5, sessions=2)
        cfg = _plain_cfg(batch_size=len(samples) + 10)
        fleet = ReaderFleet(2, cfg, executor="inprocess")
        assert fleet.run_epoch(table, ["p"]) == []
        assert fleet.report.merged.batches == 0

    def test_validation(self):
        """Bad widths fail at construction with a clear message — never
        deep inside shard planning."""
        with pytest.raises(ValueError, match="num_readers.*got 0"):
            ReaderFleet(0, _plain_cfg())
        with pytest.raises(ValueError, match="num_readers.*got -3"):
            ReaderFleet(-3, _plain_cfg())
        with pytest.raises(ValueError):
            ReaderFleet(2, _plain_cfg(), executor="threads")


# -- real worker failures ----------------------------------------------------


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the children must inherit the monkeypatches",
)
class TestProcessWorkerFailure:
    """A ``process`` worker that dies, raises, or cannot start surfaces
    in the parent as a ``RuntimeError`` naming it — never a hang, never
    a quiet in-process rerun — and no child outlives the scan."""

    @staticmethod
    def _scan(table, batch_size=16):
        # 16-row batches: ~30 per shard, so a worker bounded two
        # batches ahead of the merge loop is mid-shard for a long time
        fleet = ReaderFleet(
            2, _plain_cfg(batch_size=batch_size), executor="process"
        )
        return fleet.iter_epoch(table, ["p"])

    @pytest.mark.parametrize(
        "sessions, batch_size",
        [
            # small batches fit the pipe: the victim dies blocked on its
            # full prefetch queue, between messages
            (60, 16),
            # ~85 KB batches overflow the pipe buffer: the victim dies
            # mid-write, leaving half a message for the parent to read
            (400, 512),
        ],
    )
    def test_sigkilled_worker_is_named_within_deadline(
        self, landed_table, sessions, batch_size
    ):
        table, _ = landed_table(seed=2, sessions=sessions, stripe_rows=64)
        stream = self._scan(table, batch_size)
        next(stream)  # both workers are up and ahead of the merge loop
        time.sleep(0.2)  # ...and blocked: queue full, or pipe full
        victim = next(
            p
            for p in multiprocessing.active_children()
            if p.name == "reader-shard-0"
        )
        os.kill(victim.pid, signal.SIGKILL)
        killed = time.monotonic()
        with pytest.raises(
            RuntimeError,
            match=r"reader worker reader-shard-0 exited \(exitcode=-9\)",
        ):
            for _ in stream:
                pass
        assert time.monotonic() - killed < 5.0
        assert multiprocessing.active_children() == []

    def test_raising_worker_surfaces_type_and_message(
        self, landed_table, monkeypatch
    ):
        table, _ = landed_table(seed=2, stripe_rows=64)
        real_run = ReaderNode.run

        def run(self, readers, **window):
            batches = real_run(self, readers, **window)
            yield next(batches)
            raise LookupError("stripe 3 went missing")

        monkeypatch.setattr(ReaderNode, "run", run)
        with pytest.raises(
            RuntimeError,
            match="reader worker reader-shard-0 failed: "
            "LookupError: stripe 3 went missing",
        ):
            for _ in self._scan(table):
                pass
        assert multiprocessing.active_children() == []

    def test_unstartable_worker_is_an_error_not_a_fallback(
        self, landed_table, monkeypatch
    ):
        table, _ = landed_table(seed=2, stripe_rows=64)

        def start(self):
            raise OSError("semaphores unavailable")

        monkeypatch.setattr(
            multiprocessing.get_context("fork").Process, "start", start
        )
        with pytest.raises(
            RuntimeError, match="cannot start reader worker reader-shard-0"
        ) as exc:
            next(self._scan(table))
        assert isinstance(exc.value.__cause__, OSError)
        assert "semaphores unavailable" in str(exc.value)
        assert multiprocessing.active_children() == []


# -- report merging ----------------------------------------------------------


def _report(fill, convert, process, samples, batches, read_b, send_b):
    return ReaderReport(
        cpu=ReaderCpuBreakdown(fill=fill, convert=convert, process=process),
        samples=samples,
        batches=batches,
        bytes=ByteLedger(read=read_b, decoded=send_b),
    )


class TestReportMerging:
    def test_reader_report_merge_arithmetic(self):
        a = _report(1.0, 2.0, 3.0, 100, 2, 10_000, 5_000)
        b = _report(0.5, 0.25, 0.75, 60, 1, 4_000, 2_500)
        a.bytes.expanded, b.bytes.expanded = 9_000, 2_500
        a.bytes.copied, b.bytes.avoided = 5_000, 2_500
        a.batch_event_times, b.batch_event_times = [1.0, 2.0], [3.0]
        a.merge(b)
        assert a.cpu.fill == pytest.approx(1.5)
        assert a.cpu.convert == pytest.approx(2.25)
        assert a.cpu.process == pytest.approx(3.75)
        assert a.samples == 160
        assert a.batches == 3
        assert a.bytes == ByteLedger(
            read=14_000,
            decoded=7_500,
            expanded=11_500,
            copied=5_000,
            avoided=2_500,
        )
        assert a.bytes.saved == 4_000
        assert a.bytes.dedupe_factor == pytest.approx(11_500 / 7_500)
        assert a.batch_event_times == [1.0, 2.0, 3.0]
        # the merged-in report is left as it was
        assert b.bytes.decoded == 2_500 and b.batch_event_times == [3.0]
        assert a.samples_per_cpu_second == pytest.approx(160 / 7.5)

    def test_fleet_report_merged_and_modeled_wall(self):
        rep = FleetReport(
            workers=[
                _report(1.0, 0.0, 0.0, 100, 2, 1, 1),
                _report(3.0, 0.0, 0.0, 200, 4, 2, 2),
            ]
        )
        merged = rep.merged
        assert merged.samples == 300
        assert merged.batches == 6
        assert merged.cpu.total == pytest.approx(4.0)
        # the fleet finishes with its straggler (3.0s), not the sum
        assert rep.modeled_wall_seconds == pytest.approx(3.0)
        assert rep.modeled_samples_per_second == pytest.approx(300 / 3.0)

    def test_empty_fleet_report(self):
        rep = FleetReport()
        assert rep.merged.samples == 0
        assert rep.modeled_wall_seconds == 0.0
        assert rep.modeled_samples_per_second == 0.0

    def test_queue_wait_breakdown(self):
        q = QueueWaitBreakdown(put_wait=0.5, get_wait=1.5)
        assert q.total == pytest.approx(2.0)
        q.merge(QueueWaitBreakdown(put_wait=0.25, get_wait=0.75))
        assert q.put_wait == pytest.approx(0.75)
        assert q.get_wait == pytest.approx(2.25)

    def test_run_populates_worker_reports(self, landed_table):
        table, samples = landed_table(seed=6, stripe_rows=64)
        cfg = _plain_cfg()
        fleet = ReaderFleet(3, cfg, executor="inprocess")
        batches = fleet.run_epoch(table, ["p"])
        rep = fleet.report
        assert len(rep.workers) == rep.num_shards > 1
        merged = rep.merged
        assert merged.batches == len(batches)
        assert merged.samples == sum(b.batch_size for b in batches)
        assert merged.samples == cfg.batch_size * len(batches)
        # sharding parallelism: the modeled fleet latency beats one node
        assert rep.modeled_wall_seconds < merged.cpu.total
        assert rep.wall_seconds > 0.0
