"""Tests for multi-partition epochs: the cross-partition shard plan and
the fleet's epoch iterator being bit-identical to serial per-partition
scans at every fleet width."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.reader import (
    DataLoaderConfig,
    ReaderFleet,
    ReaderNode,
    plan_epoch,
)
from tests.conftest import land_samples, make_reader_schema, make_trace
from tests.reader.test_fleet import assert_batches_identical


def _plain_cfg(batch_size=48):
    return DataLoaderConfig(
        batch_size=batch_size,
        sparse_features=("hist", "item"),
        dense_features=("d",),
        transforms=("hash_modulo",),
    )


def _landed_multi(num_partitions=3, sessions=90, seed=0):
    """One table with ``num_partitions`` contiguous chunks of a trace."""
    schema = make_reader_schema()
    samples = make_trace(schema, sessions=sessions, seed=seed)
    table = land_samples(schema, samples[: len(samples) // num_partitions])
    # land_samples lands partition "p"; rename flow: land the rest here
    names = ["p"]
    chunk = len(samples) // num_partitions
    for i in range(1, num_partitions):
        lo = i * chunk
        hi = len(samples) if i == num_partitions - 1 else (i + 1) * chunk
        table.land_partition(f"p{i}", samples[lo:hi])
        names.append(f"p{i}")
    return table, names


# -- plan_epoch --------------------------------------------------------------


class TestPlanEpoch:
    @given(
        rows=st.lists(
            st.integers(min_value=0, max_value=2000), min_size=1, max_size=5
        ),
        batch_size=st.integers(min_value=1, max_value=128),
        num_shards=st.integers(min_value=1, max_value=8),
    )
    def test_property_per_partition_coverage(
        self, rows, batch_size, num_shards
    ):
        """Every partition is fully covered by its own contiguous shards,
        and shard indices increase globally across the epoch."""
        parts = [(f"p{i}", n) for i, n in enumerate(rows)]
        plan = plan_epoch(parts, batch_size, num_shards)
        assert [name for name, _ in plan] == [name for name, _ in parts]
        next_index = 0
        for (_, shards), (_, num_rows) in zip(plan, parts):
            if num_rows < batch_size:
                # sub-batch partitions spawn no scan-and-drop workers
                assert shards == []
                continue
            pos = 0
            for s in shards:
                assert s.index == next_index
                next_index += 1
                assert s.row_start == pos
                pos = s.row_stop
            assert pos == num_rows  # full coverage of the partition
            assert len(shards) <= num_shards

    @given(
        rows=st.lists(
            st.integers(min_value=0, max_value=2000), min_size=1, max_size=5
        ),
        batch_size=st.integers(min_value=1, max_value=128),
        num_shards=st.integers(min_value=1, max_value=8),
        max_batches=st.integers(min_value=0, max_value=30),
    )
    def test_property_epoch_budget(
        self, rows, batch_size, num_shards, max_batches
    ):
        """The max_batches budget is global and spent in partition order."""
        parts = [(f"p{i}", n) for i, n in enumerate(rows)]
        plan = plan_epoch(parts, batch_size, num_shards, max_batches)
        total_available = sum(n // batch_size for n in rows)
        planned = sum(
            s.num_rows // batch_size for _, shards in plan for s in shards
        )
        assert planned == min(max_batches, total_available)
        # partition order: once a later partition plans a batch, every
        # earlier partition's full batches must already be planned
        seen_short = False
        for (_, shards), (_, num_rows) in zip(plan, parts):
            got = sum(s.num_rows // batch_size for s in shards)
            if seen_short:
                assert got == 0
            if got < num_rows // batch_size:
                seen_short = True

    def test_single_partition_matches_plan_shards(self):
        from repro.reader import plan_shards

        assert plan_epoch([("p0", 250)], 32, 3) == [
            ("p0", plan_shards(250, 32, 3))
        ]

    def test_exhausted_budget_skips_small_partitions(self):
        # 2 batches in p0 exhaust the budget; p1 (sub-batch) must not
        # plan even a zero-batch scan shard
        plan = plan_epoch([("p0", 64), ("p1", 10)], 32, 2, max_batches=2)
        assert plan[0][1][-1].row_stop == 64
        assert plan[1] == ("p1", [])

    def test_sub_batch_partition_contributes_no_shards(self):
        """An undersized partition mid-epoch plans no worker at all; the
        partitions around it shard normally with contiguous indices."""
        plan = plan_epoch([("p0", 64), ("tiny", 10), ("p2", 96)], 32, 2)
        assert plan[1] == ("tiny", [])
        indices = [s.index for _, shards in plan for s in shards]
        assert indices == list(range(len(indices)))
        assert plan[2][1][0].row_start == 0  # p2 still covered from row 0
        assert plan[2][1][-1].row_stop == 96


# -- fleet epoch determinism -------------------------------------------------


class TestIterEpochDeterminism:
    def _serial_epoch(self, table, cfg, names, max_batches=None):
        """Scan each partition serially, in order — the reference."""
        out = []
        for name in names:
            node = ReaderNode(cfg)
            remaining = (
                None if max_batches is None else max_batches - len(out)
            )
            if remaining is not None and remaining <= 0:
                break
            out.extend(
                node.run_all(table.open_readers(name), max_batches=remaining)
            )
        return out

    @pytest.mark.parametrize("num_readers", [1, 2, 4])
    def test_inprocess_matches_serial(self, num_readers):
        table, names = _landed_multi(seed=7)
        cfg = _plain_cfg()
        serial = self._serial_epoch(table, cfg, names)
        fleet = ReaderFleet(num_readers, cfg, executor="inprocess")
        got = fleet.run_epoch(table, names)
        assert len(serial) > len(names)  # multiple batches per partition
        assert_batches_identical(got, serial)

    @pytest.mark.parametrize("num_readers", [2, 4])
    def test_multiprocess_matches_serial(self, num_readers):
        table, names = _landed_multi(seed=8)
        cfg = _plain_cfg()
        serial = self._serial_epoch(table, cfg, names)
        fleet = ReaderFleet(num_readers, cfg, executor="process")
        got = fleet.run_epoch(table, names)
        assert_batches_identical(got, serial)
        assert fleet.report.executor_used == "process"

    def test_epoch_budget_matches_serial_prefix(self):
        table, names = _landed_multi(seed=9)
        cfg = _plain_cfg()
        serial = self._serial_epoch(table, cfg, names)
        fleet = ReaderFleet(3, cfg, executor="inprocess")
        cap = len(serial) - 1  # forces the cap to land mid-epoch
        got = fleet.run_epoch(table, names, max_batches=cap)
        assert_batches_identical(got, serial[:cap])

    def test_single_partition_epoch_equals_iter_batches(self):
        table, names = _landed_multi(num_partitions=1, seed=10)
        cfg = _plain_cfg()
        fleet = ReaderFleet(2, cfg, executor="inprocess")
        via_epoch = fleet.run_epoch(table, names)
        assert_batches_identical(via_epoch, self._serial_epoch(table, cfg, names))

    def test_report_spans_partitions(self):
        table, names = _landed_multi(seed=11)
        cfg = _plain_cfg()
        fleet = ReaderFleet(2, cfg, executor="inprocess")
        batches = fleet.run_epoch(table, names)
        rep = fleet.report
        assert rep.merged.batches == len(batches)
        assert rep.num_shards == len(rep.workers)
        assert rep.wall_seconds > 0.0


class TestNonLivePartitionErrors:
    """A dead epoch plan must name each offending partition, say *why*
    it is not live, and show the current live window."""

    def test_never_landed_partition_is_named(self):
        table, names = _landed_multi(seed=12)
        fleet = ReaderFleet(2, _plain_cfg(), executor="inprocess")
        with pytest.raises(KeyError) as err:
            list(fleet.iter_epoch(table, [*names, "p99"]))
        message = str(err.value)
        assert "'p99' (never landed)" in message
        assert f"current live window: {names}" in message

    def test_retention_dropped_partition_is_distinguished(self):
        table, names = _landed_multi(seed=13)
        table.drop_partition(names[0])
        fleet = ReaderFleet(2, _plain_cfg(), executor="inprocess")
        with pytest.raises(KeyError) as err:
            list(fleet.iter_epoch(table, names))
        message = str(err.value)
        assert f"{names[0]!r} (dropped by retention)" in message
        assert f"current live window: {names[1:]}" in message
