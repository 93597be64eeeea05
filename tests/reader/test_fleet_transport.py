"""The fleet's executors agree, and the batch transport is pure accounting.

``"inprocess"`` and ``"process"`` must agree on the merged byte
accounting at every width (``test_fleet.py`` already pins each one's
batches against the serial reader).  The in-process schedule has no
queue, so it reports no queue waits; its transport charge, bytes and
worker CPU are the forked workers'.  The batch transport must be pure
cost-model bookkeeping: ``copy`` charges ``bytes.copied`` and queue transport
wait, ``shm`` records ``bytes.avoided`` and charges nothing, and
neither changes a batch or a loss.
"""

import pytest

from repro.datagen.workloads import rm1
from repro.pipeline.session import Session
from repro.pipeline.spec import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    TrainSpec,
    TransportSpec,
)
from repro.reader import ReaderFleet
from repro.reader.fleet import EXECUTORS, FleetReport

from .test_fleet import _dedup_cfg, _plain_cfg, assert_batches_identical

WIDTHS = (1, 2, 4, 8)


def _accounting(report):
    """The merged counters that must agree across executors."""
    m = report.merged
    return (
        m.samples,
        m.batches,
        m.bytes.read,
        m.bytes.decoded,
        m.bytes.copied,
        m.bytes.avoided,
        report.num_shards,
    )


class TestExecutorEquivalence:
    @pytest.mark.parametrize("width", [2, 4])
    def test_inprocess_accounting_matches_process(self, landed_table, width):
        table, _ = landed_table(seed=12, stripe_rows=64)
        cfg = _plain_cfg()
        proc = ReaderFleet(width, cfg, executor="process")
        proc.run_epoch(table, ["p"])
        fleet = ReaderFleet(width, cfg)
        fleet.run_epoch(table, ["p"])
        assert proc.report.executor_used == "process"
        assert _accounting(fleet.report) == _accounting(proc.report)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_max_batches_prefix(self, landed_table, width):
        table, _ = landed_table(seed=13, stripe_rows=64)
        cfg = _plain_cfg()
        want = ReaderFleet(1, cfg).run_epoch(table, ["p"])
        got = ReaderFleet(width, cfg).run_epoch(table, ["p"], max_batches=3)
        assert_batches_identical(got, want[:3])


class TestInprocessHasNoQueue:
    """The serial schedule models no queue: zero waits, and every other
    queue and worker figure equal to the forked executor's."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("dedup", [False, True])
    def test_zero_waits_same_transport_bytes_and_cpu(
        self, landed_table, width, dedup
    ):
        table, _ = landed_table(clustered=dedup, seed=11, stripe_rows=64)
        cfg = _dedup_cfg() if dedup else _plain_cfg()
        fleet = ReaderFleet(width, cfg)
        proc = ReaderFleet(width, cfg, executor="process")
        assert_batches_identical(
            fleet.run_epoch(table, ["p"]), proc.run_epoch(table, ["p"])
        )
        queue = fleet.report.queue
        assert queue.put_wait == queue.get_wait == 0.0
        assert queue.transport == proc.report.queue.transport > 0.0
        assert [w.as_dict() for w in fleet.report.workers] == [
            w.as_dict() for w in proc.report.workers
        ]
        assert fleet.report.merged.bytes == proc.report.merged.bytes


class TestTransportAccounting:
    """copy charges bytes + queue wait; shm records avoided copies."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_copy_charges_bytes_and_wait(self, landed_table, executor):
        table, _ = landed_table(seed=15, stripe_rows=64)
        fleet = ReaderFleet(
            3, _plain_cfg(), executor=executor, transport="copy"
        )
        fleet.run_epoch(table, ["p"])
        merged = fleet.report.merged
        assert merged.bytes.copied == merged.bytes.decoded > 0
        assert merged.bytes.avoided == 0
        assert fleet.report.queue.transport > 0.0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_shm_avoids_every_copy(self, landed_table, executor):
        table, _ = landed_table(seed=15, stripe_rows=64)
        fleet = ReaderFleet(
            3, _plain_cfg(), executor=executor, transport="shm"
        )
        fleet.run_epoch(table, ["p"])
        merged = fleet.report.merged
        assert merged.bytes.avoided == merged.bytes.decoded > 0
        assert merged.bytes.copied == 0
        assert fleet.report.queue.transport == 0.0
        # zero transport charge: delivery never floors below decode
        assert (
            fleet.report.modeled_delivered_wall_seconds
            == fleet.report.modeled_wall_seconds
        )

    def test_transport_never_changes_batches(self, landed_table):
        table, _ = landed_table(seed=16, stripe_rows=64)
        cfg = _plain_cfg()
        copy = ReaderFleet(4, cfg, transport="copy")
        shm = ReaderFleet(4, cfg, transport="shm")
        assert_batches_identical(
            copy.run_epoch(table, ["p"]), shm.run_epoch(table, ["p"])
        )

    def test_delivered_wall_floors_at_transport(self):
        rep = FleetReport()
        rep.queue.transport = 5.0
        assert rep.modeled_delivered_wall_seconds == 5.0

    def test_transport_spec_validation(self):
        assert TransportSpec("copy").charges
        assert not TransportSpec("shm").charges
        with pytest.raises(ValueError, match="mode"):
            TransportSpec("rdma")
        with pytest.raises(TypeError):
            TransportSpec.coerce(42)


class TestSessionLossIdentity:
    """End-to-end: the training loss trajectory is invariant to the
    transport."""

    def _spec(self, transport="copy"):
        return JobSpec(
            data=DataSpec(
                workload=rm1(scale=0.25), num_sessions=80, seed=21
            ),
            reader=ReaderSpec(num_readers=4, transport=transport),
            train=TrainSpec(
                train_epochs=2, train_batches=None, batch_size=16
            ),
        )

    def test_shm_losses_match_copy(self):
        ref = Session(self._spec("copy")).run()
        got = Session(self._spec("shm")).run()
        assert got.training.losses == ref.training.losses
        assert got.training.losses
