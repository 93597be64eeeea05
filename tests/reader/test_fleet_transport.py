"""The fleet's executors agree, and the batch transport is pure accounting.

``"inprocess"`` and ``"process"`` must agree on the merged byte
accounting at every width (``test_fleet.py`` already pins each one's
batches against the serial reader).  The in-process schedule always
runs its modeled queue clock, so its prefetch-queue waits are real,
bit-reproducible figures rather than zeros, and they never reach a
batch or a loss.  The batch transport must be pure cost-model
bookkeeping: ``copy`` charges ``bytes.copied`` and queue transport
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


class TestSerialQueueClock:
    """The in-process schedule's modeled queue waits: never zero by
    construction, reproducible to the bit, bounded by the work."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("dedup", [False, True])
    def test_waits_are_modeled_and_reproducible(
        self, landed_table, width, dedup
    ):
        table, _ = landed_table(clustered=dedup, seed=11, stripe_rows=64)
        cfg = _dedup_cfg() if dedup else _plain_cfg()
        fleet = ReaderFleet(width, cfg)
        got = fleet.run_epoch(table, ["p"])
        again = ReaderFleet(width, cfg)
        assert_batches_identical(again.run_epoch(table, ["p"]), got)
        assert got  # the clock must actually see batches
        queue = fleet.report.queue
        # the consumer waits for the first batch of the epoch at least
        assert queue.get_wait > 0.0
        assert queue.put_wait >= 0.0
        # the consumer idles at most for the whole serialized scan
        assert queue.get_wait <= (
            fleet.report.merged.cpu.total + queue.transport
        )
        assert queue.as_dict() == again.report.queue.as_dict()
        assert [w.as_dict() for w in fleet.report.workers] == [
            w.as_dict() for w in again.report.workers
        ]
        assert fleet.report.executor_used == "inprocess"


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
    transport and to the prefetch depth the queue clock models."""

    def _spec(self, transport="copy", *, width=4, depth=2, dedup=False):
        return JobSpec(
            data=DataSpec(
                workload=rm1(scale=0.25), num_sessions=80, seed=21
            ),
            reader=ReaderSpec(
                num_readers=width,
                prefetch_depth=depth,
                transport=transport,
                dedup=dedup,
            ),
            train=TrainSpec(
                train_epochs=2, train_batches=None, batch_size=16
            ),
        )

    @pytest.mark.parametrize("width", [1, 8])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_queue_clock_never_reaches_losses(self, width, dedup):
        ref = Session(self._spec(width=width, dedup=dedup)).run()
        got = Session(self._spec(width=width, depth=1, dedup=dedup)).run()
        assert got.training.losses == ref.training.losses
        assert got.training.losses
        # a solo in-process run reports its modeled waits, not zeros
        assert ref.fleet.queue.get_wait > 0.0

    def test_shm_losses_match_copy(self):
        ref = Session(self._spec("copy")).run()
        got = Session(self._spec("shm")).run()
        assert got.training.losses == ref.training.losses
        assert got.training.losses
