"""The async-executor equivalence wall.

The ``"async"`` executor is a single-process coroutine scheduler: it
interleaves every shard worker deterministically, models the bounded
prefetch queues virtually, and must be *bit-identical* to the other two
executors — batches, losses, and the merged byte accounting — at every
width, with and without session dedup, and under injected faults.  These
tests are that wall, plus the zero-copy transport accounting
(``copy`` charges ``bytes.copied`` and queue transport wait, ``shm``
records ``bytes.avoided`` and charges nothing).
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
from repro.reader import FleetFaults, ReaderFleet
from repro.reader.fleet import FleetReport

from .test_fleet import _dedup_cfg, _plain_cfg, assert_batches_identical

WIDTHS = (1, 2, 4, 8)


def _fleet(width, cfg, **kw):
    return ReaderFleet(width, cfg, **kw)


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


class TestAsyncEquivalence:
    """Batches and accounting bit-identical across all three executors."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("dedup", [False, True])
    def test_async_matches_inprocess(self, landed_table, width, dedup):
        table, _ = landed_table(clustered=dedup, seed=11, stripe_rows=64)
        cfg = _dedup_cfg() if dedup else _plain_cfg()
        ref = _fleet(width, cfg, executor="inprocess")
        want = ref.run(table, "p")
        assert want  # the wall must actually exercise batches
        fleet = _fleet(width, cfg, executor="async")
        got = fleet.run(table, "p")
        assert_batches_identical(got, want)
        assert fleet.report.executor_used == "async"
        assert _accounting(fleet.report) == _accounting(ref.report)

    @pytest.mark.parametrize("width", [2, 4])
    def test_async_matches_process(self, landed_table, width):
        table, _ = landed_table(seed=12, stripe_rows=64)
        cfg = _plain_cfg()
        proc = _fleet(width, cfg, executor="process")
        want = proc.run(table, "p")
        fleet = _fleet(width, cfg, executor="async")
        got = fleet.run(table, "p")
        assert_batches_identical(got, want)
        assert proc.report.executor_used == "process"
        assert _accounting(fleet.report) == _accounting(proc.report)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_max_batches_prefix(self, landed_table, width):
        table, _ = landed_table(seed=13, stripe_rows=64)
        cfg = _plain_cfg()
        want = _fleet(1, cfg, executor="inprocess").run(table, "p")
        fleet = _fleet(width, cfg, executor="async")
        got = fleet.run(table, "p", max_batches=3)
        assert_batches_identical(got, want[:3])


class TestAsyncFaults:
    """Fault injection runs natively on the async executor and lands the
    exact same perturbed accounting as the in-process executor."""

    FAULTS = FleetFaults(
        crashed_shards=(0,),
        straggler_factors={1: 3.0},
        lost_fraction=0.6,
    )

    def test_faulted_reports_bit_identical(self, landed_table):
        table, _ = landed_table(seed=14, stripe_rows=64)
        cfg = _plain_cfg()
        ref = _fleet(4, cfg, executor="inprocess", faults=self.FAULTS)
        want = ref.run(table, "p")
        fleet = _fleet(4, cfg, executor="async", faults=self.FAULTS)
        got = fleet.run(table, "p")
        assert_batches_identical(got, want)
        # every worker's full report — wasted CPU, straggler dilation,
        # crash respawn arithmetic — must match field for field
        assert [w.as_dict() for w in fleet.report.workers] == [
            w.as_dict() for w in ref.report.workers
        ]
        # faults stay on the requested executor instead of being forced
        # onto the serial one
        assert fleet.report.executor_used == "async"
        assert ref.report.executor_used == "inprocess"


class TestTransportAccounting:
    """copy charges bytes + queue wait; shm records avoided copies."""

    @pytest.mark.parametrize("executor", ["inprocess", "async"])
    def test_copy_charges_bytes_and_wait(self, landed_table, executor):
        table, _ = landed_table(seed=15, stripe_rows=64)
        fleet = _fleet(
            3, _plain_cfg(), executor=executor, transport="copy"
        )
        fleet.run(table, "p")
        merged = fleet.report.merged
        assert merged.bytes.copied == merged.bytes.decoded > 0
        assert merged.bytes.avoided == 0
        assert fleet.report.queue.transport > 0.0

    @pytest.mark.parametrize("executor", ["inprocess", "async"])
    def test_shm_avoids_every_copy(self, landed_table, executor):
        table, _ = landed_table(seed=15, stripe_rows=64)
        fleet = _fleet(3, _plain_cfg(), executor=executor, transport="shm")
        fleet.run(table, "p")
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
        copy = _fleet(4, cfg, executor="async", transport="copy")
        shm = _fleet(4, cfg, executor="async", transport="shm")
        assert_batches_identical(
            copy.run(table, "p"), shm.run(table, "p")
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
    """End-to-end: the training loss trajectory is executor-invariant."""

    def _spec(self, executor, *, width, dedup=False, transport="copy"):
        return JobSpec(
            data=DataSpec(
                workload=rm1(scale=0.25), num_sessions=80, seed=21
            ),
            reader=ReaderSpec(
                num_readers=width,
                executor=executor,
                dedup=dedup,
                transport=transport,
            ),
            train=TrainSpec(
                train_epochs=2, train_batches=None, batch_size=16
            ),
        )

    @pytest.mark.parametrize("width", [1, 8])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_async_losses_match_inprocess(self, width, dedup):
        ref = Session(
            self._spec("inprocess", width=width, dedup=dedup)
        ).run()
        got = Session(self._spec("async", width=width, dedup=dedup)).run()
        assert got.training.losses == ref.training.losses
        assert got.training.losses

    def test_shm_losses_match_copy(self):
        ref = Session(self._spec("async", width=4, transport="copy")).run()
        got = Session(self._spec("async", width=4, transport="shm")).run()
        assert got.training.losses == ref.training.losses
