"""Bit-identity grid for the dedup hot path (``ReaderSpec.dedup``).

The acceptance bar for session-dedup as the streaming hot path: with
``dedup=True`` the fleet ships IKJT batches over the prefetch queues and
the trainer expands inverse indices *after* the pooled lookup — and the
loss trajectory must still be bit-identical to the fully-materialized
non-dedup baseline at every fleet width, on every executor, and under a
shared multi-job tier, while bytes-decoded strictly shrinks.
"""

import pytest

from repro.datagen import rm1, rm2
from repro.metrics import ByteLedger
from repro.pipeline import JobSpec, RecDToggles, Session
from repro.pipeline.spec import DataSpec, ReaderSpec, TrainSpec

#: storage-side layout toggles only (O1+O2): duplicates become
#: batch-local, and the trainer-side path stays toggle-baseline so the
#: dedup knob is the only thing the A/B flips.
LAYOUT = RecDToggles(o1_shard_by_session=True, o2_cluster_table=True)

WIDTHS = (1, 2, 4)
EXECUTORS = ("inprocess", "process")


def _spec(
    *,
    dedup: bool,
    width: int = 2,
    executor: str = "inprocess",
    streaming: bool = True,
    workload=None,
    seed: int = 3,
    epochs: int = 2,
) -> JobSpec:
    return JobSpec(
        data=DataSpec(
            workload=workload if workload is not None else rm1(scale=0.25),
            toggles=LAYOUT,
            num_sessions=60,
            seed=seed,
        ),
        reader=ReaderSpec(
            num_readers=width,
            executor=executor,
            streaming=streaming,
            dedup=dedup,
        ),
        train=TrainSpec(train_epochs=epochs, train_batches=2, batch_size=32),
    )


class TestSingleJobGrid:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_dedup_streaming_matches_materialized_baseline(
        self, width, executor
    ):
        """width x executor: deduped streaming losses == materialized
        non-dedup losses, bit for bit, with strictly fewer decoded
        bytes for the same expanded payload."""
        dedup = Session(
            _spec(dedup=True, width=width, executor=executor)
        ).run()
        base = Session(
            _spec(
                dedup=False, width=width, executor=executor, streaming=False
            )
        ).run()
        assert dedup.training.losses == base.training.losses
        # bytes-decoded strictly shrinks; the expanded payload is the
        # baseline's wire payload, byte for byte.
        assert dedup.reader.bytes.decoded < base.reader.bytes.decoded
        assert dedup.reader.bytes.expanded == base.reader.bytes.decoded
        assert base.reader.bytes.expanded == base.reader.bytes.decoded
        assert dedup.reader.bytes.saved > 0
        assert dedup.reader.bytes.dedupe_factor > 1.0

    @pytest.mark.parametrize("width", WIDTHS)
    def test_width_invariance_of_dedup_stream(self, width):
        """Every width ships the same batch stream: losses and byte
        totals match the width-1 dedup run exactly."""
        one = Session(_spec(dedup=True, width=1)).run()
        res = Session(_spec(dedup=True, width=width)).run()
        assert res.training.losses == one.training.losses
        assert res.reader.bytes.decoded == one.reader.bytes.decoded
        assert res.reader.bytes.expanded == one.reader.bytes.expanded

    def test_reader_report_carries_byte_accounting(self):
        res = Session(_spec(dedup=True)).run()
        ledger = res.reader.bytes
        assert ledger == res.fleet.merged.bytes
        assert 0 < ledger.decoded < ledger.expanded
        assert ledger.saved == ledger.expanded - ledger.decoded
        assert ledger.dedupe_factor == pytest.approx(
            ledger.expanded / ledger.decoded
        )

    def test_dedup_knob_does_not_change_batch_size_or_layout(self):
        """The knob flips transport/compute only — effective batch size
        and landed bytes stay the non-dedup baseline's."""
        dedup_spec = _spec(dedup=True)
        base_spec = _spec(dedup=False)
        assert dedup_spec.effective_batch_size == (
            base_spec.effective_batch_size
        )
        dedup = Session(dedup_spec).run()
        base = Session(base_spec).run()
        assert dedup.samples_landed == base.samples_landed
        assert dedup.partition.compressed_bytes == (
            base.partition.compressed_bytes
        )
        assert dedup.reader.bytes.read == base.reader.bytes.read


class TestSharedTierGrid:
    def test_shared_tier_dedup_matches_solo_materialized(self):
        """Two jobs multiplexed on one dedup tier train bit-identically
        to their solo materialized non-dedup runs."""
        specs = [
            _spec(dedup=True, workload=rm1(scale=0.25), seed=3),
            _spec(dedup=True, workload=rm2(scale=0.25), seed=4),
        ]
        tier = Session(specs, width=4, names=["alpha", "beta"]).run()
        for name, spec in zip(["alpha", "beta"], specs):
            solo = Session(
                spec.with_(
                    reader=ReaderSpec(
                        num_readers=2, streaming=False, dedup=False
                    )
                )
            ).run()
            assert (
                tier.job(name).training.losses == solo.training.losses
            )

    def test_shared_tier_byte_accounting_shrinks_under_dedup(self):
        def run(dedup: bool):
            specs = [
                _spec(dedup=dedup, workload=rm1(scale=0.25), seed=3),
                _spec(dedup=dedup, workload=rm2(scale=0.25), seed=4),
            ]
            return Session(specs, width=4, names=["alpha", "beta"]).run()

        deduped, base = run(True), run(False)
        for name in ("alpha", "beta"):
            d = deduped.job(name).reader.bytes
            b = base.job(name).reader.bytes
            assert (
                deduped.job(name).training.losses
                == base.job(name).training.losses
            )
            assert d.decoded < b.decoded
            assert d.expanded == b.decoded
            assert d.dedupe_factor > 1.0
        agg_d, agg_b = (
            ByteLedger.fold(job.reader.bytes for job in run.jobs)
            for run in (deduped, base)
        )
        assert agg_d.decoded < agg_b.decoded
        assert agg_d.expanded == agg_b.expanded
