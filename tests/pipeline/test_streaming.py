"""Tests for the streaming reader→trainer path: bit-identical training
under streaming vs materialized ingestion, multi-partition epochs, the
overlap attribution, and the fail-fast undersized-partition check."""

import pytest

import repro.reader.tier_scheduler as tier_mod
from repro.datagen import rm1
from repro.pipeline import DataSpec, JobSpec, ReaderSpec, Session, TrainSpec


def _spec(
    *,
    num_readers: int = 1,
    streaming: bool = True,
    num_partitions: int = 1,
    train_epochs: int = 1,
    train_batches: int = 3,
    num_sessions: int = 120,
    batch_size: int = 128,
) -> JobSpec:
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.25),
            num_sessions=num_sessions,
            num_partitions=num_partitions,
            seed=3,
        ),
        reader=ReaderSpec(num_readers=num_readers, streaming=streaming),
        train=TrainSpec(
            train_epochs=train_epochs,
            train_batches=train_batches,
            batch_size=batch_size,
        ),
    )


class TestStreamingEquivalence:
    @pytest.mark.parametrize("num_readers", [1, 2, 4])
    def test_streaming_losses_bit_identical(self, run_of, num_readers):
        """The acceptance bar: a streaming run must produce
        bit-identical TrainingReport losses to the materialized path at
        every fleet width, and both must report overlap fractions."""
        streamed = run_of(_spec(num_readers=num_readers))
        materialized = run_of(
            _spec(num_readers=num_readers, streaming=False)
        )
        assert streamed.training.losses == materialized.training.losses
        for res in (streamed, materialized):
            ov = res.overlap
            assert ov is not None
            assert 0.0 <= ov.reader_stall_fraction <= 1.0
            assert 0.0 <= ov.trainer_stall_fraction <= 1.0
        assert streamed.spec.reader.streaming
        assert not materialized.spec.reader.streaming

    def test_fractions_sum_to_one(self, run_of):
        res = run_of(_spec(num_readers=2))
        assert sum(res.overlap.fractions.values()) == pytest.approx(1.0)
        assert res.reader.batches == len(res.training.iterations)

    def test_streaming_measures_ingest_waits(self, run_of):
        """Streaming hands the trainer a live iterator, so some wall
        time is spent pulling batches; the materialized path shows
        essentially none."""
        streamed = run_of(_spec(num_readers=2))
        materialized = run_of(_spec(num_readers=2, streaming=False))
        assert streamed.training.ingest_wait_seconds > 0.0
        assert (
            materialized.overlap.reader_stall_fraction
            <= streamed.overlap.reader_stall_fraction
        )
        # both modes attribute the same end-to-end loop, so the
        # materialized run's serialized reader scan must be visible as
        # non-overlapped "other" time rather than vanishing from the A/B
        assert materialized.overlap.other_seconds > 0.0
        assert (
            materialized.overlap.wall_seconds
            > materialized.training.run_wall_seconds
        )


class TestMultiPartitionEpochs:
    def test_partitions_land_contiguously(self, run_of):
        res = run_of(_spec(num_partitions=3))
        assert len(res.partitions) == 3
        assert [p.name for p in res.partitions] == ["p0", "p1", "p2"]
        assert res.partition.num_rows == res.samples_landed
        assert (
            sum(p.num_rows for p in res.partitions) == res.samples_landed
        )

    def test_epoch_loop_multiplies_iterations(self, run_of):
        res = run_of(_spec(num_partitions=2, train_epochs=3, train_batches=2))
        assert len(res.training.iterations) == 6
        assert res.reader.batches == 6

    def test_multi_partition_prefix_matches_single(self, run_of):
        """Partitions are contiguous chunks of the same row order, so an
        epoch's first batches are bit-identical to the single-partition
        run's (the cap lands inside partition 0)."""
        single = run_of(_spec(num_partitions=1))
        multi = run_of(_spec(num_partitions=3))
        assert multi.training.losses == single.training.losses

    def test_multi_partition_streaming_equivalence(self, run_of):
        streamed, materialized = (
            run_of(
                _spec(
                    num_partitions=2,
                    train_epochs=2,
                    num_readers=2,
                    streaming=streaming,
                    train_batches=4,
                )
            )
            for streaming in (True, False)
        )
        assert streamed.training.losses == materialized.training.losses
        assert len(streamed.training.iterations) == 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataSpec(workload=rm1(scale=0.25), num_partitions=0)
        with pytest.raises(ValueError):
            TrainSpec(train_epochs=0)


class TestFailFastValidation:
    def test_too_small_fires_before_workers_spawn(self, monkeypatch):
        """The undersized-partition error must come from the landed
        metadata, not from running (and then discarding) reader
        workers."""

        class NoFleet:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "ReaderFleet constructed before size validation"
                )

        monkeypatch.setattr(tier_mod, "ReaderFleet", NoFleet)
        with pytest.raises(ValueError, match="too small"):
            Session(
                _spec(num_sessions=2, batch_size=100_000, train_batches=2)
            ).run()

    def test_zero_effective_batches_counts_every_partition(self, monkeypatch):
        """Each partition sub-batch-sized: no partition can fill a batch
        even though the total row count could."""

        class NoFleet:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "ReaderFleet constructed before size validation"
                )

        monkeypatch.setattr(tier_mod, "ReaderFleet", NoFleet)
        with pytest.raises(ValueError, match="partition"):
            Session(
                _spec(num_sessions=30, batch_size=200, num_partitions=8)
            ).run()