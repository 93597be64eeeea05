"""Tests for rolling-window partition retention: the land→train→age
lifecycle, the guarantee that epochs only ever scan live partitions,
and bit-identity of the retention-free path."""

import pytest

import repro.reader.fleet as fleet_mod
from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RetentionSpec,
    Session,
    TrainSpec,
)
from repro.streaming import plan_windows


def _spec(
    num_partitions: int,
    train_epochs: int,
    retain: int | None = None,
    *,
    num_readers: int = 1,
    streaming: bool = True,
    num_sessions: int = 120,
    batch_size: int = 128,
) -> JobSpec:
    """One job over a ``num_partitions``-day stream, ``retain`` days
    live at a time (``None`` keeps them all)."""
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.25),
            num_sessions=num_sessions,
            num_partitions=num_partitions,
            seed=3,
        ),
        reader=ReaderSpec(
            num_readers=num_readers,
            executor="inprocess",
            streaming=streaming,
        ),
        train=TrainSpec(
            train_epochs=train_epochs,
            train_batches=3,
            batch_size=batch_size,
        ),
        retention=(
            RetentionSpec(window=retain) if retain is not None else None
        ),
    )


class TestPlanRetentionWindows:
    def test_slides_one_partition_per_epoch(self):
        assert plan_windows(5, 2, 4, live=False) == [
            [0, 1],
            [1, 2],
            [2, 3],
            [3, 4],
        ]

    def test_window_parks_when_stream_exhausted(self):
        assert plan_windows(3, 2, 4, live=False) == [
            [0, 1],
            [1, 2],
            [1, 2],
            [1, 2],
        ]

    def test_retain_at_least_num_partitions_never_drops(self):
        assert plan_windows(3, 3, 3, live=False) == [[0, 1, 2]] * 3
        assert plan_windows(2, 5, 3, live=False) == [[0, 1]] * 3

    def test_single_partition_single_epoch(self):
        assert plan_windows(1, 1, 1, live=False) == [[0]]

    def test_validation(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                plan_windows(*bad, live=False)


class TestRetentionLifecycle:
    def test_land_train_age_end_to_end(self, run_of):
        """5-day stream, 2-day window, 4 epochs: each epoch scans the
        sliding window, aged partitions are dropped in order, and every
        partition of the stream eventually lands."""
        res = run_of(_spec(5, 4, retain=2))
        assert res.epoch_partitions == [
            ["p0", "p1"],
            ["p1", "p2"],
            ["p2", "p3"],
            ["p3", "p4"],
        ]
        assert res.dropped_partitions == ["p0", "p1", "p2"]
        assert [p.name for p in res.partitions] == [
            "p0",
            "p1",
            "p2",
            "p3",
            "p4",
        ]
        # the rollup covers everything that ever landed
        assert res.partition.num_rows == res.samples_landed

    def test_epoch_plans_only_reference_live_partitions(self, monkeypatch):
        """The acceptance bar: with a K-partition window no epoch plan
        may ever reference a dropped partition.  Spies on the actual
        plan_epoch calls the fleet makes."""
        planned_names: list[list[str]] = []
        real_plan_epoch = fleet_mod.plan_epoch

        def spy(partition_rows, *args, **kwargs):
            planned_names.append([name for name, _ in partition_rows])
            return real_plan_epoch(partition_rows, *args, **kwargs)

        monkeypatch.setattr(fleet_mod, "plan_epoch", spy)
        res = Session(_spec(6, 5, retain=3)).run()  # spied: uncached
        expected_windows = plan_windows(6, 3, 5, live=False)
        assert planned_names == [
            [f"p{i}" for i in w] for w in expected_windows
        ]
        # no plan ever includes a partition dropped before that epoch
        dropped: set[str] = set()
        for epoch, names in enumerate(planned_names):
            assert not dropped & set(names), (
                f"epoch {epoch} planned dropped partition(s): "
                f"{dropped & set(names)}"
            )
            if epoch + 1 < len(expected_windows):
                next_lo = expected_windows[epoch + 1][0]
                dropped |= {f"p{i}" for i in range(next_lo)}
        assert res.dropped_partitions == sorted(dropped)

    def test_dropped_partition_files_deleted(self, run_of):
        """Dropping is real: a retention run ends with only the live
        window's rows still counted in live partitions."""
        res = run_of(_spec(4, 3, retain=1))
        assert res.dropped_partitions == ["p0", "p1"]
        assert res.epoch_partitions == [["p0"], ["p1"], ["p2"]]
        # p3 stays in the stream, unlanded: only 3 epochs elapsed
        assert [p.name for p in res.partitions] == ["p0", "p1", "p2"]

    def test_retaining_everything_matches_non_retention(self, run_of):
        """A window >= num_partitions never drops and must be
        bit-identical to the retention-free path."""
        plain = run_of(_spec(3, 2))
        retained = run_of(_spec(3, 2, retain=3))
        assert retained.training.losses == plain.training.losses
        assert retained.dropped_partitions == []
        assert retained.epoch_partitions == plain.epoch_partitions

    def test_streaming_materialized_equivalent_under_retention(self, run_of):
        streamed = run_of(_spec(4, 3, retain=2, num_readers=2))
        materialized = run_of(
            _spec(4, 3, retain=2, num_readers=2, streaming=False)
        )
        assert streamed.training.losses == materialized.training.losses

    def test_width_does_not_change_retention_stream(self, run_of):
        wide = run_of(_spec(4, 3, retain=2, num_readers=4))
        narrow = run_of(_spec(4, 3, retain=2, num_readers=1))
        assert wide.training.losses == narrow.training.losses

    def test_non_retention_epochs_recorded(self, run_of):
        """Read off the un-retained reference run above."""
        res = run_of(_spec(3, 2))
        assert res.epoch_partitions == [["p0", "p1", "p2"]] * 2
        assert res.dropped_partitions == []
        assert res.scaling is None

    def test_undersized_first_window_fails_fast(self):
        with pytest.raises(ValueError, match="too small"):
            Session(
                _spec(2, 2, retain=1, num_sessions=2, batch_size=100_000)
            ).run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetentionSpec(window=0)
        with pytest.raises(ValueError):
            ReaderSpec(executor="threads")
