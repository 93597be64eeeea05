"""Multi-job sharing acceptance: functional isolation + wall-clock win.

The two contract-level claims of the shared reader tier, end to end:
every job's per-step losses under sharing are bit-identical to the same
job run alone on its own fleet, and the shared tier's modeled
wall-clock beats running the jobs in isolation back to back.
"""

from dataclasses import replace

import pytest

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    RetentionSpec,
    ScalingSpec,
    Session,
    TrainSpec,
)

WIDTH = 16


def _job(
    seed: int,
    *,
    toggles: RecDToggles = RecDToggles.baseline(),
    num_partitions: int = 1,
    train_epochs: int = 3,
    reader: ReaderSpec = ReaderSpec(executor="inprocess"),
    **top,
) -> JobSpec:
    """A small job; ``top`` sets JobSpec-level fields (scaling,
    retention, weight)."""
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.25),
            toggles=toggles,
            num_sessions=60,
            num_partitions=num_partitions,
            seed=seed,
        ),
        reader=reader,
        train=TrainSpec(
            batch_size=32, train_batches=2, train_epochs=train_epochs
        ),
        **top,
    )


@pytest.fixture(scope="module")
def two_jobs():
    """A reader-heavy baseline job and a reader-light RecD job."""
    return (_job(1), _job(2, toggles=RecDToggles.full()))


@pytest.fixture(scope="module")
def shared(two_jobs):
    return Session(two_jobs, width=WIDTH, names=["a", "b"]).run()


class TestFunctionalIsolation:
    def test_losses_bit_identical_to_solo_runs(self, two_jobs, shared):
        """The acceptance bar: sharing never changes training results —
        each job's losses match the same spec run alone in its own
        Session on its own (serial) fleet."""
        for name, spec in zip(("a", "b"), two_jobs):
            solo = Session(spec).run()
            assert (
                shared.job(name).training.losses == solo.training.losses
            ), f"job {name!r} diverged under sharing"

    def test_jobs_scanned_their_own_epoch_plans(self, shared, two_jobs):
        for name, spec in zip(("a", "b"), two_jobs):
            job = shared.job(name)
            assert len(job.epoch_partitions) == spec.train.train_epochs
            assert job.fleet.merged.batches == (
                spec.train.train_batches * spec.train.train_epochs
            )

    def test_single_job_tier_matches_solo_session(self, two_jobs):
        """A one-job tier is just a fleet: same losses as the solo
        single-spec session."""
        spec = two_jobs[0]
        alone = Session([spec], width=4).run()
        solo = Session(spec).run()
        assert alone.jobs[0].training.losses == solo.training.losses

    def test_materialized_jobs_report_streaming_false(self):
        """A streaming=False spec trains bit-identically to the solo
        session, and its result carries the spec that says so."""
        spec = _job(
            1,
            train_epochs=1,
            reader=ReaderSpec(executor="inprocess", streaming=False),
        )
        res = Session([spec], width=2).run()
        assert res.jobs[0].spec.reader.streaming is False
        assert (
            res.jobs[0].training.losses == Session(spec).run().training.losses
        )


class TestWallClock:
    def test_shared_tier_beats_sum_of_isolated_runs(self, two_jobs, shared):
        """The acceptance bar: the tier runs jobs concurrently on one
        pool, so its modeled wall-clock beats the two jobs run in
        isolation back to back on the same width."""
        iso = [Session([spec], width=WIDTH).run() for spec in two_jobs]
        isolated_sum = sum(r.modeled_wall_seconds for r in iso)
        assert shared.modeled_wall_seconds < isolated_sum

    def test_stall_weighted_beats_static_half_split(self, two_jobs, shared):
        """Demand-following allocation beats carving the pool into two
        static half-width fleets (examples/multi_job_sharing.py shows
        the same comparison with commentary)."""
        halves = [
            Session([spec], width=WIDTH // 2).run() for spec in two_jobs
        ]
        concurrent_halves = max(r.modeled_wall_seconds for r in halves)
        assert shared.modeled_wall_seconds < concurrent_halves

    def test_allocation_follows_reader_demand(self, shared):
        """After the cold-start round the reader-heavy baseline job
        holds more of the pool than the RecD job."""
        for rnd in shared.tier.rounds[1:]:
            assert rnd.allocation["a"] > rnd.allocation["b"]
            assert sum(rnd.allocation.values()) == WIDTH


class TestReports:
    def test_per_job_overlap_fractions_attribute_everything(self, shared):
        for name in ("a", "b"):
            ov = shared.tier.per_job[name]
            assert ov.wall_seconds > 0
            assert sum(ov.fractions.values()) == pytest.approx(1.0)
            assert shared.job(name).overlap.wall_seconds == ov.wall_seconds

    def test_tier_report_rows_cover_every_round_and_job(self, shared):
        rows = shared.tier.as_rows()
        assert len(rows) == len(shared.tier.rounds) * 2
        assert {r["job"] for r in rows} == {"a", "b"}
        assert all(r["workers"] > 0 for r in rows)  # nobody starved

    def test_deterministic_across_runs(self, two_jobs, shared):
        again = Session(two_jobs, width=WIDTH, names=["a", "b"]).run()
        assert again.tier.as_rows() == shared.tier.as_rows()
        assert (
            again.modeled_wall_seconds == shared.modeled_wall_seconds
        )


def _autoscaled(jobs) -> list[JobSpec]:
    """The jobs, each asking for a pool autoscaled up to 32 readers."""
    return [replace(job, scaling=ScalingSpec(max_readers=32)) for job in jobs]


class TestAutoscale:
    def test_pool_resizes_from_aggregate_stall(self, two_jobs):
        """Under-provisioned shared pool: the tier autoscaler grows the
        pool from the tier-level (aggregate) overlap, and the trace
        records every decision."""
        res = Session(_autoscaled(two_jobs), width=2, names=["a", "b"]).run()
        trace = res.tier.scaling
        assert trace is not None
        assert trace.decisions[0].action == "grow"
        assert res.tier.widths[0] == 2
        assert res.tier.widths[-1] > 2

    def test_autoscaled_losses_still_bit_identical(self, two_jobs, shared):
        res = Session(_autoscaled(two_jobs), width=2, names=["a", "b"]).run()
        for name in ("a", "b"):
            assert (
                res.job(name).training.losses
                == shared.job(name).training.losses
            )


class TestRetentionUnderSharing:
    """The lifted guard: rolling-window retention composes with the
    shared tier because both run the same Session epoch loop."""

    def _retained(self, seed: int, window: int = 2) -> JobSpec:
        return _job(
            seed, num_partitions=4, retention=RetentionSpec(window=window)
        )

    def test_losses_bit_identical_to_solo_retention_run(self, two_jobs):
        """The acceptance bar: a retention job under sharing trains
        bit-identically to the same spec run alone — land/age between
        epochs included."""
        retained = self._retained(1)
        shared = Session(
            [retained, two_jobs[1]], width=WIDTH, names=["r", "b"]
        ).run()
        solo = Session(retained).run()
        assert shared.job("r").training.losses == solo.training.losses
        assert shared.job("r").epoch_partitions == solo.epoch_partitions
        assert (
            shared.job("r").dropped_partitions == solo.dropped_partitions
        )

    def test_windows_slide_and_age_under_sharing(self):
        res = Session([self._retained(1)], width=4, names=["r"]).run()
        job = res.job("r")
        assert job.epoch_partitions == [
            ["p0", "p1"],
            ["p1", "p2"],
            ["p2", "p3"],
        ]
        assert job.dropped_partitions == ["p0", "p1"]

    def test_two_retention_jobs_stay_isolated(self):
        """Each job ages its own table: two retention jobs sharing the
        pool both match their solo windows and losses."""
        a = self._retained(1)
        b = self._retained(2, window=1)
        shared = Session([a, b], width=8, names=["a", "b"]).run()
        for name, spec in (("a", a), ("b", b)):
            solo = Session(spec).run()
            assert (
                shared.job(name).training.losses == solo.training.losses
            )
            assert (
                shared.job(name).dropped_partitions
                == solo.dropped_partitions
            )


class TestPerJobKnobs:
    def test_per_job_autoscale_scales_the_shared_pool(self):
        """A job's own ScalingSpec composes with sharing — its scaling
        intent drives the pool autoscaler."""
        scaled = _job(1, scaling=ScalingSpec(max_readers=32))
        res = Session([scaled], width=2).run()
        trace = res.tier.scaling
        assert trace is not None
        assert res.tier.widths[0] == 2
        solo = Session(_job(1)).run()
        assert res.jobs[0].training.losses == solo.training.losses

    def test_job_scaling_bound_never_undercuts_the_pool(self):
        """A job's solo-fleet ScalingSpec cap (max_readers=4) promoted
        to a 16-wide pool must not trip the pool autoscaler's bound
        check — the bound widens to at least the pool width."""
        capped = _job(
            1,
            reader=ReaderSpec(num_readers=2, executor="inprocess"),
            scaling=ScalingSpec(max_readers=4),
        )
        res = Session([capped, _job(2)], width=16).run()
        assert res.tier.scaling is not None
        assert res.tier.widths[0] == 16

    def test_weights_bias_the_allocator(self, two_jobs):
        """Equal-demand clones: a weight-3 job pulls more of the
        surplus than its weight-1 twin, allocations still sum to the
        width, and losses are untouched."""
        res = Session(
            [_job(1, weight=3.0), _job(1)],
            width=WIDTH,
            names=["heavy", "light"],
        ).run()
        for rnd in res.tier.rounds[1:]:
            assert rnd.allocation["heavy"] > rnd.allocation["light"]
            assert sum(rnd.allocation.values()) == WIDTH
        even = Session(
            [_job(1), _job(1)], width=WIDTH, names=["heavy", "light"]
        ).run()
        assert (
            res.job("heavy").training.losses
            == even.job("heavy").training.losses
        )

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="positive"):
            _job(1, weight=0.0)


class TestValidation:
    def test_rejects_bad_names(self, two_jobs):
        with pytest.raises(ValueError, match="duplicate"):
            Session(two_jobs, width=4, names=["x", "x"])
        with pytest.raises(ValueError, match="names for"):
            Session(two_jobs, width=4, names=["x"])
        with pytest.raises(ValueError, match="at least one"):
            Session([], width=4)
        with pytest.raises(KeyError, match="no job named"):
            Session([two_jobs[0]], width=2, names=["a"]).run().job("zzz")


class TestCli:
    def test_multijob_command(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "multijob",
                    "--job",
                    "RM1:seed=1:sessions=50",
                    "--job",
                    "RM1:recd:seed=2:sessions=50",
                    "--num-readers",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shared reader tier: 2 jobs" in out
        assert "round 0" in out
        assert "job0 (RM1, baseline): " in out
        assert "job1 (RM1, RecD): " in out

    def test_multijob_clones(self, capsys):
        from repro.cli import main

        assert (
            main(
                ["multijob", "--jobs", "2", "--sessions", "50",
                 "--num-readers", "4"]
            )
            == 0
        )
        assert "2 jobs" in capsys.readouterr().out

    def test_bad_job_spec(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["multijob", "--job", "RM9"])
        with pytest.raises(SystemExit):
            main(["multijob", "--job", "RM1:bogus=1"])
