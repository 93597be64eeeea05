"""Acceptance tests for the continuous-training streaming subsystem.

The tentpole invariant: a live-loop run — micro-partitions landing on
the tier's cost-model clock *while* jobs train — produces loss
trajectories **bit-identical** to a run whose whole stream was landed
before round one.  Scheduling moves wall-clock, never batch content.

Covered here: the epoch-window planner, the :class:`StreamLander`
landing API, live-vs-land-first bit-identity (with and without a
rolling retention window, solo and sharing the pool with a static
job), mid-loop admission of a streamed job, freshness accounting, and
the ``repro stream --verify`` CLI gate.
"""

import pytest

from repro.cli import main
from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    RetentionSpec,
    Session,
    StreamSpec,
    TrainSpec,
)
from repro.streaming import LiveLoop, StreamLander, plan_stream_windows


def _spec(
    *,
    partitions=4,
    epochs=5,
    window=None,
    interval=60.0,
    latency=5.0,
    seed=7,
    sessions=60,
    stream=True,
    name=None,
):
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.2),
            toggles=RecDToggles.baseline(),
            num_sessions=sessions,
            num_partitions=partitions,
            seed=seed,
        ),
        reader=ReaderSpec(num_readers=2),
        train=TrainSpec(train_epochs=epochs, train_batches=2),
        stream=(
            StreamSpec(
                interval_seconds=interval, land_latency_seconds=latency
            )
            if stream
            else None
        ),
        retention=(
            RetentionSpec(window=window) if window is not None else None
        ),
        name=name,
    )


def _land_first_losses(specs, *, width, freshness_slo=None):
    """The reference: land the whole stream, then run the tier."""
    session = Session(
        list(specs), width=width, freshness_slo=freshness_slo
    )
    session.prepare()
    session.land_all_streams()
    session.tier.run()
    result = session.collect()
    return {j.name: list(j.training.losses) for j in result.jobs}


class TestPlanStreamWindows:
    def test_unbounded_window_grows_to_the_stream_tail(self):
        assert plan_stream_windows(4, None, 5) == [
            [0],
            [0, 1],
            [0, 1, 2],
            [0, 1, 2, 3],
            [0, 1, 2, 3],
        ]

    def test_bounded_window_slides(self):
        assert plan_stream_windows(4, 2, 5) == [
            [0],
            [0, 1],
            [1, 2],
            [2, 3],
            [2, 3],
        ]

    def test_epochs_past_the_stream_rescan_the_final_window(self):
        windows = plan_stream_windows(2, None, 6)
        assert windows[2:] == [[0, 1]] * 4

    def test_validation(self):
        with pytest.raises(ValueError, match="num_partitions"):
            plan_stream_windows(0, None, 1)
        with pytest.raises(ValueError, match="retain_partitions"):
            plan_stream_windows(2, 0, 1)
        with pytest.raises(ValueError, match="train_epochs"):
            plan_stream_windows(2, None, 0)


class TestStreamLander:
    def test_requires_a_stream_spec(self):
        with pytest.raises(ValueError, match="StreamSpec"):
            StreamLander(_spec(stream=False))

    def test_avail_is_the_tick_boundary_plus_landing_latency(self):
        lander = StreamLander(_spec(interval=60.0, latency=5.0))
        assert [lander.avail(i) for i in range(4)] == [
            65.0,
            125.0,
            185.0,
            245.0,
        ]
        with pytest.raises(IndexError):
            lander.avail(4)

    def test_pump_lands_exactly_the_due_partitions(self):
        lander = StreamLander(_spec())
        assert lander.landed_count == 0
        assert not lander.exhausted
        assert lander.pump(64.9) == []
        landed = lander.pump(130.0)  # p0 (65) and p1 (125) are due
        assert landed == ["p0", "p1"]
        assert lander.landed_count == 2
        assert lander.pump(130.0) == []  # idempotent at the same clock
        lander.pump(1e9)
        assert lander.landed_count == 4
        assert lander.exhausted

    def test_next_event_clamps_to_the_clock_then_exhausts(self):
        lander = StreamLander(_spec())
        assert lander.next_event(0.0) == 65.0
        # A clock already past the landing time is itself the event.
        assert lander.next_event(70.0) == 70.0
        lander.land_all()
        assert lander.next_event(0.0) is None

    def test_partition_rows_cover_every_generated_sample(self):
        lander = StreamLander(_spec())
        rows = lander.partition_rows()
        assert list(rows) == ["p0", "p1", "p2", "p3"]
        assert sum(rows.values()) == len(lander.samples)
        assert all(n > 0 for n in rows.values())

    def test_event_times_land_inside_their_partition_tick(self):
        lander = StreamLander(_spec(interval=60.0))
        lander.land_all()
        bounds = {}
        for i, sample in zip(
            (i for i, n in enumerate(lander.partition_rows().values())
             for _ in range(n)),
            lander.samples,
        ):
            lo, hi = bounds.get(i, (float("inf"), float("-inf")))
            bounds[i] = (min(lo, sample.timestamp), max(hi, sample.timestamp))
        for i, (lo, hi) in bounds.items():
            assert i * 60.0 < lo <= hi <= (i + 1) * 60.0

    def test_landed_micro_partitions_are_compacted_behind_the_head(self):
        lander = StreamLander(_spec())
        lander.land_all()
        table = lander.table
        # Every partition behind the stream head was rewritten at the
        # table's full rows_per_file; micro-files only survive at p3.
        for name in ("p0", "p1", "p2"):
            info = table.partitions[name]
            want = max(1, -(-info.num_rows // table.rows_per_file))
            assert len(info.files) == want


class TestLiveLoopDeadlock:
    def test_drive_raises_when_a_job_can_never_become_ready(self):
        """Every stream drained yet a job is still gated on data: the
        closed loop fails loudly instead of finishing a partial run."""
        session = Session(_spec(name="stuck"))
        tier = session.prepare()
        session.runtime("stuck").tier_job.ready = lambda epoch: False
        with pytest.raises(RuntimeError, match="live loop deadlocked"):
            LiveLoop(session).drive()
        assert tier.round_index == 0
        assert session.next_stream_event() is None  # it did drain


class TestLiveLoopBitIdentity:
    def test_single_streamed_job_matches_land_first(self):
        live = Session(_spec(name="solo")).run()
        base = _land_first_losses([_spec(name="solo")], width=2)
        assert list(live.training.losses) == base["solo"]
        assert live.training.losses  # actually trained
        # The growing window: epoch e scans p0..min(e, P-1).
        assert live.epoch_partitions == [
            ["p0"],
            ["p0", "p1"],
            ["p0", "p1", "p2"],
            ["p0", "p1", "p2", "p3"],
            ["p0", "p1", "p2", "p3"],
        ]

    def test_retention_window_slides_and_stays_bit_identical(self):
        spec = _spec(window=2, name="rolled")
        live = Session(spec).run()
        base = _land_first_losses([_spec(window=2, name="rolled")], width=2)
        assert list(live.training.losses) == base["rolled"]
        assert live.dropped_partitions == ["p0", "p1"]
        assert live.epoch_partitions[-1] == ["p2", "p3"]

    def test_streamed_and_static_jobs_share_the_pool(self):
        def specs():
            return [
                _spec(name="streamy", seed=11),
                _spec(stream=False, partitions=2, epochs=3, seed=12,
                      name="static"),
            ]

        session = Session(specs(), width=4)
        res = session.run()
        base = _land_first_losses(specs(), width=4)
        for job in res.jobs:
            assert list(job.training.losses) == base[job.name]
        # Only the streamed job tracks freshness.
        assert res.tier.job_freshness("streamy").batches > 0
        assert res.tier.job_freshness("static").batches == 0

    def test_freshness_slo_weighting_never_touches_losses(self):
        plain = Session(_spec(name="j")).run()
        boosted = Session(
            [_spec(name="j")], width=2, freshness_slo=1.0
        ).run()
        assert list(plain.training.losses) == list(
            boosted.jobs[0].training.losses
        )

    def test_freshness_report_is_sane(self):
        session = Session([_spec(name="j")], width=2)
        res = session.run()
        fresh = res.tier.job_freshness("j")
        assert fresh.batches == sum(
            s.batches for s in res.tier.job_rounds("j")
        )
        assert 0.0 <= fresh.p50_lag_seconds <= fresh.p99_lag_seconds
        # Landing latency is a hard lower bound on any lag.
        assert fresh.max_lag_seconds >= 5.0


class TestMidLoopAdmission:
    def test_streamed_job_admitted_mid_run_stays_bit_identical(self):
        from repro.sim import Arrival, FaultPlan, ScenarioRunner

        late = _spec(partitions=3, epochs=3, seed=9, name="late")
        plan = FaultPlan(
            arrivals=(Arrival(round=2, name="late", spec=late),)
        )
        runner = ScenarioRunner(
            [_spec(name="early")], plan, width=4, names=["early"]
        )
        result = runner.run()
        baseline = runner.baseline()
        assert sorted(result.losses) == ["early", "late"]
        for name, losses in result.losses.items():
            assert losses  # both jobs trained
            assert losses == baseline[name]
        assert [ev["event"] for ev in result.trace].count("arrival") == 1
        assert result.slo.freshness.batches > 0


class TestStreamCLI:
    def test_verify_passes(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--num-partitions",
                    "3",
                    "--train-epochs",
                    "4",
                    "--sessions",
                    "50",
                    "--jobs",
                    "1",
                    "--retain-partitions",
                    "2",
                    "--freshness-slo",
                    "120",
                    "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bit-identical to the land-everything-first baseline" in out
        assert "freshness" in out

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(SystemExit):
            main(["stream", "--jobs", "0"])
