"""Acceptance tests for the continuous-training streaming subsystem.

The tentpole invariant: a live-loop run — micro-partitions landing on
the tier's cost-model clock *while* jobs train — produces loss
trajectories **bit-identical** to a run whose whole stream was landed
before round one.  Scheduling moves wall-clock, never batch content.

Covered here: the epoch-window planner, the :class:`Lander`
landing API, live-vs-land-first bit-identity (with and without a
rolling retention window, solo and sharing the pool with a static
job), mid-loop admission of a streamed job, freshness accounting, and
the ``repro stream --verify`` CLI gate.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.datagen import TraceConfig, generate_partition, rm1
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
from repro.scribe import split_sample
from repro.storage import RowBlock
from repro.streaming import Lander, plan_windows


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
    toggles=RecDToggles.baseline,
    rows_per_file=256,
    scale=0.2,
):
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=scale),
            toggles=toggles(),
            num_sessions=sessions,
            num_partitions=partitions,
            seed=seed,
        ),
        reader=ReaderSpec(num_readers=2),
        train=TrainSpec(train_epochs=epochs, train_batches=2),
        stream=(
            StreamSpec(
                interval_seconds=interval,
                land_latency_seconds=latency,
                rows_per_file=rows_per_file,
            )
            if stream
            else None
        ),
        retention=(
            RetentionSpec(window=window) if window is not None else None
        ),
        name=name,
    )


def _land_first_losses(run_of, specs, *, width):
    """The reference: land the whole stream, then run the tier."""
    result = run_of(tuple(specs), land_first=True, width=width)
    return {j.name: list(j.training.losses) for j in result.jobs}


class TestPlanStreamWindows:
    def test_unbounded_window_grows_to_the_stream_tail(self):
        assert plan_windows(4, None, 5, live=True) == [
            [0],
            [0, 1],
            [0, 1, 2],
            [0, 1, 2, 3],
            [0, 1, 2, 3],
        ]

    def test_bounded_window_slides(self):
        assert plan_windows(4, 2, 5, live=True) == [
            [0],
            [0, 1],
            [1, 2],
            [2, 3],
            [2, 3],
        ]

    def test_epochs_past_the_stream_rescan_the_final_window(self):
        windows = plan_windows(2, None, 6, live=True)
        assert windows[2:] == [[0, 1]] * 4

    def test_validation(self):
        with pytest.raises(ValueError, match="num_partitions"):
            plan_windows(0, None, 1, live=True)
        with pytest.raises(ValueError, match="retain"):
            plan_windows(2, 0, 1, live=True)
        with pytest.raises(ValueError, match="epochs"):
            plan_windows(2, None, 0, live=True)


class TestStreamLander:
    def test_avail_is_the_tick_boundary_plus_landing_latency(self):
        lander = Lander(_spec(interval=60.0, latency=5.0))
        assert [lander.avail(i) for i in range(4)] == [
            65.0,
            125.0,
            185.0,
            245.0,
        ]
        with pytest.raises(IndexError):
            lander.avail(4)

    def test_pump_lands_exactly_the_due_partitions(self):
        lander = Lander(_spec())
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

    def test_static_pump_lands_the_whole_table_at_clock_zero(self):
        """The static twin: a table with no stream is history, all of
        it due before round one, so nothing is left for the clock."""
        lander = Lander(_spec(stream=False))
        assert lander.landed_count == 0
        assert [lander.avail(i) for i in range(4)] == [0.0] * 4
        assert lander.pump(0.0) == ["p0", "p1", "p2", "p3"]
        assert lander.exhausted
        assert lander.next_event(0.0) is None
        assert lander.pump(1e9) == []

    def test_rolling_window_over_a_static_table_lands_on_demand(self):
        """No clock time brings a retention job's partitions: they land
        window by window, so one no epoch reaches never lands."""
        lander = Lander(_spec(stream=False, window=2))
        assert lander.pump(1e9) == []
        assert lander.next_event(0.0) is None
        assert lander.land_through(1) == ["p0", "p1"]
        assert lander.land_through(1) == []  # already landed
        assert lander.land_through(2) == ["p2"]
        assert not lander.exhausted
        with pytest.raises(IndexError):
            lander.land_through(4)

    def test_next_event_clamps_to_the_clock_then_exhausts(self):
        lander = Lander(_spec())
        assert lander.next_event(0.0) == 65.0
        # A clock already past the landing time is itself the event.
        assert lander.next_event(70.0) == 70.0
        lander.land_all()
        assert lander.next_event(0.0) is None

    def test_partition_rows_cover_every_generated_sample(self):
        lander = Lander(_spec())
        rows = lander.partition_rows()
        assert list(rows) == ["p0", "p1", "p2", "p3"]
        assert sum(rows.values()) == len(lander.samples)
        assert all(n > 0 for n in rows.values())

    def test_event_times_land_inside_their_partition_tick(self):
        lander = Lander(_spec(interval=60.0))
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
        lander = Lander(_spec())
        lander.land_all()
        table = lander.table
        # Every partition behind the stream head was rewritten at the
        # table's full rows_per_file; micro-files only survive at p3.
        for name in ("p0", "p1", "p2"):
            info = table.partitions[name]
            want = max(1, -(-info.num_rows // table.rows_per_file))
            assert len(info.files) == want


    @pytest.mark.parametrize("stream", [True, False])
    def test_ingest_bytes_are_the_compressed_scribe_egress(self, stream):
        """One definition for every schedule: what ETL pulls off the
        cluster is compressed blocks (the O1 claim), tick by tick or
        all at once — never the decompressed messages."""
        lander = Lander(_spec(stream=stream, toggles=RecDToggles.full))
        lander.land_all()
        assert lander.ingest_bytes == lander.scribe.stats.compressed_bytes
        assert lander.ingest_bytes == lander.scribe.etl_ingest_bytes

    def test_recorded_partitions_follow_compaction(self):
        """32-row micro-files are not a multiple of the 64-row stripe,
        so compaction re-stripes and the bytes change: the recorded
        ``PartitionInfo`` must be the compacted one, not the micro
        landing whose files were deleted."""
        lander = Lander(_spec(rows_per_file=32))
        lander.land_all()
        table = lander.table
        assert table.files_compacted > 0
        assert table.rows_per_file == 8192  # never flipped to 32
        assert [p.name for p in lander.partitions] == list(table.partitions)
        for info in lander.partitions:
            assert all(table.fs.exists(path) for path in info.files)
            live = table.partitions[info.name]
            assert info.compressed_bytes == live.compressed_bytes
            assert info.files == live.files


class TestStreamedBlock:
    """A streamed lander holds its trace as one block, re-stamped onto
    the event-time axis as one column write; the scribe messages its
    rows log must not change for it."""

    @pytest.mark.parametrize(
        "interval", [60.0, 45.0, 0.02, 0.03, 0.04, 1 / 3, 7.1], ids=str
    )
    @pytest.mark.parametrize("partitions", [1, 3, 4, 7])
    def test_event_times_equal_the_per_row_formula_bitwise(
        self, interval, partitions
    ):
        lander = Lander(
            _spec(partitions=partitions, interval=interval, sessions=12)
        )
        assert isinstance(lander.samples, RowBlock)
        want = [
            i * interval + (j + 1) / (stop - start) * interval
            for i, (start, stop) in enumerate(lander.slices)
            for j in range(stop - start)
        ]
        got = lander.samples.timestamp.tolist()
        assert [t.hex() for t in got] == [t.hex() for t in want]

    def test_rows_log_the_messages_of_the_re_stamped_trace(self):
        """The block keeps the generator's feature order (RM1's schema
        order differs from it at this scale), so every row serializes to
        the bytes the generated row with its event time does."""
        spec = _spec(sessions=12, scale=0.25)
        d = spec.data
        trace = generate_partition(
            d.workload.schema,
            d.num_sessions,
            TraceConfig(
                seed=d.seed, mean_samples_per_session=d.mean_samples_per_session
            ),
        )
        lander = Lander(spec)
        assert list(lander.samples.sparse) == list(trace[0].sparse)
        assert list(trace[0].sparse) != list(d.workload.schema.sparse_names)
        assert len(lander.samples) == len(trace)
        for row, original in zip(lander.samples, trace):
            want = replace(original, timestamp=row.timestamp)
            assert [r.serialize() for r in split_sample(row)] == [
                r.serialize() for r in split_sample(want)
            ]


class TestLiveLoopDeadlock:
    def test_drive_raises_when_a_job_can_never_become_ready(self):
        """Every stream drained yet a job is still gated on data: the
        closed loop fails loudly instead of finishing a partial run."""
        session = Session(_spec(name="stuck"))
        tier = session.prepare()
        session.runtime("stuck").tier_job.ready = lambda epoch: False
        with pytest.raises(RuntimeError, match="live loop deadlocked"):
            session.run()
        assert tier.round_index == 0
        assert session.runtime("stuck").lander.exhausted  # it did drain


class TestLiveLoopBitIdentity:
    def test_single_streamed_job_matches_land_first(self, run_of):
        live = Session(_spec(name="solo")).run()
        base = _land_first_losses(run_of, [_spec(name="solo")], width=2)
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

    def test_retention_window_slides_and_stays_bit_identical(self, run_of):
        spec = _spec(window=2, name="rolled")
        live = Session(spec).run()
        base = _land_first_losses(run_of, [spec], width=2)
        assert list(live.training.losses) == base["rolled"]
        assert live.dropped_partitions == ["p0", "p1"]
        assert live.epoch_partitions[-1] == ["p2", "p3"]

    def test_streamed_and_static_jobs_share_the_pool(self, run_of):
        def specs():
            return [
                _spec(name="streamy", seed=11),
                _spec(stream=False, partitions=2, epochs=3, seed=12,
                      name="static"),
            ]

        session = Session(specs(), width=4)
        res = session.run()
        base = _land_first_losses(run_of, specs(), width=4)
        for job in res.jobs:
            assert list(job.training.losses) == base[job.name]
        # Only the streamed job tracks freshness.
        assert res.tier.job_freshness("streamy").batches > 0
        assert res.tier.job_freshness("static").batches == 0

    def test_freshness_slo_weighting_never_touches_losses(self, run_of):
        plain = run_of(_spec(name="j"))
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
        from repro.sim import Arrival, FaultPlan, Scenario

        late = _spec(partitions=3, epochs=3, seed=9, name="late")
        plan = FaultPlan(
            arrivals=(Arrival(round=2, name="late", spec=late),)
        )
        jobs = (("early", _spec(name="early")),)
        scenario = Scenario("mid-loop", "a late arrival", jobs, plan, width=4)
        result = scenario.run()
        baseline = scenario.baseline()
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
