"""Tests for counters, breakdowns, and overlap."""

import inspect
from dataclasses import fields

import pytest

from repro.metrics import (
    Counters,
    IterationBreakdown,
    JobRoundStat,
    OverlapReport,
    QueueWaitBreakdown,
    ReaderCpuBreakdown,
    TierReport,
    TierRound,
)
from repro.pipeline import PipelineResult
from repro.reader import ReaderReport, rescale
from repro.reader.fleet import FleetReport
from repro.reader.tier_scheduler import TierJob


class TestCounters:
    def test_add_get(self):
        c = Counters()
        c.add("flops", 10)
        c.add("flops", 5)
        assert c["flops"] == 15
        assert c.get("missing") == 0.0

    def test_as_dict(self):
        c = Counters()
        c.add("x", 1)
        assert c.as_dict() == {"x": 1}


class TestBreakdowns:
    def test_reader_breakdown_normalization(self):
        base = ReaderCpuBreakdown(fill=6.0, convert=1.0, process=3.0)
        recd = ReaderCpuBreakdown(fill=3.0, convert=1.2, process=2.6)
        norm = recd.normalized_to(base)
        assert norm["total"] == pytest.approx(6.8 / 10.0)
        assert norm["fill"] == pytest.approx(0.3)

    def test_reader_breakdown_merge(self):
        a = ReaderCpuBreakdown(1, 2, 3)
        a.merge(ReaderCpuBreakdown(1, 1, 1))
        assert a.total == 9

    def test_iteration_breakdown(self):
        base = IterationBreakdown(emb_lookup=1, gemm=4, a2a=4, other=1)
        recd = IterationBreakdown(emb_lookup=0.8, gemm=3.5, a2a=2, other=1)
        norm = recd.normalized_to(base)
        assert norm["a2a"] == pytest.approx(0.2)
        assert norm["total"] == pytest.approx(7.3 / 10)

    def test_zero_baseline_safe(self):
        norm = ReaderCpuBreakdown().normalized_to(ReaderCpuBreakdown())
        assert norm["total"] == 0.0


class TestTierRound:
    def test_reader_wall_pools_cpu_over_the_width(self):
        """The autoscaler's two times: every job's reader CPU spread
        evenly over the round's width (the capacity view), against the
        slowest trainer; the round's aggregate overlap is built from
        exactly these."""
        rnd = TierRound(
            index=0,
            width=4,
            stats=[JobRoundStat("a", 3, 3.0, 0.5), JobRoundStat("b", 1, 1.0, 2.0)],
        )
        assert rnd.reader_wall_seconds == pytest.approx(1.0)
        assert rnd.trainer_busy_seconds == 2.0
        assert rnd.aggregate == OverlapReport.modeled(1.0, 2.0)
        empty = TierRound(index=0, width=2)
        assert (empty.reader_wall_seconds, empty.trainer_busy_seconds) == (0.0, 0.0)


class TestOverlapReport:
    def test_attribution_arithmetic(self):
        ov = OverlapReport(
            wall_seconds=10.0,
            reader_stall_seconds=3.0,
            trainer_busy_seconds=6.0,
        )
        assert ov.other_seconds == pytest.approx(1.0)
        assert ov.reader_stall_fraction == pytest.approx(0.3)
        assert ov.trainer_stall_fraction == pytest.approx(0.6)
        assert ov.other_fraction == pytest.approx(0.1)

    def test_fractions_sum_to_one(self):
        ov = OverlapReport(
            wall_seconds=2.5,
            reader_stall_seconds=0.7,
            trainer_busy_seconds=1.6,
        )
        assert sum(ov.fractions.values()) == pytest.approx(1.0)

    def test_zero_wall_safe(self):
        ov = OverlapReport()
        assert ov.reader_stall_fraction == 0.0
        assert ov.trainer_stall_fraction == 0.0
        assert ov.other_fraction == 0.0
        assert sum(ov.fractions.values()) == 0.0

    def test_timer_jitter_clamped(self):
        """Measured sub-timers may overshoot wall by float jitter; the
        remainder never goes negative."""
        ov = OverlapReport(
            wall_seconds=1.0,
            reader_stall_seconds=0.6,
            trainer_busy_seconds=0.5,
        )
        assert ov.other_seconds == 0.0

    def test_from_run(self):
        from repro.distributed.trainer import TrainingReport

        training = TrainingReport(
            ingest_wait_seconds=1.0,
            step_wall_seconds=3.0,
            run_wall_seconds=4.5,
        )
        ov = OverlapReport.from_run(training)
        assert ov.wall_seconds == pytest.approx(4.5)
        assert ov.reader_stall_seconds == pytest.approx(1.0)
        assert ov.trainer_busy_seconds == pytest.approx(3.0)
        assert sum(ov.fractions.values()) == pytest.approx(1.0)
        # an explicit wall overrides the training report's
        wider = OverlapReport.from_run(training, wall_seconds=9.0)
        assert wider.wall_seconds == pytest.approx(9.0)

    def test_attributes_wall_clock_only(self):
        """Bytes live on the reader's ledger, the mode on the spec, the
        batch count in the training report, the queue waits on the
        fleet report: the overlap report holds the attribution alone,
        and the fold merges it field by field."""
        assert [f.name for f in fields(OverlapReport)] == [
            "wall_seconds",
            "reader_stall_seconds",
            "trainer_busy_seconds",
        ]
        assert "merge" not in vars(OverlapReport)
        params = {
            name: list(inspect.signature(getattr(OverlapReport, name)).parameters)
            for name in ("modeled", "from_run")
        }
        assert params == {
            "modeled": ["reader_wall_seconds", "trainer_busy_seconds"],
            "from_run": ["training", "wall_seconds"],
        }
        # nor does the tier thread a streaming flag toward it
        for cls in (JobRoundStat, TierJob):
            assert "streaming" not in {f.name for f in fields(cls)}

    def test_fleet_report_is_the_one_queue_home(self):
        """A run reports one ``QueueWaitBreakdown``, ``FleetReport.queue``,
        and the autoscaler reads the round's two times, not a report."""
        reports = [FleetReport, OverlapReport, PipelineResult, ReaderReport, TierReport]
        assert [
            (cls.__name__, f.name)
            for cls in reports
            for f in fields(cls)
            if f.type in (QueueWaitBreakdown, "QueueWaitBreakdown")
        ] == [("FleetReport", "queue")]
        assert list(inspect.signature(rescale).parameters) == [
            "spec",
            "reader_wall_seconds",
            "trainer_busy_seconds",
            "index",
            "width",
            "floor",
            "streak",
        ]
