"""Tests for the reader-fleet autoscaler: the control law (grow /
shrink / hold), hysteresis, bounds, and trace reproducibility."""

import pytest

from repro.metrics import (
    OverlapReport,
    QueueWaitBreakdown,
    ScalingDecision,
    ScalingTrace,
)
from repro.reader import ReaderAutoscaler


def _overlap(reader_wall, trainer_busy):
    return OverlapReport.modeled(
        reader_wall_seconds=reader_wall, trainer_busy_seconds=trainer_busy
    )


def _idle_readers(trainer_stall):
    """A round whose readers idle (a quarter of the trainer's busy time
    worth of reader work) while the trainer holds ``trainer_stall`` of
    the wall; the rest of the wall is outside the ingestion loop."""
    return OverlapReport(
        wall_seconds=1.0 / trainer_stall,
        trainer_busy_seconds=1.0,
        queue=QueueWaitBreakdown(put_wait=0.75),
    )


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ReaderAutoscaler(0)
        with pytest.raises(ValueError):
            ReaderAutoscaler(1, max_readers=0)
        with pytest.raises(ValueError):
            ReaderAutoscaler(1, target_stall=0.0)
        with pytest.raises(ValueError):
            ReaderAutoscaler(1, target_stall=1.0)

    def test_initial_width_clamped(self):
        assert ReaderAutoscaler(100, max_readers=8).num_readers == 8

    def test_decision_validation(self):
        with pytest.raises(ValueError):
            ScalingDecision(0, 0.5, 0.5, 1, "explode", 2)
        with pytest.raises(ValueError):
            ScalingDecision(0, 0.5, 0.5, 0, "grow", 2)


class TestControlLaw:
    def test_grows_proportionally_on_reader_stall(self):
        """Readers 4x slower than the trainer -> 4x the width."""
        scaler = ReaderAutoscaler(2, target_stall=0.10)
        new = scaler.observe(_overlap(reader_wall=4.0, trainer_busy=1.0))
        assert new == 8
        assert scaler.trace.actions == ["grow"]

    def test_grow_clamps_at_max_readers(self):
        scaler = ReaderAutoscaler(2, max_readers=4)
        assert scaler.observe(_overlap(100.0, 1.0)) == 4
        # still starving but can't grow further: hold, with the bound
        # named in the reason
        assert scaler.observe(_overlap(50.0, 1.0)) == 4
        last = scaler.trace.decisions[-1]
        assert last.action == "hold"
        assert "max_readers" in last.reason

    def test_holds_inside_band(self):
        scaler = ReaderAutoscaler(4, target_stall=0.10)
        # 5% stall: in band
        new = scaler.observe(_overlap(reader_wall=1.0, trainer_busy=0.95))
        assert new == 4
        assert scaler.trace.actions == ["hold"]

    def test_holds_on_empty_epoch(self):
        scaler = ReaderAutoscaler(4)
        assert scaler.observe(_overlap(0.0, 0.0)) == 4
        assert scaler.trace.actions == ["hold"]

    def test_shrink_requires_hysteresis(self):
        """One trainer-bound epoch must not shrink the fleet; two
        consecutive ones do, and the shrink is proportional."""
        scaler = ReaderAutoscaler(8)
        assert scaler.observe(_overlap(0.25, 1.0)) == 8  # streak 1: hold
        assert scaler.trace.actions[-1] == "hold"
        assert scaler.observe(_overlap(0.25, 1.0)) == 2  # streak 2: shrink
        assert scaler.trace.actions[-1] == "shrink"

    def test_in_band_epoch_resets_shrink_streak(self):
        scaler = ReaderAutoscaler(8)
        scaler.observe(_overlap(0.25, 1.0))  # shrink streak 1
        scaler.observe(_overlap(1.0, 1.0))  # balanced: streak resets
        assert scaler.observe(_overlap(0.25, 1.0)) == 8  # streak 1 again
        assert scaler.num_readers == 8

    def test_shrink_never_below_the_decision_floor(self):
        scaler = ReaderAutoscaler(4)
        assert scaler.observe(_overlap(0.01, 1.0), min_readers=3) == 4
        assert scaler.observe(_overlap(0.01, 1.0), min_readers=3) == 3

    def test_shrink_needs_three_quarters_trainer_stall(self):
        """Idle readers alone shrink nothing: the trainer must hold at
        least 75 % of the wall, for two rounds running."""
        below = ReaderAutoscaler(8)
        for _ in range(4):
            assert below.observe(_idle_readers(0.7)) == 8
        assert below.trace.actions == ["hold"] * 4
        assert "within target" in below.trace.decisions[-1].reason

        above = ReaderAutoscaler(8)
        assert above.observe(_idle_readers(0.8)) == 8
        assert above.observe(_idle_readers(0.8)) == 2
        assert above.trace.actions == ["hold", "shrink"]

    def test_shrink_floor_defaults_to_one_reader(self):
        """With no decision floor, a round with no reader work at all
        proposes width 0; the shrink lands on one reader."""
        scaler = ReaderAutoscaler(4)
        scaler.observe(_overlap(0.0, 1.0))
        assert scaler.observe(_overlap(0.0, 1.0)) == 1
        assert scaler.trace.actions == ["hold", "shrink"]

    def test_grow_then_settle(self):
        """The driving scenario: reader-bound at width 1, one
        proportional grow lands in the band, then holds forever."""
        scaler = ReaderAutoscaler(1, target_stall=0.10)
        w = scaler.observe(_overlap(12.0, 1.0))
        assert w == 12
        for _ in range(3):
            # at width 12 the modeled reader wall matches the trainer
            w = scaler.observe(_overlap(1.0, 1.0))
        assert w == 12
        assert scaler.trace.actions == ["grow", "hold", "hold", "hold"]
        assert scaler.trace.converged_epoch == 1


class TestTrace:
    def test_records_every_field(self):
        scaler = ReaderAutoscaler(2, target_stall=0.10)
        scaler.observe(_overlap(4.0, 1.0), epoch=7)
        (d,) = scaler.trace.decisions
        assert d.epoch == 7
        assert d.width_before == 2 and d.width_after == 8
        assert d.action == "grow"
        assert d.reader_stall_fraction == pytest.approx(0.75)
        assert d.trainer_stall_fraction == pytest.approx(0.25)
        assert "target" in d.reason

    def test_as_rows_roundtrip(self):
        scaler = ReaderAutoscaler(1)
        scaler.observe(_overlap(3.0, 1.0))
        scaler.observe(_overlap(1.0, 1.0))
        rows = scaler.trace.as_rows()
        assert [r["epoch"] for r in rows] == [0, 1]
        assert rows[0]["action"] == "grow"
        assert scaler.trace.widths == [1, 3]
        assert scaler.trace.final_width == 3

    def test_converged_epoch_requires_staying_in_band(self):
        trace = ScalingTrace(target_stall=0.10)

        def mk(e, rs):
            return ScalingDecision(e, rs, 1 - rs, 1, "hold", 1)

        trace.record(mk(0, 0.05))  # in band...
        trace.record(mk(1, 0.50))  # ...but leaves it
        trace.record(mk(2, 0.02))
        trace.record(mk(3, 0.01))
        assert trace.converged_epoch == 2
        assert ScalingTrace(target_stall=0.1).converged_epoch is None

    def test_identical_inputs_identical_traces(self):
        """The determinism contract: same observations -> same trace."""
        a = ReaderAutoscaler(1)
        b = ReaderAutoscaler(1)
        inputs = [(5.0, 1.0), (1.0, 1.0), (0.2, 1.0), (0.2, 1.0)]
        for rw, tb in inputs:
            a.observe(_overlap(rw, tb))
            b.observe(_overlap(rw, tb))
        assert a.trace.as_rows() == b.trace.as_rows()

    def test_steers_on_raw_rounds(self):
        """Each decision steers on its own round's fractions: these rows
        pin the control law's grow / hold / hysteresis outputs."""
        scaler = ReaderAutoscaler(2)
        for rw, tb in [(4.0, 1.0), (1.0, 1.0), (0.1, 1.0)]:
            scaler.observe(_overlap(rw, tb))

        def row(epoch, action, rsf, before, after, reason):
            return {
                "epoch": epoch,
                "reader_stall_fraction": rsf,
                "trainer_stall_fraction": 1.0 - rsf,
                "width_before": before,
                "action": action,
                "width_after": after,
                "reason": reason,
            }

        assert scaler.trace.as_rows() == [
            row(0, "grow", 0.75, 2, 8, "reader-stall 0.75 > target 0.10"),
            row(1, "hold", 0.0, 8, 8, "reader-stall 0.00 within target 0.10"),
            row(
                2,
                "hold",
                0.0,
                8,
                8,
                "trainer-stall 1.00 dominates; waiting out hysteresis (1/2)",
            ),
        ]


class TestModeledOverlap:
    def test_reader_bound_attribution(self):
        ov = OverlapReport.modeled(4.0, 1.0)
        assert ov.wall_seconds == 4.0
        assert ov.reader_stall_fraction == pytest.approx(0.75)
        assert ov.queue.put_wait == 0.0
        assert sum(ov.fractions.values()) == pytest.approx(1.0)

    def test_trainer_bound_attribution(self):
        ov = OverlapReport.modeled(1.0, 4.0)
        assert ov.wall_seconds == 4.0
        assert ov.reader_stall_fraction == 0.0
        assert ov.trainer_stall_fraction == 1.0
        # readers idle 3s against full queues
        assert ov.queue.put_wait == pytest.approx(3.0)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            OverlapReport.modeled(-1.0, 1.0)
