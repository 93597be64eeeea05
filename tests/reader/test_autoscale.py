"""Tests for the reader-pool control law, ``rescale``: grow / shrink /
hold, hysteresis, bounds, and decision reproducibility."""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.metrics import OverlapReport, ScalingDecision, ScalingTrace
from repro.reader import SharedReaderTier, rescale
from repro.reader.autoscale import ScalingSpec


def _overlap(reader_wall, trainer_busy):
    """One round's modeled ``(reader wall, trainer time)``."""
    return reader_wall, trainer_busy


def _run(width, rounds, *, floor=1, target_stall=0.10, max_readers=32):
    """Fold ``rescale`` over one round's times per round from ``width``,
    as the tier does: each decision's ``width_after`` and streak feed
    the next round.  Returns the decisions and the streak left behind."""
    spec = ScalingSpec(target_stall, max_readers)
    decisions, streak = [], 0
    for index, (reader_wall, trainer_busy) in enumerate(rounds):
        decision, streak = rescale(
            spec, reader_wall, trainer_busy, index, width, floor, streak
        )
        decisions.append(decision)
        width = decision.width_after
    return decisions, streak


def _widths(decisions):
    return [d.width_after for d in decisions]


def _actions(decisions):
    return [d.action for d in decisions]


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            SharedReaderTier(0, scaling=ScalingSpec())
        with pytest.raises(ValueError):
            ScalingSpec(max_readers=0)
        with pytest.raises(ValueError):
            ScalingSpec(target_stall=0.0)
        with pytest.raises(ValueError):
            ScalingSpec(target_stall=1.0)

    def test_initial_width_clamped(self):
        """The starting width is bounded by ``max_readers``: a tier
        asked to start wider refuses, naming both."""
        with pytest.raises(ValueError, match=r"max_readers \(8\).*\(100\)"):
            SharedReaderTier(100, scaling=ScalingSpec(max_readers=8))

    def test_decision_validation(self):
        with pytest.raises(ValueError):
            ScalingDecision(0, 0.5, 0.5, 1, "explode", 2)
        with pytest.raises(ValueError):
            ScalingDecision(0, 0.5, 0.5, 0, "grow", 2)


class TestControlLaw:
    def test_grows_proportionally_on_reader_stall(self):
        """Readers 4x slower than the trainer -> 4x the width."""
        decisions, _ = _run(2, [_overlap(reader_wall=4.0, trainer_busy=1.0)])
        assert _widths(decisions) == [8]
        assert _actions(decisions) == ["grow"]

    def test_grow_clamps_at_max_readers(self):
        decisions, _ = _run(
            2, [_overlap(100.0, 1.0), _overlap(50.0, 1.0)], max_readers=4
        )
        # still starving but can't grow further: hold, with the bound
        # named in the reason
        assert _widths(decisions) == [4, 4]
        last = decisions[-1]
        assert last.action == "hold"
        assert "max_readers" in last.reason

    def test_holds_inside_band(self):
        # 5% stall: in band
        decisions, _ = _run(4, [_overlap(reader_wall=1.0, trainer_busy=0.95)])
        assert _widths(decisions) == [4]
        assert _actions(decisions) == ["hold"]

    def test_holds_on_empty_epoch(self):
        decisions, _ = _run(4, [_overlap(0.0, 0.0)])
        assert _widths(decisions) == [4]
        assert _actions(decisions) == ["hold"]

    def test_shrink_requires_hysteresis(self):
        """One trainer-bound epoch must not shrink the fleet; two
        consecutive ones do, and the shrink is proportional."""
        decisions, streak = _run(8, [_overlap(0.25, 1.0)] * 2)
        assert _widths(decisions) == [8, 2]  # streak 1: hold; 2: shrink
        assert _actions(decisions) == ["hold", "shrink"]
        assert streak == 0

    def test_in_band_epoch_resets_shrink_streak(self):
        decisions, streak = _run(
            8,
            [
                _overlap(0.25, 1.0),  # shrink streak 1
                _overlap(1.0, 1.0),  # balanced: streak resets
                _overlap(0.25, 1.0),  # streak 1 again
            ],
        )
        assert _widths(decisions) == [8, 8, 8]
        assert streak == 1

    def test_shrink_never_below_the_decision_floor(self):
        decisions, _ = _run(4, [_overlap(0.01, 1.0)] * 2, floor=3)
        assert _widths(decisions) == [4, 3]

    def test_shrink_needs_three_quarters_trainer_stall(self):
        """A width above ``max_readers`` proposes a shrink even on a
        reader-bound round in band; the fleet shrinks only once the
        trainer holds at least 75 % of the wall, two rounds running."""
        bounded = dict(target_stall=0.5, max_readers=4)
        below, _ = _run(8, [_overlap(1.0 / 0.7, 1.0)] * 4, **bounded)
        assert _widths(below) == [8] * 4
        assert _actions(below) == ["hold"] * 4
        assert "within target" in below[-1].reason

        above, _ = _run(8, [_overlap(1.0 / 0.8, 1.0)] * 2, **bounded)
        assert _widths(above) == [8, 4]
        assert _actions(above) == ["hold", "shrink"]

    def test_shrink_floor_of_one_reader(self):
        """At a floor of one reader, a round with no reader work at all
        proposes width 0; the shrink lands on one reader."""
        decisions, _ = _run(4, [_overlap(0.0, 1.0)] * 2)
        assert _widths(decisions) == [4, 1]
        assert _actions(decisions) == ["hold", "shrink"]

    def test_grow_then_settle(self):
        """The driving scenario: reader-bound at width 1, one
        proportional grow lands in the band, then holds forever."""
        # at width 12 the modeled reader wall matches the trainer
        decisions, _ = _run(1, [_overlap(12.0, 1.0)] + [_overlap(1.0, 1.0)] * 3)
        assert _widths(decisions) == [12] * 4
        assert _actions(decisions) == ["grow", "hold", "hold", "hold"]
        assert ScalingTrace(0.10, decisions).converged_epoch == 1


class TestTrace:
    def test_records_every_field(self):
        d, _ = rescale(ScalingSpec(0.10), 4.0, 1.0, 7, 2, 1, 0)
        assert d.epoch == 7
        assert d.width_before == 2 and d.width_after == 8
        assert d.action == "grow"
        assert d.reader_stall_fraction == pytest.approx(0.75)
        assert d.trainer_stall_fraction == pytest.approx(0.25)
        assert "target" in d.reason

    def test_as_rows_roundtrip(self):
        decisions, _ = _run(1, [_overlap(3.0, 1.0), _overlap(1.0, 1.0)])
        trace = ScalingTrace(0.10, decisions)
        rows = trace.as_rows()
        assert [r["epoch"] for r in rows] == [0, 1]
        assert rows[0]["action"] == "grow"
        assert trace.widths == [1, 3]
        assert trace.final_width == 3

    def test_converged_epoch_requires_staying_in_band(self):
        def mk(e, rs):
            return ScalingDecision(e, rs, 1 - rs, 1, "hold", 1)

        trace = ScalingTrace(
            target_stall=0.10,
            decisions=[
                mk(0, 0.05),  # in band...
                mk(1, 0.50),  # ...but leaves it
                mk(2, 0.02),
                mk(3, 0.01),
            ],
        )
        assert trace.converged_epoch == 2
        assert ScalingTrace(target_stall=0.1).converged_epoch is None

    def test_identical_inputs_identical_traces(self):
        """The determinism contract: same observations -> same trace."""
        inputs = [(5.0, 1.0), (1.0, 1.0), (0.2, 1.0), (0.2, 1.0)]
        a, _ = _run(1, [_overlap(rw, tb) for rw, tb in inputs])
        b, _ = _run(1, [_overlap(rw, tb) for rw, tb in inputs])
        assert ScalingTrace(0.10, a).as_rows() == ScalingTrace(0.10, b).as_rows()

    def test_steers_on_raw_rounds(self):
        """Each decision steers on its own round's fractions: these rows
        pin the control law's grow / hold / hysteresis outputs."""
        decisions, _ = _run(
            2, [_overlap(rw, tb) for rw, tb in [(4.0, 1.0), (1.0, 1.0), (0.1, 1.0)]]
        )

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

        assert ScalingTrace(0.10, decisions).as_rows() == [
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


_seconds = st.floats(min_value=0.0, max_value=1e9)


@st.composite
def _observations(draw):
    """Any round's (reader wall, trainer time), spec, floor, width at
    or above the floor, and a streak of 0 or 1 — every input the tier
    can hand the law."""
    times = (draw(_seconds), draw(_seconds))
    max_readers = draw(st.integers(1, 64))
    spec = ScalingSpec(
        target_stall=draw(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
        ),
        max_readers=max_readers,
    )
    floor = draw(st.integers(1, max_readers))
    width = draw(st.integers(floor, 96))
    return spec, times, floor, width, draw(st.sampled_from([0, 1]))


class TestControlLawProperties:
    @given(_observations())
    @example(
        (  # reader wall over a subnormal trainer time overflows to inf
            ScalingSpec(),
            (1e9, 5e-324),
            1,
            4,
            0,
        )
    )
    def test_bounds_growth_and_streak(self, case):
        """The width stays within ``[floor, max(width, max_readers)]``,
        grows only on ``grow``, and the streak comes back non-zero only
        from a hysteresis ``hold``."""
        spec, (reader_wall, trainer_busy), floor, width, streak = case
        d, after = rescale(spec, reader_wall, trainer_busy, 0, width, floor, streak)
        assert d.width_before == width
        assert floor <= d.width_after <= max(width, spec.max_readers)
        if d.width_after > width:
            assert d.action == "grow"
        if d.action == "hold":
            assert d.width_after == width
        if after:
            assert d.action == "hold" and "hysteresis" in d.reason
            assert after == streak + 1

    @given(_observations(), st.data())
    def test_shrink_guard_binds_only_above_max_readers(self, case, data):
        """Up to ``max_readers``, every round that proposes a narrower
        width has ``tsf == 1.0``, so the trainer-stall guard never holds
        a shrink back: the round shrinks once the streak is due."""
        spec, (reader_wall, trainer_busy), floor, _, _ = case
        width = data.draw(st.integers(floor, spec.max_readers))
        assume(trainer_busy > 0.0)
        d, _ = rescale(spec, reader_wall, trainer_busy, 0, width, floor, 1)
        # the proportional width ceil(ratio) is below ``width`` exactly
        # when ratio <= width - 1, and the floor must leave room
        narrower = width * reader_wall / trainer_busy <= width - 1 and floor < width
        if narrower:
            assert d.trainer_stall_fraction == 1.0
            assert d.action == "shrink" and d.width_after < width
        else:
            assert d.action != "shrink"


class TestModeledOverlap:
    def test_reader_bound_attribution(self):
        ov = OverlapReport.modeled(4.0, 1.0)
        assert ov.wall_seconds == 4.0
        assert ov.reader_stall_fraction == pytest.approx(0.75)
        assert sum(ov.fractions.values()) == pytest.approx(1.0)

    def test_trainer_bound_attribution(self):
        ov = OverlapReport.modeled(1.0, 4.0)
        assert ov.wall_seconds == 4.0
        assert ov.reader_stall_fraction == 0.0
        assert ov.trainer_stall_fraction == 1.0

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            OverlapReport.modeled(-1.0, 1.0)
