"""Pipeline-level autoscaler tests: convergence into the target stall
band on a reader-bound workload, trace reproducibility under the
deterministic executor, and functional bit-identity with fixed-width
runs."""

import pytest

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RetentionSpec,
    ScalingSpec,
    Session,
    TrainSpec,
)


def _reader_bound(
    num_readers: int = 1,
    *,
    scaling: ScalingSpec | None = ScalingSpec(target_stall=0.10),
    train_epochs: int = 4,
    num_partitions: int = 1,
    retention: RetentionSpec | None = None,
) -> JobSpec:
    """A workload whose modeled reader CPU dwarfs the trainer's modeled
    step time at width 1 (~0.9 reader-stall), with enough batches per
    epoch for the fleet to spread out."""
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.25),
            num_sessions=80,
            num_partitions=num_partitions,
            seed=3,
        ),
        reader=ReaderSpec(num_readers=num_readers, executor="inprocess"),
        train=TrainSpec(
            train_epochs=train_epochs,
            train_batches=None,  # train the whole window
            batch_size=48,
        ),
        scaling=scaling,
        retention=retention,
    )


class TestConvergence:
    def test_converges_within_band_in_four_epochs(self, run_of):
        """The acceptance bar: a reader-bound workload must enter the
        target stall band within 4 epochs and stay there."""
        res = run_of(_reader_bound(1))
        trace = res.scaling
        assert trace is not None
        # epoch 0 really was reader-bound
        assert trace.decisions[0].reader_stall_fraction > 0.5
        assert trace.converged_epoch is not None
        assert trace.converged_epoch <= 3
        # once in the band it stays: every later observation in band
        for d in trace.decisions[trace.converged_epoch:]:
            assert trace.in_band(d.reader_stall_fraction)
        assert trace.final_width > 1

    def test_trace_reproducible_across_runs(self):
        """The acceptance bar: identical specs produce bit-identical
        ScalingTraces under the deterministic executor.  Both runs are
        deliberately uncached: this is what licenses ``run_of``."""
        a = Session(_reader_bound(1)).run()
        b = Session(_reader_bound(1)).run()
        assert a.scaling.as_rows() == b.scaling.as_rows()

    def test_shrinks_overprovisioned_fleet_with_hysteresis(self, run_of):
        res = run_of(_reader_bound(32))
        trace = res.scaling
        actions = [d.action for d in trace.decisions]
        assert "shrink" in actions
        # hysteresis: the shrink cannot be the very first action
        assert actions[0] == "hold"
        assert trace.final_width < 32

    def test_both_directions_agree(self, run_of):
        """Growing from 1 and shrinking from 32 settle in the same
        neighbourhood.  They need not match exactly: sharding has real
        modeled overhead (boundary stripes decode in both neighbouring
        shards), so aggregate reader CPU rises with width and the
        downward fixed point sits slightly above the upward one."""
        up = run_of(_reader_bound(1))
        down = run_of(_reader_bound(32, train_epochs=8))
        assert [d.action for d in down.scaling.decisions].count("shrink") >= 2
        assert (
            up.scaling.final_width
            <= down.scaling.final_width
            <= 2 * up.scaling.final_width
        )
        # and both ended inside the band
        for res in (up, down):
            last = res.scaling.decisions[-1]
            assert res.scaling.in_band(last.reader_stall_fraction)


    def test_decisions_are_pinned(self, run_of):
        """The exact width after each decision, and each action, that
        both directions take end to end: the bands above would let the
        control law drift unnoticed."""
        for spec, widths, actions in [
            (
                _reader_bound(1),
                [10, 10, 10, 10],
                ["grow", "hold", "hold", "hold"],
            ),
            (
                _reader_bound(32, train_epochs=8),
                [32, 16, 16, 14, 14, 13, 13, 13],
                ["hold", "shrink", "hold", "shrink"]
                + ["hold", "shrink", "hold", "hold"],
            ),
        ]:
            trace = run_of(spec).scaling
            assert [d.width_after for d in trace.decisions] == widths
            assert [d.action for d in trace.decisions] == actions


class TestFunctionalIdentity:
    def test_autoscale_keeps_losses_bit_identical(self, run_of):
        """Fleet width never changes which rows form which batch, so an
        autoscaled run trains bit-identically to any fixed width."""
        scaled = run_of(_reader_bound(1))
        fixed = run_of(_reader_bound(4, scaling=None))
        assert scaled.training.losses == fixed.training.losses

    def test_autoscale_off_records_no_trace(self):
        res = Session(_reader_bound(scaling=None, train_epochs=1)).run()
        assert res.scaling is None

    def test_autoscale_with_retention(self):
        """The two lifecycle knobs compose: the window slides while the
        fleet resizes."""
        res = Session(
            _reader_bound(
                num_partitions=4,
                train_epochs=3,
                retention=RetentionSpec(window=2),
            )
        ).run()
        assert res.scaling is not None
        assert len(res.scaling.decisions) == 3
        assert res.dropped_partitions == ["p0", "p1"]
        assert res.scaling.decisions[0].action == "grow"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScalingSpec(target_stall=0.0)
        with pytest.raises(ValueError):
            _reader_bound(8, scaling=ScalingSpec(max_readers=4))
        # the bound only applies to autoscale runs: a fixed-width fleet
        # wider than max_readers stays legal
        _reader_bound(64, scaling=None)
