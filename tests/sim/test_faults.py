"""Unit tests for the fault-plan data model (fast, tier-1)."""

import pytest

from repro.sim import (
    Arrival,
    CrashFault,
    FaultPlan,
    Preemption,
    StragglerFault,
)


class TestEventValidation:
    def test_negative_round_rejected(self):
        with pytest.raises(ValueError, match="round must be non-negative"):
            CrashFault(round=-1, job="a")
        with pytest.raises(ValueError, match="round must be non-negative"):
            StragglerFault(round=-2, job="a")
        with pytest.raises(ValueError, match="round must be non-negative"):
            Preemption(round=-1, job="a")
        with pytest.raises(ValueError, match="round must be non-negative"):
            Arrival(round=-1, name="a", spec=None)

    def test_crash_bounds(self):
        with pytest.raises(ValueError, match="shard must be non-negative"):
            CrashFault(round=0, job="a", shard=-1)
        with pytest.raises(ValueError, match="lost_fraction"):
            CrashFault(round=0, job="a", lost_fraction=1.5)
        with pytest.raises(ValueError, match="lost_fraction"):
            CrashFault(round=0, job="a", lost_fraction=-0.1)

    def test_straggler_bounds(self):
        with pytest.raises(ValueError, match="shard must be non-negative"):
            StragglerFault(round=0, job="a", shard=-1)
        with pytest.raises(ValueError, match="factor must be >= 1.0"):
            StragglerFault(round=0, job="a", factor=0.5)

    def test_preemption_resume_after(self):
        with pytest.raises(ValueError, match="resume_after must be >= 1"):
            Preemption(round=1, job="a", resume_after=0)

    def test_arrival_needs_name(self):
        with pytest.raises(ValueError, match="name must be non-empty"):
            Arrival(round=0, name="", spec=None)


class TestPlanValidation:
    def test_duplicate_preemption_rejected(self):
        with pytest.raises(ValueError, match="duplicate preemption"):
            FaultPlan(
                preemptions=(
                    Preemption(round=1, job="a"),
                    Preemption(round=1, job="a", resume_after=2),
                )
            )

    def test_same_job_different_rounds_ok(self):
        plan = FaultPlan(
            preemptions=(
                Preemption(round=1, job="a"),
                Preemption(round=3, job="a"),
            )
        )
        assert len(plan.preemptions) == 2

    def test_duplicate_arrival_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate arrival names"):
            FaultPlan(
                arrivals=(
                    Arrival(round=0, name="x", spec=None),
                    Arrival(round=2, name="x", spec=None),
                )
            )


class TestFleetFaultMerge:
    def test_clean_round_is_none(self):
        plan = FaultPlan(crashes=(CrashFault(round=1, job="a"),))
        assert plan.fleet_faults(0, "a") is None
        assert plan.fleet_faults(1, "b") is None

    def test_crash_and_straggler_merge(self):
        plan = FaultPlan(
            crashes=(
                CrashFault(round=1, job="a", shard=3, lost_fraction=0.2),
                CrashFault(round=1, job="a", shard=1, lost_fraction=0.6),
            ),
            stragglers=(
                StragglerFault(round=1, job="a", shard=2, factor=2.0),
                StragglerFault(round=1, job="a", shard=2, factor=3.0),
            ),
        )
        faults = plan.fleet_faults(1, "a")
        assert faults.crashed_shards == (1, 3)  # sorted
        assert faults.straggler_factors == {2: 3.0}  # max factor wins
        assert faults.lost_fraction == 0.6  # worst case wins

    def test_straggler_only_uses_default_lost_fraction(self):
        plan = FaultPlan(
            stragglers=(StragglerFault(round=0, job="a", factor=2.0),)
        )
        assert plan.fleet_faults(0, "a").lost_fraction == 0.5

