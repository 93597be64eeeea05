"""Hypothesis chaos properties: any seeded plan is harmless to losses.

These generate whole fault plans from seeds and execute them over live
sessions, so they are marked ``chaos`` and run in the opt-in tier
(``pytest -m chaos``).  The properties are the simulator's contract:

* **bit-identity** — whatever the plan throws at the tier, every job's
  stitched loss trajectory equals its clean, fault-free run exactly;
* **allocation invariants** — each round leases at most the pool's
  width and at least one worker per scheduled job, and no job is ever
  skipped two rounds in a row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.workloads import rm1, rm2
from repro.sim import FaultPlan, Scenario
from repro.sim.scenarios import _job

pytestmark = pytest.mark.chaos


def _scenario(plan):
    jobs = (
        ("alpha", _job(rm1(scale=0.15), seed=21, epochs=3, sessions=40)),
        ("beta", _job(rm2(scale=0.15), seed=22, epochs=3, sessions=40)),
    )
    return Scenario("seeded", "a seeded plan", jobs, plan, width=4)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_any_seeded_plan_preserves_loss_bit_identity(seed):
    plan = FaultPlan.seeded(
        seed,
        ["alpha", "beta"],
        rounds=6,
        crashes=2,
        stragglers=2,
        preemptions=2,
    )
    scenario = _scenario(plan)
    result = scenario.run()
    baseline = scenario.baseline()
    assert sorted(result.losses) == ["alpha", "beta"]
    for job in ("alpha", "beta"):
        assert len(result.losses[job]) == 6  # 3 epochs x 2 batches
        assert result.losses[job] == baseline[job], (
            f"seed {seed}: {job} losses diverged under plan {plan}"
        )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_any_seeded_plan_keeps_allocation_invariants(seed):
    plan = FaultPlan.seeded(
        seed,
        ["alpha", "beta"],
        rounds=6,
        crashes=1,
        stragglers=1,
        preemptions=2,
    )
    result = _scenario(plan).run()
    tier = result.tier
    for rnd, width in zip(tier.rounds, tier.widths):
        leased = sum(s.workers for s in rnd.stats)
        assert leased <= width
        assert all(s.workers >= 1 for s in rnd.stats)
        # A job is active-but-unserved only via the skipped list.
        assert not (set(rnd.skipped) & {s.job for s in rnd.stats})
    for job in tier.jobs:
        assert tier.max_consecutive_skips(job) <= 1
    # The SLO rollup agrees with the rounds it summarizes.
    assert result.slo.max_starved_rounds == max(
        (j.starved_rounds for j in result.slo.jobs), default=0
    )
    assert result.slo.total_wall_seconds == pytest.approx(
        sum(r.modeled_wall_seconds for r in tier.rounds)
    )
