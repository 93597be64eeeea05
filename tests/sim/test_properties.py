"""Hypothesis chaos properties: any drawn plan is harmless to losses.

These draw whole fault plans and execute them over live
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
from repro.sim import CrashFault, FaultPlan, Preemption, Scenario, StragglerFault
from repro.sim.scenarios import _job

pytestmark = pytest.mark.chaos


def _scenario(plan):
    jobs = (
        ("alpha", _job(rm1(scale=0.15), seed=21, epochs=3, sessions=40)),
        ("beta", _job(rm2(scale=0.15), seed=22, epochs=3, sessions=40)),
    )
    return Scenario("drawn", "a drawn plan", jobs, plan, width=4)


JOBS = st.sampled_from(["alpha", "beta"])
ROUNDS = st.integers(min_value=0, max_value=5)
SHARDS = st.integers(min_value=0, max_value=7)


@st.composite
def plans(draw, crashes, stragglers, preemptions):
    """A plan over the two jobs' six rounds: crashes and stragglers in
    any round, preemptions from round 1 (so a preempted job has an
    epoch done), at most one per (round, job)."""
    crash = st.builds(CrashFault, ROUNDS, JOBS, SHARDS,
                      st.floats(min_value=0.1, max_value=0.9))
    slow = st.builds(StragglerFault, ROUNDS, JOBS, SHARDS,
                     st.floats(min_value=1.5, max_value=4.0))
    preempt = st.builds(Preemption, st.integers(min_value=1, max_value=5),
                        JOBS, st.integers(min_value=1, max_value=2))
    return FaultPlan(
        crashes=tuple(draw(st.lists(crash, min_size=crashes, max_size=crashes))),
        stragglers=tuple(draw(st.lists(slow, min_size=stragglers, max_size=stragglers))),
        preemptions=tuple(draw(st.lists(
            preempt, min_size=1, max_size=preemptions,
            unique_by=lambda p: (p.round, p.job)))),
    )


@settings(max_examples=8, deadline=None)
@given(plan=plans(crashes=2, stragglers=2, preemptions=2))
def test_any_drawn_plan_preserves_loss_bit_identity(plan):
    scenario = _scenario(plan)
    result = scenario.run()
    baseline = scenario.baseline()
    assert sorted(result.losses) == ["alpha", "beta"]
    for job in ("alpha", "beta"):
        assert len(result.losses[job]) == 6  # 3 epochs x 2 batches
        assert result.losses[job] == baseline[job], (
            f"{job} losses diverged under plan {plan}"
        )


@settings(max_examples=8, deadline=None)
@given(plan=plans(crashes=1, stragglers=1, preemptions=2))
def test_any_drawn_plan_keeps_allocation_invariants(plan):
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
