"""Deterministic fault-injection scenario simulator (chaos, replayable).

The production reality the paper's tier lives in — reader workers
crash, shards straggle, jobs preempt and resume, new jobs burst in —
reproduced as *seeded, bit-replayable* scenarios over the real
:class:`~repro.pipeline.session.Session` /
:class:`~repro.reader.tier_scheduler.SharedReaderTier` stack:

* :mod:`repro.sim.faults` — :class:`FaultPlan`: the misfortune
  schedule (crashes, stragglers, preemptions, arrivals), hand-built or
  drawn from a seed.
* :mod:`repro.sim.scenarios` — :class:`Scenario`: jobs, a plan and a
  pool width that run themselves (:meth:`Scenario.run` hands the plan
  to one :class:`~repro.pipeline.session.Session`, which plays it
  inside its drive loop, checkpointing preempted jobs into its own
  :class:`~repro.trainer.checkpoint.ModelStore` and resuming them
  bit-identically, and returns a :class:`ScenarioResult`), plus the
  named catalog behind the ``repro simulate`` CLI subcommand.

The load-bearing invariant: faults perturb only the modeled cost
surface.  Batch content and model updates never depend on scheduling,
so every job's stitched loss trajectory equals its clean run bit for
bit, and replaying a seed reproduces the identical
:class:`~repro.metrics.slo.SLOReport` and fault trace.
"""

from .faults import Arrival, CrashFault, FaultPlan, Preemption, StragglerFault
from .scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioResult,
    build_scenario,
    scenario_names,
)

__all__ = [
    "Arrival",
    "CrashFault",
    "FaultPlan",
    "Preemption",
    "StragglerFault",
    "ScenarioResult",
    "SCENARIOS",
    "Scenario",
    "build_scenario",
    "scenario_names",
]
