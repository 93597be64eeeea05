"""The scenario runner: a fault plan played by a Session.

:class:`ScenarioRunner` hands its plan to a
:class:`~repro.pipeline.session.Session`, which plays it inside its one
drive loop (:meth:`~repro.pipeline.session.Session.tick`): each tick
admits the plan's due arrivals, resumes checkpointed jobs and preempts
victims (checkpointing them into the session's
:class:`~repro.trainer.checkpoint.ModelStore`), and the plan's
crashes/stragglers reach the tier through its fault-injector hook.
The runner only assembles the result.

Everything a run perturbs is the modeled cost surface; batch content
and model updates are untouched, so each job's stitched loss
trajectory (pre-preemption segments + resumed tail) is **bit-identical**
to the same job run clean — :meth:`ScenarioRunner.baseline` computes
that clean reference, and :meth:`ScenarioResult.fingerprint` is the
replay-stable digest the chaos tests compare across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.slo import SLOReport
from ..metrics.tier import TierReport
from ..pipeline.session import Session
from .faults import FaultPlan

__all__ = ["ScenarioResult", "ScenarioRunner"]


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    Attributes:
        slo: the run's service-level scoreboard.
        tier: the tier's round-by-round report.
        losses: per-job full loss trajectories, stitched across
            preemption segments — the bit-identity fingerprint.
        trace: the applied fault trace, in application order (plan
            events that never fired — e.g. a preemption scheduled past
            the run's end — are absent).
    """

    slo: SLOReport
    tier: TierReport
    losses: dict[str, list[float]] = field(default_factory=dict)
    trace: list[dict] = field(default_factory=list)

    def fingerprint(self) -> dict:
        """A replay-stable digest: same seed, same fingerprint, bit for
        bit — losses, SLO scoreboard, and fault trace."""
        return {
            "losses": {k: list(v) for k, v in self.losses.items()},
            "slo": self.slo.as_dict(),
            "trace": [dict(ev) for ev in self.trace],
        }


class ScenarioRunner:
    """Play one :class:`~repro.sim.faults.FaultPlan` over a Session.

    Build with the scenario's jobs and plan, then :meth:`run`.  The
    session owns a fresh :class:`~repro.trainer.checkpoint.ModelStore`
    (on its own simulated Tectonic namespace) for preempted jobs.
    """

    def __init__(
        self,
        jobs,
        plan: FaultPlan,
        *,
        width: int,
        names=None,
        freshness_slo: float | None = None,
    ):
        """Configure the run.

        Args:
            jobs: the initially admitted job specs, in admission order.
            plan: the misfortune schedule.
            width: the shared pool's width.
            names: report names overriding each spec's own.
            freshness_slo: target p99 event-time → trained-on lag for
                streaming jobs (the tier's lag-boosted weights).

        Raises:
            TypeError: if an arrival's spec is not a
                :class:`~repro.pipeline.spec.JobSpec`.
            ValueError: from Session validation (empty jobs, duplicate
                names, an arrival named like an initial job).
        """
        self.session = Session(
            list(jobs),
            width=width,
            names=names,
            freshness_slo=freshness_slo,
            plan=plan,
        )

    def run(self) -> ScenarioResult:
        """Play the plan to completion.

        Returns:
            The run's :class:`ScenarioResult`.

        Raises:
            RuntimeError: if called twice (the underlying Session runs
                once).
        """
        session = self.session
        session.run()
        report = session.tier.report
        losses = {
            name: session.segments.get(name, [])
            + session.runtime(name).trainer.report.losses
            for name in report.jobs
        }
        preemptions = sum(ev["event"] == "preempt" for ev in session.events)
        return ScenarioResult(
            slo=SLOReport.from_run(
                report, session.tier.job_fleets, preemptions=preemptions
            ),
            tier=report,
            losses=losses,
            trace=session.events,
        )

    def baseline(self) -> dict[str, list[float]]:
        """Per-job loss trajectories with *no* faults, preemptions, or
        staggered arrivals — every job (initial and arriving) admitted
        up front in one clean session.

        This is the reference the bit-identity acceptance criterion
        compares against: a scenario run's stitched losses must equal
        these exactly.
        """
        specs = [s.with_(checkpoint=None) for s in self.session.specs]
        names = list(self.session.names)
        for a in self.session.plan.arrivals:
            specs.append(a.spec.with_(checkpoint=None))
            names.append(a.name)
        clean = Session(specs, width=self.session.width, names=names)
        # Land-everything-first: the strongest reference for a
        # streamed scenario — the live loop's losses must match a
        # run whose whole stream was on disk before round one (a
        # static job's already is: for it this lands nothing).
        clean.prepare()
        clean.land_all_streams()
        result = clean.run()
        return {
            job.name: list(job.training.losses) for job in result.jobs
        }
