"""The scenario runner: a fault plan executed over a live Session.

:class:`ScenarioRunner` injects events into the one drive loop
(:meth:`~repro.pipeline.session.Session.tick`): before every iteration
it applies the plan's due events — admit bursty arrivals, resume
checkpointed jobs, preempt victims (checkpointing them into the
session's :class:`~repro.trainer.checkpoint.ModelStore`) — and wires
the plan's crashes/stragglers into the tier's fault-injector hook.

Everything a run perturbs is the modeled cost surface; batch content
and model updates are untouched, so each job's stitched loss
trajectory (pre-preemption segments + resumed tail) is **bit-identical**
to the same job run clean — :meth:`ScenarioRunner.baseline` computes
that clean reference, and :meth:`ScenarioResult.fingerprint` is the
replay-stable digest the chaos tests compare across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from ..metrics.slo import SLOReport
from ..metrics.tier import TierReport
from ..pipeline.session import Session
from ..pipeline.spec import JobSpec
from ..storage.tectonic import TectonicFS
from ..trainer.checkpoint import ModelStore
from .faults import FaultPlan

__all__ = ["ScenarioResult", "ScenarioRunner"]


def _take_due(pending: list[tuple], rnd: int, order=itemgetter(1)):
    """Split ``(round, name, payload)`` events into those due by round
    ``rnd``, sorted by ``order`` (the name unless told otherwise), and
    the rest, kept in their original order."""
    due = sorted((e for e in pending if e[0] <= rnd), key=order)
    return due, [e for e in pending if e[0] > rnd]


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
    """Execute one :class:`~repro.sim.faults.FaultPlan` over a Session.

    Build with the scenario's jobs and plan, then :meth:`run`.  The
    runner owns a fresh :class:`~repro.trainer.checkpoint.ModelStore`
    (on its own simulated Tectonic namespace) unless one is passed in.
    """

    def __init__(
        self,
        jobs,
        plan: FaultPlan,
        *,
        width: int,
        names=None,
        policy: str = "stall_weighted",
        model_store: ModelStore | None = None,
        freshness_slo: float | None = None,
    ):
        """Configure the run.

        Args:
            jobs: the initially admitted job specs, in admission order.
            plan: the misfortune schedule.
            width: the shared pool's width.
            names: report names overriding each spec's own.
            policy: the tier's worker-allocation policy.
            model_store: snapshot store for preempted jobs; a fresh
                in-simulator store is created when ``None``.
            freshness_slo: target p99 event-time → trained-on lag for
                streaming jobs (the tier's lag-boosted weights).

        Raises:
            ValueError: from Session validation (empty jobs, duplicate
                names) or if an arrival's name collides with an initial
                job's.
        """
        self.plan = plan
        self.width = width
        self.policy = policy
        self.model_store = model_store or ModelStore(TectonicFS())
        self.session = Session(
            list(jobs),
            width=width,
            policy=policy,
            names=names,
            model_store=self.model_store,
            freshness_slo=freshness_slo,
        )
        clash = {a.name for a in plan.arrivals} & set(self.session.names)
        if clash:
            raise ValueError(
                f"arrival names collide with initial jobs: {sorted(clash)}"
            )

    def run(self) -> ScenarioResult:
        """Execute the plan to completion.

        Returns:
            The run's :class:`ScenarioResult`.

        Raises:
            RuntimeError: if called twice (the underlying Session runs
                once).
        """
        session = self.session
        plan = self.plan
        tier = session.prepare()

        trace: list[dict] = []

        def injector(round_index, name):
            """The plan's faults for one leased scan, traced."""
            faults = plan.fleet_faults(round_index, name)
            if faults is not None:
                trace.append(
                    {
                        "round": round_index,
                        "job": name,
                        "event": "fleet_faults",
                        "crashed_shards": list(faults.crashed_shards),
                        "straggler_factors": dict(
                            sorted(faults.straggler_factors.items())
                        ),
                        "lost_fraction": faults.lost_fraction,
                    }
                )
            return faults

        tier.fault_injector = injector

        segments: dict[str, list[float]] = {}
        pending_resumes: list[tuple[int, str, JobSpec]] = []
        pending_arrivals = [
            (a.round, a.name, a.spec) for a in plan.arrivals
        ]
        pending_preempts = [
            (p.round, p.job, p.resume_after) for p in plan.preemptions
        ]
        preempt_count = 0

        tier.start()
        while True:
            rnd = tier.round_index
            due, pending_arrivals = _take_due(pending_arrivals, rnd)
            for _, name, spec in due:
                session.admit(spec, name)
                trace.append(
                    {"round": rnd, "job": name, "event": "arrival"}
                )
            due, pending_resumes = _take_due(pending_resumes, rnd)
            for _, name, spec in due:
                session.admit(spec, name)
                trace.append(
                    {
                        "round": rnd,
                        "job": name,
                        "event": "resume",
                        "start_epoch": spec.checkpoint.start_epoch,
                    }
                )
            # Each preemption event fires at most once: if its round
            # arrives while the victim is descheduled (or after a
            # resume collapsed the idle gap back to this round), the
            # event is spent, not retried — otherwise a preempt whose
            # resume lands on the same round index would loop forever.
            due, pending_preempts = _take_due(
                pending_preempts, rnd, order=itemgetter(0, 1)
            )
            for _, job, resume_after in due:
                try:
                    runtime = session.runtime(job)
                except KeyError:
                    continue  # arrived later, or currently descheduled
                done = runtime.start_epoch + tier.epochs_completed(job)
                if done >= runtime.spec.train.train_epochs:
                    continue  # already finished; nothing to preempt
                losses = list(runtime.trainer.report.losses)
                resume_spec = session.preempt(job)
                segments.setdefault(job, []).extend(losses)
                pending_resumes.append(
                    (rnd + resume_after, job, resume_spec)
                )
                preempt_count += 1
                trace.append(
                    {
                        "round": rnd,
                        "job": job,
                        "event": "preempt",
                        "epochs_done": resume_spec.checkpoint.start_epoch,
                        "resume_round": rnd + resume_after,
                    }
                )
            if session.tick():
                continue
            if pending_resumes or pending_arrivals:
                # Nothing left to schedule but events still owed: the
                # idle gap collapses — everything pending is due now.
                pending_resumes = [
                    (rnd, n, s) for _, n, s in pending_resumes
                ]
                pending_arrivals = [
                    (rnd, n, s) for _, n, s in pending_arrivals
                ]
                continue
            break
        report = tier.finish()

        losses: dict[str, list[float]] = {}
        for name in report.jobs:
            full = list(segments.get(name, []))
            try:
                full.extend(session.runtime(name).trainer.report.losses)
            except KeyError:
                pass  # preempted with a full plan and never re-run
            losses[name] = full
        return ScenarioResult(
            slo=SLOReport.from_run(
                report, tier.job_fleets, preemptions=preempt_count
            ),
            tier=report,
            losses=losses,
            trace=trace,
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
        for a in self.plan.arrivals:
            specs.append(a.spec.with_(checkpoint=None))
            names.append(a.name)
        clean = Session(
            specs, width=self.width, policy=self.policy, names=names
        )
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
