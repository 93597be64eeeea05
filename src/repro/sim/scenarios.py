"""The named scenario catalog behind ``repro simulate``.

Each scenario is a self-contained, seeded chaos experiment: a small
fleet of RM workload jobs (from :mod:`repro.datagen.workloads`), a
:class:`~repro.sim.faults.FaultPlan`, and a pool width.  The catalog
names the shapes the paper's production tier actually weathers:

* ``crash-resume`` — one worker crash plus a job preemption that
  checkpoints, sits out a round, and resumes (the CI chaos-smoke
  scenario).
* ``dedup-crash-resume`` — the same fault shape with every job
  streaming session-deduplicated IKJT batches (``ReaderSpec.dedup``),
  proving the dedup hot path rides out crashes and preemptions
  bit-identically.
* ``stragglers`` — slow shards dilating rounds without changing
  batches.
* ``wide-crash-resume`` — the crash/straggler/preempt shape on a
  width-64 pool (the serial executor keeps a 64-wide faulted tier
  tier-1-fast), one job streaming dedup batches
  over the shm transport.
* ``stream-crash-resume`` — two live-loop streaming jobs whose
  micro-partitions land on the modeled clock mid-run, weathering a
  crash, a straggler, and a preempt/resume; losses must match the
  land-everything-first baseline bit for bit (the CI stream-smoke
  scenario).
* ``churn`` — crashes, stragglers, a preemption, *and* a bursty
  mid-run arrival at once (the acceptance-criteria scenario).
* ``burst`` — a quiet tier hit by a wave of late arrivals.

A :class:`Scenario` runs itself: :meth:`Scenario.run` hands its plan
to one :class:`~repro.pipeline.session.Session`, which plays it (and
owns every preempted job's snapshot), and returns a
:class:`ScenarioResult`.  An ad-hoc plan is a scenario too:
``Scenario(name, description, jobs, plan, width=...)``.

Every scenario is deterministic given its seed: replaying it must
reproduce the identical fingerprint, and its stitched per-job losses
must equal the clean :meth:`Scenario.baseline` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datagen.workloads import rm1, rm2, rm3
from ..metrics.slo import SLOReport
from ..metrics.tier import TierReport
from ..pipeline.config import RecDToggles
from ..pipeline.session import Session
from ..pipeline.spec import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RetentionSpec,
    StreamSpec,
    TrainSpec,
)
from .faults import Arrival, CrashFault, FaultPlan, Preemption, StragglerFault

__all__ = [
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "build_scenario",
    "scenario_names",
]


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


@dataclass(frozen=True)
class Scenario:
    """One named, fully specified chaos experiment; :meth:`run` plays
    it, :meth:`baseline` runs its clean reference.

    Attributes:
        name: catalog name (the CLI's ``--scenario`` argument).
        description: one-line human summary.
        jobs: ``(name, spec)`` pairs admitted up front.
        plan: the misfortune schedule.
        width: the shared pool's width.
        freshness_slo: target p99 event-time → trained-on lag for
            streaming jobs (``None`` = no lag-boosted weights).
    """

    name: str
    description: str
    jobs: tuple[tuple[str, JobSpec], ...]
    plan: FaultPlan
    width: int = 6
    freshness_slo: float | None = None

    def run(self) -> ScenarioResult:
        """Play the plan over a fresh session, to completion.

        Raises:
            TypeError: if an arrival's spec is not a ``JobSpec``.
            ValueError: from Session validation (empty jobs, duplicate
                names, an arrival named like an initial job).
        """
        session = Session(
            [spec for _, spec in self.jobs],
            width=self.width,
            names=[name for name, _ in self.jobs],
            freshness_slo=self.freshness_slo,
            plan=self.plan,
        )
        session.run()
        report = session.tier.report
        losses = {
            name: session.segments.get(name, [])
            + session.runtime(name).trainer.report.losses
            for name in report.jobs
        }
        return ScenarioResult(
            slo=SLOReport.from_session(session),
            tier=report,
            losses=losses,
            trace=[e.as_dict() for e in session.events],
        )

    def baseline(self) -> dict[str, list[float]]:
        """Per-job loss trajectories with *no* faults, preemptions, or
        staggered arrivals — every job (initial and arriving) admitted
        up front in one clean session.

        This is the reference the bit-identity acceptance criterion
        compares against: a scenario run's stitched losses must equal
        these exactly.
        """
        jobs = [*self.jobs, *((a.name, a.spec) for a in self.plan.arrivals)]
        clean = Session(
            [spec for _, spec in jobs],
            width=self.width,
            names=[name for name, _ in jobs],
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


def _job(
    workload,
    *,
    seed: int,
    epochs: int = 4,
    sessions: int = 60,
    recd: bool = False,
    dedup: bool = False,
    transport: str = "copy",
    batch_size: int = 32,
    train_batches: int | None = 2,
    partitions: int = 1,
    stream: StreamSpec | None = None,
    retention: RetentionSpec | None = None,
) -> JobSpec:
    """A small, fast job spec for simulator scenarios.

    Simulator jobs run on the deterministic in-process executor —
    fault injection requires it — over tiny tables, so whole scenario
    sweeps stay test-tier fast.  Wide scenarios lift the per-epoch
    batch cap (``train_batches=None``) so a wide pool actually has a
    shard per worker.  ``dedup=True`` makes the job's fleet ship
    session-deduplicated IKJT batches (the streaming hot path) without
    touching batch size or layout; ``transport`` picks the batch
    handoff model (``copy`` or the zero-copy ``shm``).
    """
    return JobSpec(
        data=DataSpec(
            workload=workload,
            toggles=RecDToggles.full() if recd else RecDToggles.baseline(),
            num_sessions=sessions,
            num_partitions=partitions,
            seed=seed,
        ),
        reader=ReaderSpec(
            num_readers=2,
            dedup=dedup,
            transport=transport,
        ),
        train=TrainSpec(
            train_epochs=epochs,
            train_batches=train_batches,
            batch_size=batch_size,
        ),
        stream=stream,
        retention=retention,
    )


def _crash_resume(seed: int, scale: float) -> Scenario:
    """One crash, one straggler, one preempt/resume — the smoke shape."""
    jobs = (
        ("alpha", _job(rm1(scale=scale), seed=seed + 1, epochs=4)),
        ("beta", _job(rm2(scale=scale), seed=seed + 2, epochs=4, recd=True)),
    )
    plan = FaultPlan(
        crashes=(CrashFault(round=1, job="alpha", shard=0),),
        stragglers=(
            StragglerFault(round=2, job="beta", shard=1, factor=3.0),
        ),
        preemptions=(Preemption(round=2, job="alpha", resume_after=1),),
        seed=seed,
    )
    return Scenario(
        name="crash-resume",
        description=(
            "worker crash + straggler + one preemption that checkpoints "
            "and resumes bit-identically"
        ),
        jobs=jobs,
        plan=plan,
    )


def _dedup_crash_resume(seed: int, scale: float) -> Scenario:
    """The crash-resume shape with dedup streaming on every job.

    Both jobs ship session-deduplicated IKJT batches over the prefetch
    queues while a worker crashes, a shard straggles, and one job is
    preempted/checkpointed/resumed — the acceptance check that the
    dedup hot path survives the full fault surface bit-identically.
    """
    jobs = (
        (
            "alpha",
            _job(rm1(scale=scale), seed=seed + 1, epochs=4, dedup=True),
        ),
        (
            "beta",
            _job(rm2(scale=scale), seed=seed + 2, epochs=4, dedup=True),
        ),
    )
    plan = FaultPlan(
        crashes=(CrashFault(round=1, job="alpha", shard=0),),
        stragglers=(
            StragglerFault(round=2, job="beta", shard=1, factor=3.0),
        ),
        preemptions=(Preemption(round=2, job="alpha", resume_after=1),),
        seed=seed,
    )
    return Scenario(
        name="dedup-crash-resume",
        description=(
            "crash + straggler + preempt/resume with session-dedup "
            "IKJT streaming on every job"
        ),
        jobs=jobs,
        plan=plan,
    )


def _wide_crash_resume(seed: int, scale: float) -> Scenario:
    """The crash-resume shape on a width-64 pool.

    Both jobs lift the per-epoch batch cap and shrink the batch size so
    a 64-wide pool really fans out (an epoch never plans more shards
    than batches); the serial executor keeps the whole faulted run
    deterministic and tier-1-fast at that width.  ``beta`` also
    streams dedup batches over the zero-copy shm transport — the
    compounding configuration — while a worker crashes, a shard
    straggles, and ``alpha`` is preempted/checkpointed/resumed.
    """
    wide = dict(
        epochs=3,
        sessions=48,
        batch_size=12,
        train_batches=None,
    )
    jobs = (
        ("alpha", _job(rm1(scale=scale), seed=seed + 1, **wide)),
        (
            "beta",
            _job(
                rm2(scale=scale),
                seed=seed + 2,
                dedup=True,
                transport="shm",
                **wide,
            ),
        ),
    )
    plan = FaultPlan(
        crashes=(CrashFault(round=1, job="alpha", shard=7),),
        stragglers=(
            StragglerFault(round=2, job="beta", shard=13, factor=3.0),
        ),
        preemptions=(Preemption(round=2, job="alpha", resume_after=1),),
        seed=seed,
    )
    return Scenario(
        name="wide-crash-resume",
        description=(
            "width-64 tier: crash + straggler + preempt/resume "
            "with dedup+shm streaming on one job, bit-identical to the "
            "uninterrupted run"
        ),
        jobs=jobs,
        plan=plan,
        width=64,
    )


def _stream_crash_resume(seed: int, scale: float) -> Scenario:
    """Live landing under fire: two streaming jobs, crash + preempt.

    Both jobs train on micro-partitions that land on the modeled clock
    *while* the tier schedules them — ``alpha`` over a rolling 2-tick
    retention window, ``beta`` over the growing full history — and the
    plan crashes a worker, straggles a shard, and preempts/resumes
    ``alpha`` mid-stream.  The acceptance check: the stitched losses
    must equal a run whose entire stream was landed before round one,
    bit for bit, and the replayed fingerprint (including every
    freshness lag) must be identical.
    """
    jobs = (
        (
            "alpha",
            _job(
                rm1(scale=scale),
                seed=seed + 1,
                epochs=5,
                partitions=4,
                stream=StreamSpec(interval_seconds=60.0),
                retention=RetentionSpec(window=2),
            ),
        ),
        (
            "beta",
            _job(
                rm2(scale=scale),
                seed=seed + 2,
                epochs=4,
                partitions=3,
                stream=StreamSpec(
                    interval_seconds=45.0, land_latency_seconds=10.0
                ),
            ),
        ),
    )
    plan = FaultPlan(
        crashes=(CrashFault(round=1, job="alpha", shard=0),),
        stragglers=(
            StragglerFault(round=2, job="beta", shard=1, factor=3.0),
        ),
        preemptions=(Preemption(round=2, job="alpha", resume_after=1),),
        seed=seed,
    )
    return Scenario(
        name="stream-crash-resume",
        description=(
            "micro-partitions land on the live clock while a crash, a "
            "straggler, and a preempt/resume hit the tier; losses match "
            "the land-everything-first baseline bit for bit"
        ),
        jobs=jobs,
        plan=plan,
        freshness_slo=120.0,
    )


def _stragglers(seed: int, scale: float) -> Scenario:
    """Slow shards only: wall dilates, batches never change."""
    jobs = (
        ("alpha", _job(rm1(scale=scale), seed=seed + 1)),
        ("beta", _job(rm2(scale=scale), seed=seed + 2)),
        ("gamma", _job(rm3(scale=scale), seed=seed + 3, recd=True)),
    )
    plan = FaultPlan(
        stragglers=(
            StragglerFault(round=0, job="alpha", shard=0, factor=2.0),
            StragglerFault(round=1, job="beta", shard=1, factor=4.0),
            StragglerFault(round=2, job="gamma", shard=0, factor=2.5),
        ),
        seed=seed,
    )
    return Scenario(
        name="stragglers",
        description="straggling shards dilate rounds; losses untouched",
        jobs=jobs,
        plan=plan,
    )


def _churn(seed: int, scale: float) -> Scenario:
    """Everything at once — the acceptance-criteria scenario."""
    jobs = (
        ("alpha", _job(rm1(scale=scale), seed=seed + 1, epochs=5)),
        ("beta", _job(rm2(scale=scale), seed=seed + 2, epochs=4, recd=True)),
    )
    plan = FaultPlan(
        crashes=(
            CrashFault(round=0, job="beta", shard=1, lost_fraction=0.7),
            CrashFault(round=3, job="alpha", shard=0),
        ),
        stragglers=(
            StragglerFault(round=1, job="alpha", shard=2, factor=2.5),
        ),
        preemptions=(Preemption(round=2, job="alpha", resume_after=2),),
        arrivals=(
            Arrival(
                round=1,
                name="late",
                spec=_job(rm3(scale=scale), seed=seed + 9, epochs=3),
            ),
        ),
        seed=seed,
    )
    return Scenario(
        name="churn",
        description=(
            "crashes + straggler + preempt/resume + a bursty mid-run "
            "arrival, all in one run"
        ),
        jobs=jobs,
        plan=plan,
    )


def _burst(seed: int, scale: float) -> Scenario:
    """A quiet tier hit by a wave of arrivals."""
    jobs = (("alpha", _job(rm1(scale=scale), seed=seed + 1, epochs=6)),)
    plan = FaultPlan(
        arrivals=(
            Arrival(
                round=1,
                name="burst0",
                spec=_job(rm2(scale=scale), seed=seed + 4, epochs=3),
            ),
            Arrival(
                round=1,
                name="burst1",
                spec=_job(rm3(scale=scale), seed=seed + 5, epochs=3),
            ),
            Arrival(
                round=2,
                name="burst2",
                spec=_job(
                    rm2(scale=scale), seed=seed + 6, epochs=2, recd=True
                ),
            ),
        ),
        seed=seed,
    )
    return Scenario(
        name="burst",
        description="bursty arrivals pile onto a quiet tier mid-run",
        jobs=jobs,
        plan=plan,
    )


#: catalog: scenario name -> factory(seed, scale)
SCENARIOS = {
    "crash-resume": _crash_resume,
    "dedup-crash-resume": _dedup_crash_resume,
    "wide-crash-resume": _wide_crash_resume,
    "stream-crash-resume": _stream_crash_resume,
    "stragglers": _stragglers,
    "churn": _churn,
    "burst": _burst,
}


def scenario_names() -> list[str]:
    """The catalog's scenario names, sorted."""
    return sorted(SCENARIOS)


def build_scenario(
    name: str, *, seed: int = 0, scale: float = 0.25
) -> Scenario:
    """Instantiate a named scenario from the catalog.

    Args:
        name: a name from :func:`scenario_names`.
        seed: the scenario's seed (jobs and plan both derive from it).
        scale: workload scale factor (smaller = faster).

    Raises:
        KeyError: for an unknown scenario name.
        ValueError: for a negative seed, or a scale the workloads
            reject.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        )
    # checked before the jobs derive their own seeds from it, so the
    # error carries the seed the caller gave
    if seed < 0:
        raise ValueError(f"DataSpec.seed must be non-negative, got {seed}")
    return SCENARIOS[name](seed, scale)
