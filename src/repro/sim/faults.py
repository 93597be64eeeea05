"""Seeded fault plans: what goes wrong, when, deterministically.

A :class:`FaultPlan` is the full misfortune schedule for one scenario
run — reader-worker crashes, straggling shards, job preemptions (with
checkpoint/resume), and bursty mid-run job arrivals — keyed by the
tier's *round* index, the only clock the scheduler has.  Plans are
plain frozen data: build one by hand, as every scenario in the catalog
does, or let hypothesis generate adversarial ones in the chaos test
tier.

A plan is the only way to fault a run: a :class:`~repro.pipeline.spec.JobSpec`
carries no faults, and :meth:`FaultPlan.fleet_faults` has exactly the
signature of the tier's ``fault_injector(round_index, job_name)`` hook,
which a session built with the plan sets.  A single-job tier runs one
epoch per round, so for a solo job, faulting round *r* faults its
epoch *r*.

Injected :class:`~repro.reader.fleet.FleetFaults` need the
deterministic ``inprocess`` executor, whose crash/straggler arithmetic
is bit-reproducible at any width — the
``wide-crash-resume`` scenario's width-64 tier included.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..reader.fleet import FleetFaults

__all__ = [
    "CrashFault",
    "StragglerFault",
    "Preemption",
    "Arrival",
    "FaultPlan",
]


def _require_round(kind: str, value: int) -> None:
    """Raise unless ``value`` is a valid (non-negative) round index."""
    if value < 0:
        raise ValueError(f"{kind}.round must be non-negative, got {value}")


@dataclass(frozen=True)
class CrashFault:
    """One reader-worker crash: the shard's scan is redone.

    Attributes:
        round: tier round the crash lands in.
        job: the job whose leased fleet takes the hit.
        shard: shard position (modulo the epoch's shard count).
        lost_fraction: fraction of the shard's work lost and redone.
    """

    round: int
    job: str
    shard: int = 0
    lost_fraction: float = 0.5

    def __post_init__(self) -> None:
        _require_round("CrashFault", self.round)
        if self.shard < 0:
            raise ValueError(
                f"CrashFault.shard must be non-negative, got {self.shard}"
            )
        if not 0.0 <= self.lost_fraction <= 1.0:
            raise ValueError(
                "CrashFault.lost_fraction must be in [0, 1], got "
                f"{self.lost_fraction}"
            )


@dataclass(frozen=True)
class StragglerFault:
    """One straggling shard: its scan costs ``factor``x the CPU.

    Attributes:
        round: tier round the slowdown lands in.
        job: the job whose leased fleet takes the hit.
        shard: shard position (modulo the epoch's shard count).
        factor: CPU slowdown factor, >= 1.0.
    """

    round: int
    job: str
    shard: int = 0
    factor: float = 2.0

    def __post_init__(self) -> None:
        _require_round("StragglerFault", self.round)
        if self.shard < 0:
            raise ValueError(
                "StragglerFault.shard must be non-negative, got "
                f"{self.shard}"
            )
        if not self.factor >= 1.0:
            raise ValueError(
                f"StragglerFault.factor must be >= 1.0, got {self.factor}"
            )


@dataclass(frozen=True)
class Preemption:
    """One job preemption: checkpoint, deschedule, resume later.

    Attributes:
        round: tier round *before* which the job is preempted.
        job: the job to preempt.
        resume_after: full rounds the job stays descheduled before it
            is re-admitted (resumed from its checkpoint).
    """

    round: int
    job: str
    resume_after: int = 1

    def __post_init__(self) -> None:
        _require_round("Preemption", self.round)
        if self.resume_after < 1:
            raise ValueError(
                "Preemption.resume_after must be >= 1, got "
                f"{self.resume_after}"
            )


@dataclass(frozen=True)
class Arrival:
    """One bursty mid-run job arrival.

    Attributes:
        round: tier round *before* which the job is admitted.
        name: the arriving job's report name.
        spec: the arriving job's :class:`~repro.pipeline.spec.JobSpec`.
    """

    round: int
    name: str
    spec: object

    def __post_init__(self) -> None:
        _require_round("Arrival", self.round)
        if not self.name:
            raise ValueError("Arrival.name must be non-empty")


@dataclass(frozen=True)
class FaultPlan:
    """The full, deterministic misfortune schedule for one scenario.

    Attributes:
        crashes: reader-worker crashes, any order.
        stragglers: straggling shards, any order.
        preemptions: job preemptions (at most one per job per round).
        arrivals: bursty job arrivals (names must be unique).
        seed: the seed of the scenario the plan was built for
            (bookkeeping; ``None`` for a plan built by hand).
    """

    crashes: tuple[CrashFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    preemptions: tuple[Preemption, ...] = ()
    arrivals: tuple[Arrival, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        seen = set()
        for p in self.preemptions:
            key = (p.round, p.job)
            if key in seen:
                raise ValueError(
                    f"duplicate preemption of job {p.job!r} at round "
                    f"{p.round}"
                )
            seen.add(key)
        names = [a.name for a in self.arrivals]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate arrival names: {names}")

    def fleet_faults(self, round_index: int, job: str) -> FleetFaults | None:
        """The reader faults hitting one job's fleet in one round.

        Crashes and stragglers for the same (round, job) merge into one
        :class:`~repro.reader.fleet.FleetFaults`; when several crashes
        name the round the largest ``lost_fraction`` wins (a worst-case
        merge, and deterministic regardless of plan order).

        Returns:
            The merged faults, or ``None`` when the round runs clean.
        """
        crashed = sorted(
            c.shard
            for c in self.crashes
            if c.round == round_index and c.job == job
        )
        lost = [
            c.lost_fraction
            for c in self.crashes
            if c.round == round_index and c.job == job
        ]
        factors: dict[int, float] = {}
        for s in self.stragglers:
            if s.round == round_index and s.job == job:
                factors[s.shard] = max(
                    factors.get(s.shard, 1.0), s.factor
                )
        if not crashed and not factors:
            return None
        return FleetFaults(
            crashed_shards=tuple(crashed),
            straggler_factors=factors,
            lost_fraction=max(lost) if lost else 0.5,
        )
