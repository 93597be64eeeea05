"""Tier SLOs under churn: job wall-clock percentiles, starvation, goodput.

A production reader tier is judged by service-level objectives, not by
any single job's throughput: what wall-clock did the p50/p99 job pay
end to end, how long was any job starved of workers, and how much of
the pool's CPU turned into *useful* training batches once crashes and
stragglers took their cut.  This module rolls a finished
:class:`~repro.pipeline.session.Session` — its tier's
:class:`~repro.metrics.tier.TierReport`, the per-job
:class:`~repro.reader.fleet.FleetReport` fault counters and the
preemptions it played — into one :class:`SLOReport`: the scoreboard
the fault-injection scenario simulator (``repro.sim``) and the
experiment runner emit for every run.

All inputs are modeled (cost-model seconds), so an ``SLOReport`` is
bit-reproducible: replaying a seeded scenario reproduces the identical
report, which the chaos test tier asserts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from .freshness import FreshnessReport
from .stats import percentile

if TYPE_CHECKING:  # repro.pipeline imports repro.metrics
    from ..pipeline.session import Session

__all__ = ["JobSLO", "SLOReport", "percentile"]


@dataclass(frozen=True)
class JobSLO:
    """One job's service-level accounting over a tier run.

    Attributes:
        job: the job's report name.
        admitted_round: first round the job was scheduled or skipped.
        finished_round: last round the job was scheduled or skipped.
        wall_seconds: modeled wall-clock the job was in the system —
            the sum of round walls from admission through finish,
            *including* rounds it spent starved or descheduled
            (that queueing time is exactly what an SLO charges for).
        busy_seconds: modeled wall of only the rounds the job actually
            held workers.
        starved_rounds: rounds the job was active but got zero workers.
        epochs: epochs the job trained (rounds it held workers).
        batches: batches the job trained.
    """

    job: str
    admitted_round: int
    finished_round: int
    wall_seconds: float
    busy_seconds: float
    starved_rounds: int
    epochs: int
    batches: int

    @property
    def queue_fraction(self) -> float:
        """Share of the job's in-system wall spent not holding workers."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return 1.0 - self.busy_seconds / self.wall_seconds


@dataclass
class SLOReport:
    """The tier run rolled up into its service-level scoreboard.

    Attributes:
        jobs: per-job accounting, in first-scheduled order.
        total_wall_seconds: the run's modeled end-to-end wall-clock.
        reader_cpu_seconds: total modeled reader CPU consumed,
            including redone work after crashes.
        wasted_cpu_seconds: modeled reader CPU lost to crashed workers
            (work redone by the respawn).
        crashes: reader worker crashes injected over the run.
        straggler_shards: shard scans slowed by injected stragglers.
        preemptions: jobs preempted (and later resumed) by the session's
            fault plan.
        freshness: per-batch event-time → trained-on lags merged over
            every freshness-tracking (live-loop streaming) job; empty
            for runs over static, pre-landed tables.
    """

    jobs: list[JobSLO] = field(default_factory=list)
    total_wall_seconds: float = 0.0
    reader_cpu_seconds: float = 0.0
    wasted_cpu_seconds: float = 0.0
    crashes: int = 0
    straggler_shards: int = 0
    preemptions: int = 0
    freshness: FreshnessReport = field(default_factory=FreshnessReport)

    @classmethod
    def from_session(cls, session: Session) -> "SLOReport":
        """Roll a finished session into its SLO scoreboard: its tier's
        round-by-round report, the crash/straggler/waste counters of
        its job fleets, and the ``preempt`` events it played."""
        report = session.tier.report
        fleets = session.tier.job_fleets.values()
        walls = [r.modeled_wall_seconds for r in report.rounds]
        jobs: list[JobSLO] = []
        for name in report.jobs:
            present = [
                r.index
                for r in report.rounds
                if name in r.skipped or any(s.job == name for s in r.stats)
            ]
            admitted, finished = present[0], present[-1]
            stats = report.job_rounds(name)
            jobs.append(
                JobSLO(
                    job=name,
                    admitted_round=admitted,
                    finished_round=finished,
                    wall_seconds=sum(walls[admitted : finished + 1]),
                    busy_seconds=sum(
                        walls[r.index]
                        for r in report.rounds
                        if any(s.job == name for s in r.stats)
                    ),
                    starved_rounds=sum(
                        1 for r in report.rounds if name in r.skipped
                    ),
                    epochs=len(stats),
                    batches=sum(s.batches for s in stats),
                )
            )
        return cls(
            jobs=jobs,
            total_wall_seconds=report.modeled_wall_seconds,
            reader_cpu_seconds=sum(
                s.reader_cpu_seconds
                for r in report.rounds
                for s in r.stats
            ),
            wasted_cpu_seconds=sum(f.wasted_cpu_seconds for f in fleets),
            crashes=sum(f.crashes for f in fleets),
            straggler_shards=sum(f.straggler_shards for f in fleets),
            preemptions=sum(
                ev["event"] == "preempt" for ev in session.events
            ),
            freshness=report.freshness,
        )

    # -- the headline SLOs ---------------------------------------------------

    @property
    def p50_wall_seconds(self) -> float:
        """Median job wall-clock (nearest-rank)."""
        return percentile([j.wall_seconds for j in self.jobs], 50.0)

    @property
    def p99_wall_seconds(self) -> float:
        """p99 job wall-clock (nearest-rank; the tail the SLO guards)."""
        return percentile([j.wall_seconds for j in self.jobs], 99.0)

    @property
    def max_starved_rounds(self) -> int:
        """Worst per-job starved-round count — the fairness bound keeps
        any *consecutive* streak at <= 1 even under churn."""
        return max((j.starved_rounds for j in self.jobs), default=0)

    @property
    def total_batches(self) -> int:
        """Batches trained across every job."""
        return sum(j.batches for j in self.jobs)

    @property
    def goodput_batches_per_second(self) -> float:
        """Useful training batches per modeled wall second — the
        goodput-under-churn headline."""
        if self.total_wall_seconds <= 0.0:
            return 0.0
        return self.total_batches / self.total_wall_seconds

    @property
    def useful_cpu_fraction(self) -> float:
        """Share of reader CPU that was not crash-redone work."""
        if self.reader_cpu_seconds <= 0.0:
            return 1.0
        return 1.0 - self.wasted_cpu_seconds / self.reader_cpu_seconds

    @property
    def freshness_p50_seconds(self) -> float:
        """Median event-time → trained-on lag across streamed batches
        (0.0 when no job tracked freshness)."""
        return self.freshness.p50_lag_seconds

    @property
    def freshness_p99_seconds(self) -> float:
        """Tail event-time → trained-on lag — the freshness SLO the
        tier scheduler's lag-boosted weights defend."""
        return self.freshness.p99_lag_seconds

    def as_dict(self) -> dict:
        """Serialize to plain dicts — stable across replays of the same
        seed, so two reports can be compared with ``==``.

        Hand-written as a policy: the scoreboard is the counters plus
        the three headline SLOs, which are properties, not fields.
        """
        return {
            "jobs": [asdict(j) for j in self.jobs],
            "total_wall_seconds": self.total_wall_seconds,
            "reader_cpu_seconds": self.reader_cpu_seconds,
            "wasted_cpu_seconds": self.wasted_cpu_seconds,
            "crashes": self.crashes,
            "straggler_shards": self.straggler_shards,
            "preemptions": self.preemptions,
            "p50_wall_seconds": self.p50_wall_seconds,
            "p99_wall_seconds": self.p99_wall_seconds,
            "goodput_batches_per_second": self.goodput_batches_per_second,
            "freshness": self.freshness.as_dict(),
        }
