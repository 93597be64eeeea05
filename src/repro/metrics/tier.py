"""Tier-level accounting for a shared multi-job reader tier (§2.1).

The paper's disaggregated data-preprocessing tier exists to serve *many*
concurrent training jobs from one pool of reader workers.  When
:class:`~repro.reader.tier_scheduler.SharedReaderTier` multiplexes its
fleet across registered jobs, every scheduling round pays its
measurements in here:

* :class:`JobRoundStat` — one job's share of one round: workers leased,
  modeled reader CPU consumed, modeled trainer busy time, batches;
* :class:`TierRound` — one scheduling round: the width scheduled, the
  per-job allocation (including jobs skipped that round), and the
  round's modeled wall-clock (jobs run concurrently, so a round
  finishes with its slowest job);
* :class:`TierReport` — the whole run: rounds in order, per-job
  :class:`~repro.metrics.overlap.OverlapReport`\\ s merged across
  rounds, the aggregate overlap the tier autoscaler steered on, and the
  fairness accounting (``max_consecutive_skips``) behind the
  scheduler's no-starvation guarantee;
* :class:`Event` — one entry of the tier's one log (a round, an
  autoscaler decision, or a plan event its session applied), which
  every report above is folded from.

All times are modeled (cost-model seconds), so every number here is
bit-reproducible across runs; an event's ``wall_s`` is the one
measured value, and no report reads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from .freshness import FreshnessReport
from .ledger import ByteLedger
from .overlap import OverlapReport
from .scaling import ScalingTrace

__all__ = ["Event", "JobRoundStat", "TierRound", "TierReport"]


@dataclass(frozen=True)
class Event:
    """One entry of a shared tier's event log, on both clocks.

    Attributes:
        round: the tier round it belongs to (or, for a plan event, the
            round it precedes).
        job: the job it concerns (``None`` for ``round`` and ``scale``).
        kind: ``"round"``, ``"scale"``, ``"arrival"``, ``"resume"``,
            ``"preempt"`` or ``"fleet_faults"``.
        fields: the payload: a ``round`` holds its ``tier_round`` and
            the ``weights``, ``demand`` and ``starved`` behind its
            allocation, a ``scale`` its ``decision``.
        modeled_s: the tier's modeled clock when it happened.
        wall_s: ``time.perf_counter()`` when it was logged.
    """

    round: int
    job: str | None
    kind: str
    fields: Mapping[str, Any]
    modeled_s: float
    wall_s: float

    def as_dict(self) -> dict:
        """``round``, ``job``, ``event`` (the kind), then the fields.

        Hand-written as a policy: the clocks stay out, so a replay of
        the same seed serializes to the same dicts.
        """
        return {"round": self.round, "job": self.job, "event": self.kind, **self.fields}


@dataclass(frozen=True)
class JobRoundStat:
    """One job's share of one scheduling round.

    Attributes:
        job: the registered job's name.
        workers: readers leased to the job this round (>= 1; skipped
            jobs appear in :attr:`TierRound.skipped`, not here).
        reader_cpu_seconds: aggregate modeled reader CPU the job's
            shards consumed this round.
        trainer_busy_seconds: modeled time the job's trainer spent
            inside steps this round.
        batches: batches the job trained this round.
        streaming: whether the job streamed batches into its consumer
            (False for materialize-first jobs; bookkeeping only).
        bytes: what the job's shards read, shipped and (under
            ``ReaderSpec.dedup``) saved this round.
        freshness: per-batch event-time → trained-on lags for this
            round (streaming live-loop jobs only; ``None`` for jobs
            training over static, pre-landed partitions).
    """

    job: str
    workers: int
    reader_cpu_seconds: float
    trainer_busy_seconds: float
    batches: int = 0
    streaming: bool = True
    bytes: ByteLedger = field(default_factory=ByteLedger)
    freshness: FreshnessReport | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(
                f"workers must be positive, got {self.workers} for "
                f"job {self.job!r} (zero-worker rounds are recorded in "
                "TierRound.skipped)"
            )
        if self.reader_cpu_seconds < 0 or self.trainer_busy_seconds < 0:
            raise ValueError("modeled times must be non-negative")

    @property
    def reader_wall_seconds(self) -> float:
        """Modeled reader wall for the job: its CPU spread over its
        leased workers (the capacity view, as in
        :meth:`~repro.reader.fleet.FleetReport.balanced_wall_seconds`)."""
        return self.reader_cpu_seconds / self.workers

    @property
    def wall_seconds(self) -> float:
        """The job's modeled wall this round: the slower of its reader
        share and its trainer (perfect pipelining within the job)."""
        return max(self.reader_wall_seconds, self.trainer_busy_seconds)

    @property
    def overlap(self) -> OverlapReport:
        """The job's modeled overlap attribution for this round."""
        return OverlapReport.modeled(
            reader_wall_seconds=self.reader_wall_seconds,
            trainer_busy_seconds=self.trainer_busy_seconds,
            batches=self.batches,
            streaming=self.streaming,
            bytes=self.bytes,
        )


@dataclass
class TierRound:
    """One scheduling round of a shared reader tier.

    Attributes:
        index: 0-based round number.
        width: fleet width the round was scheduled at.
        stats: one :class:`JobRoundStat` per job that received workers.
        skipped: jobs that were active but received zero workers this
            round (they have strict priority next round).
    """

    index: int
    width: int
    stats: list[JobRoundStat] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def allocation(self) -> dict[str, int]:
        """Workers per active job this round (0 for skipped jobs)."""
        out = {s.job: s.workers for s in self.stats}
        out.update({name: 0 for name in self.skipped})
        return out

    @property
    def freshness(self) -> FreshnessReport:
        """Every freshness-tracking job's lags this round, merged."""
        return FreshnessReport.fold(s.freshness for s in self.stats)

    @property
    def modeled_wall_seconds(self) -> float:
        """The round's modeled wall-clock: allocated jobs run
        concurrently on disjoint worker subsets, so the round finishes
        with its slowest job."""
        return max((s.wall_seconds for s in self.stats), default=0.0)

    @property
    def aggregate(self) -> OverlapReport:
        """The round folded into one tier-level overlap report.

        Reader side: every job's reader CPU pooled over the full width
        (the work-conserving capacity view).  Trainer side: the slowest
        job's trainer (trainers run concurrently).  This is the signal
        the tier autoscaler consumes — aggregate stall, not any single
        job's.
        """
        return OverlapReport.modeled(
            reader_wall_seconds=(
                sum(s.reader_cpu_seconds for s in self.stats) / self.width
            ),
            trainer_busy_seconds=max(
                (s.trainer_busy_seconds for s in self.stats), default=0.0
            ),
            batches=sum(s.batches for s in self.stats),
            streaming=all(s.streaming for s in self.stats),
            bytes=ByteLedger.fold(s.bytes for s in self.stats),
        )


@dataclass
class TierReport:
    """Everything a shared reader tier measured over one run.

    Attributes:
        policy: the worker-allocation policy the scheduler used
            (``"round_robin"`` or ``"stall_weighted"``).
        rounds: the scheduling rounds, in order.
        scaling: the tier autoscaler's decision trace (autoscaled tiers
            only).
    """

    policy: str = "round_robin"
    rounds: list[TierRound] = field(default_factory=list)
    scaling: ScalingTrace | None = None

    @property
    def jobs(self) -> list[str]:
        """Every job name seen, in first-scheduled order."""
        seen: dict[str, None] = {}
        for rnd in self.rounds:
            for s in rnd.stats:
                seen.setdefault(s.job, None)
            for name in rnd.skipped:
                seen.setdefault(name, None)
        return list(seen)

    @property
    def widths(self) -> list[int]:
        """Fleet width each round was scheduled at."""
        return [r.width for r in self.rounds]

    @property
    def modeled_wall_seconds(self) -> float:
        """The run's modeled wall-clock: rounds run back to back, each
        finishing with its slowest job."""
        return sum(r.modeled_wall_seconds for r in self.rounds)

    def job_rounds(self, job: str) -> list[JobRoundStat]:
        """The given job's per-round stats, in round order."""
        return [s for r in self.rounds for s in r.stats if s.job == job]

    def job_overlap(self, job: str) -> OverlapReport:
        """The job's modeled overlap merged across every round it ran."""
        return OverlapReport.fold(s.overlap for s in self.job_rounds(job))

    def job_freshness(self, job: str) -> FreshnessReport:
        """The job's freshness lags merged across every round it ran."""
        return FreshnessReport.fold(
            s.freshness for s in self.job_rounds(job)
        )

    @property
    def freshness(self) -> FreshnessReport:
        """Every round's freshness lags merged (the tier-wide view)."""
        return FreshnessReport.fold(rnd.freshness for rnd in self.rounds)

    @property
    def per_job(self) -> dict[str, OverlapReport]:
        """Per-job merged overlap reports, keyed by job name."""
        return {name: self.job_overlap(name) for name in self.jobs}

    @property
    def aggregate(self) -> OverlapReport:
        """Every round's tier-level overlap merged (what the autoscaler
        steered on, summed over the run)."""
        return OverlapReport.fold(rnd.aggregate for rnd in self.rounds)

    def max_consecutive_skips(self, job: str) -> int:
        """Longest run of consecutive rounds the job was active but got
        zero workers — the scheduler's fairness guarantee bounds this
        at 1 for any admitted job set.  A round the job sat out gated
        on data neither resets nor extends the streak."""
        worst = streak = 0
        for rnd in self.rounds:
            if job in rnd.skipped:
                streak += 1
                worst = max(worst, streak)
            elif any(s.job == job for s in rnd.stats):
                streak = 0
        return worst

    def as_dict(self) -> dict:
        """Serialize to a plain JSON-ready dict (the run-store form):
        the policy, every (round, job) row, the per-job and aggregate
        overlap attributions, and the scaling trace when present.

        Hand-written as a policy: the stored form is a *view* — rounds
        flattened to rows, overlaps re-folded per job — not the fields.
        """
        return {
            "policy": self.policy,
            "widths": self.widths,
            "modeled_wall_seconds": self.modeled_wall_seconds,
            "rows": self.as_rows(),
            "per_job": {
                name: report.as_dict()
                for name, report in self.per_job.items()
            },
            "aggregate": self.aggregate.as_dict(),
            "freshness": self.freshness.as_dict(),
            "scaling": (
                self.scaling.as_dict() if self.scaling is not None else None
            ),
        }

    def as_rows(self) -> list[dict]:
        """Serialize to figure-style row dicts: one row per (round,
        job) pair, zero-worker rounds included."""
        return [
            row
            for rnd in self.rounds
            for row in (
                *(_row(rnd, s.job, s) for s in rnd.stats),
                *(_row(rnd, name) for name in rnd.skipped),
            )
        ]


def _row(rnd: TierRound, job: str, stat: JobRoundStat | None = None) -> dict:
    """One (round, job) row; no ``stat`` is a job the round skipped."""
    return {
        "round": rnd.index,
        "width": rnd.width,
        "job": job,
        "workers": stat.workers if stat else 0,
        "reader_cpu_seconds": stat.reader_cpu_seconds if stat else 0.0,
        "trainer_busy_seconds": stat.trainer_busy_seconds if stat else 0.0,
        "batches": stat.batches if stat else 0,
        **(stat.bytes if stat else ByteLedger()).counters(),
    }
