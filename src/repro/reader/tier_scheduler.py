"""A shared reader tier multiplexing one worker pool across many jobs.

The paper's disaggregated data-preprocessing tier (§2.1) is *shared*
infrastructure: one pool of stateless reader workers serves many
concurrent training jobs, so preprocessing capacity amortizes across the
platform instead of being provisioned per job.  Everything before this
module serves exactly one job — :class:`~repro.reader.fleet.ReaderFleet`
scans one job's epoch, one trainer consumes it.
:class:`SharedReaderTier` closes that gap:

* **Registration / admission** — jobs register a :class:`TierJob` (their
  table, epoch plan, DataLoader config, and batch consumer); admission
  refuses a job set the scheduler cannot serve fairly (more than
  ``2 * num_readers`` jobs) and epoch plans that reference dead
  partitions or cannot fill a single batch.
* **Scheduling rounds** — the tier runs in rounds: each round, every
  registered job with epochs remaining is a candidate, and
  :func:`allocate_workers` splits the pool's width across candidates —
  allocations always sum to the fleet width, and a job skipped one
  round has strict priority the next round it is runnable in (no
  admitted job is skipped in two consecutive rounds in which it is
  runnable).
* **Isolation** — a job's leased workers run that job's own
  :class:`~repro.reader.fleet.ReaderFleet` over that job's table, so
  batch *content* is completely unaffected by sharing: every job's
  batch stream — and therefore its training losses — is bit-identical
  to running alone on a private fleet of any width.  Sharing only moves
  modeled wall-clock.
* **Aggregate autoscaling** — given a
  :class:`~repro.reader.autoscale.ScalingSpec`, the control law
  :func:`~repro.reader.autoscale.rescale` resizes the *pool* between
  rounds from the tier-level overlap (every job's reader CPU pooled
  over the width vs the slowest trainer), not any single job's stall.

Two allocation policies, both deterministic:

* ``"round_robin"`` — even split; the remainder rotates across jobs by
  a round cursor.
* ``"stall_weighted"`` (default) — each candidate is guaranteed one
  worker, and the rest of the pool follows observed reader demand:
  workers proportional to each job's last-observed reader CPU seconds
  scaled by its scheduling ``weight`` (largest-remainder rounding), so
  jobs whose trainers starve — or that the platform prioritizes — pull
  workers away from jobs whose readers idle.  Until every candidate has
  been observed once, the round falls back to the even split.

Jobs whose tables land lazily (rolling-window retention) register a
``prepare`` lifecycle hook — called immediately before each of their
scheduled epochs — plus a declared ``partition_rows`` stream that
admission validates their epoch plans against.

Production tiers also *churn*: between two
:meth:`~SharedReaderTier.step` calls a driver holding the loop
(:meth:`repro.pipeline.Session.tick`, the scenario simulator in
``repro.sim``) may :meth:`~SharedReaderTier.preempt` a job (its name
frees up for re-registration with its remaining epochs) or
:meth:`~SharedReaderTier.register` a new one.  A job admitted mid-run —
including a re-admitted preempted job — enters with strict next-round
priority (it is treated as starved), so the one-round starvation bound
survives churn.  A job whose ``ready`` gate holds it back *waits*: it
neither earns priority nor loses it, so a job skipped in one round and
gated in the next still leads the round after.  A driver sets the
tier's ``fault_injector(round_index, job_name)`` hook — a session
playing a fault plan sets :meth:`~repro.sim.faults.FaultPlan.fleet_faults`
there, the only source of faults — so worker crashes and stragglers hit the leased
fleets per (round, job), deterministically.

Every scheduling and scaling decision is made by a pure core over one
frozen :class:`TierState` — :func:`admit`, :func:`remove`,
:func:`plan_round`, :func:`settle`, and the control law
:func:`~repro.reader.autoscale.rescale` over the state's spec and
shrink streak — so ``tests/reader/test_tier_explorer.py`` checks the
fairness guarantees on every reachable state of a bounded tier.
:class:`SharedReaderTier` is the effect layer: each
:meth:`~SharedReaderTier.step` plans, leases the fleets, rescales, then
settles, logging ``round`` and ``scale`` events through
:meth:`~SharedReaderTier.emit` into :attr:`~SharedReaderTier.events`,
the one log its :class:`~repro.metrics.tier.TierReport` is folded from.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Collection, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace

from ..metrics.freshness import FreshnessReport
from ..metrics.scaling import ScalingTrace
from ..metrics.tier import Event, JobRoundStat, TierReport, TierRound
from ..storage.hive import HiveTable
from .autoscale import ScalingSpec, rescale
from .batch import Batch
from .config import DataLoaderConfig
from .costmodel import TransportSpec
from .fleet import FleetFaults, FleetReport, ReaderFleet

__all__ = [
    "POLICIES",
    "allocate_workers",
    "JobState",
    "TierState",
    "RoundDecision",
    "admit",
    "remove",
    "plan_round",
    "settle",
    "TierJob",
    "SharedReaderTier",
]

#: the deterministic worker-allocation policies
POLICIES = ("round_robin", "stall_weighted")


def allocate_workers(
    width: int,
    jobs: Sequence[str],
    *,
    starved: Collection[str] = (),
    demand: Mapping[str, float] | None = None,
    weights: Mapping[str, float] | None = None,
    policy: str = "stall_weighted",
    cursor: int = 0,
) -> dict[str, int]:
    """Split ``width`` workers across ``jobs`` for one scheduling round.

    The allocation always sums to ``width`` (the pool is never left
    idle while a job has work).  Jobs in ``starved`` — skipped last
    round — have strict priority for whatever cannot be split evenly,
    which is what bounds starvation at one consecutive round whenever
    ``len(jobs) <= 2 * width``.

    Args:
        width: pool width (total workers to hand out; must be > 0).
        jobs: candidate job names, in registration order.
        starved: jobs that received zero workers last round.
        demand: last-observed reader CPU seconds per job (the
            ``stall_weighted`` signal); jobs missing from it force the
            even-split fallback for the round.
        weights: per-job scheduling weights scaling the demand signal
            (default 1.0 each): under ``stall_weighted`` the surplus is
            apportioned by ``weight * demand``, so a weight-2 job pulls
            roughly twice the workers of an equal-demand weight-1 job.
            The fairness floor is untouched — every candidate still
            gets one worker before any surplus is weighted.
        policy: ``"round_robin"`` or ``"stall_weighted"``.
        cursor: round counter; rotates who the remainder favours.

    Returns:
        ``{job: workers}`` over exactly the given jobs, summing to
        ``width`` (empty when ``jobs`` is empty).

    Raises:
        ValueError: on a non-positive width, an unknown policy,
            duplicate job names, or a job weight that is not positive
            and finite.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    names = list(jobs)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in {names}")
    if not names:
        return {}

    m = len(names)
    rot = cursor % m
    rotated = names[rot:] + names[:rot]
    position = {name: i for i, name in enumerate(rotated)}
    starved_set = set(starved)
    observed = demand or {}
    job_weight = weights or {}
    bad = {n: w for n, w in job_weight.items() if not 0.0 < w < math.inf}
    if bad:
        raise ValueError(
            f"job weights must be positive and finite, got {bad}"
        )
    scaled = {
        name: job_weight.get(name, 1.0) * observed[name]
        for name in observed
    }

    def priority(name: str) -> tuple:
        """Sort key: starved first, hungrier (weight-scaled demand)
        first under stall_weighted, then rotation order — a
        deterministic total order."""
        return (
            0 if name in starved_set else 1,
            -scaled.get(name, 0.0) if policy == "stall_weighted" else 0.0,
            position[name],
        )

    ranked = sorted(names, key=priority)

    if m > width:
        # More jobs than workers: one worker each to the first `width`
        # jobs in priority order; the rest wait (and lead next round).
        winners = set(ranked[:width])
        return {name: (1 if name in winners else 0) for name in names}

    # Every candidate gets one worker; the surplus follows the policy.
    out = {name: 1 for name in names}
    rest = width - m
    if rest == 0:
        return out
    total = sum(scaled.get(name, 0.0) for name in names)
    if (
        policy == "round_robin"
        or total <= 0.0
        or any(name not in scaled for name in names)
    ):
        # Even split (the stall_weighted cold start: some candidate has
        # never been observed, so there is no demand signal to follow).
        base, extra = divmod(rest, m)
        for name in names:
            out[name] += base
        for name in ranked[:extra]:
            out[name] += 1
        return out

    # Largest-remainder apportionment of the surplus by weight-scaled
    # observed demand.
    shares = {name: rest * scaled[name] / total for name in names}
    floors = {name: int(shares[name]) for name in names}
    for name in names:
        out[name] += floors[name]
    leftover = rest - sum(floors.values())
    by_remainder = sorted(
        names, key=lambda n: (-(shares[n] - floors[n]), priority(n))
    )
    for name in by_remainder[:leftover]:
        out[name] += 1
    return out


# -- the decision core: pure transitions over one TierState ------------------


@dataclass(frozen=True)
class JobState:
    """One registered job as the scheduler sees it.

    Attributes:
        name: the job's name.
        weight: its scheduling weight.
        progress: epochs completed since admission.
        demand: reader CPU seconds of its last served round (``None``
            until first served: the ``stall_weighted`` cold start).
        lag: p99 event-time lag of its last served round
            (freshness-tracking jobs only).
    """

    name: str
    weight: float = 1.0
    progress: int = 0
    demand: float | None = None
    lag: float | None = None


@dataclass(frozen=True)
class TierState:
    """Everything the scheduler decides from, as one immutable value.

    Attributes:
        width: the pool width the next round starts from (the
            autoscaler's last proposal on an autoscaled tier).
        policy: the allocation policy.
        slo: the freshness SLO boosting lagging jobs' weights.
        cursor: rounds planned so far (rotates the remainder).
        jobs: registered jobs, in registration order.
        starved: jobs skipped in the last round they were runnable,
            plus boosted newcomers; they lead the next round they are
            runnable in.
        floor: the fairness floor, ⌈jobs/2⌉ at the largest job set
            admitted so far: the narrowest pool that serves every job
            within two rounds.
        scaling: the autoscaler's spec (``None``: a fixed width).
        streak: shrink-worthy rounds in a row (the hysteresis).
    """

    width: int
    policy: str = "stall_weighted"
    slo: float | None = None
    cursor: int = 0
    jobs: tuple[JobState, ...] = ()
    starved: frozenset[str] = frozenset()
    floor: int = 0
    scaling: ScalingSpec | None = None
    streak: int = 0

    @property
    def round_width(self) -> int:
        """The width the next round runs at: :attr:`width` lifted to
        the fairness floor and to the starved set, so every job owed a
        worker gets one.  The only place either lift applies: a
        mid-run admission raises the floor after the last settle."""
        return max(self.width, self.floor, len(self.starved))

    def job(self, name: str) -> JobState:
        """The named registered job's state."""
        return next(j for j in self.jobs if j.name == name)


@dataclass(frozen=True)
class RoundDecision:
    """What one round's plan decided (truthy: a round ran).

    Attributes:
        width: the width the round runs at.
        allocation: workers per runnable job (0 = skipped).
        skipped: runnable jobs given no worker, sorted.
        weights: each runnable job's effective scheduling weight.
    """

    width: int
    allocation: Mapping[str, int]
    skipped: tuple[str, ...]
    weights: Mapping[str, float]


def admit(
    state: TierState, name: str, weight: float = 1.0, *, mid_run: bool = False
) -> TierState:
    """Register ``name`` unobserved at progress 0; the floor rises to
    cover the grown job set.

    A job admitted ``mid_run`` enters starved (served first in its
    first round) while the starved set still fits the round: a
    newcomer must not crowd a genuinely skipped job out.  An unboosted
    newcomer skipped in its first round is starved in its next.
    """
    jobs = state.jobs + (JobState(name, weight),)
    floor = max(state.floor, math.ceil(len(jobs) / 2))
    grown = replace(state, jobs=jobs, floor=floor)
    if mid_run and len(state.starved) < grown.round_width:
        grown = replace(grown, starved=state.starved | {name})
    return grown


def remove(state: TierState, name: str) -> TierState:
    """Deregister ``name``: it loses its progress, demand, lag and
    priority (the floor stays)."""
    jobs = tuple(j for j in state.jobs if j.name != name)
    return replace(state, jobs=jobs, starved=state.starved - {name})


def plan_round(
    state: TierState, runnable: Sequence[str]
) -> tuple[RoundDecision, TierState]:
    """Decide one round over the ``runnable`` jobs.

    Runnable starved jobs keep strict priority; the new starved set is
    ``(starved - runnable) | skipped``: a waiting (gated) job neither
    earns priority nor loses it.  Under a freshness SLO a job whose
    last p99 lag overran it has its weight scaled by ``lag / slo``.
    """
    weights = {}
    for name in runnable:
        job = state.job(name)
        lagging = state.slo is not None and job.lag is not None
        boost = max(1.0, job.lag / state.slo) if lagging else 1.0
        weights[name] = job.weight * boost
    width = state.round_width
    allocation = allocate_workers(
        width,
        runnable,
        starved=state.starved,
        demand={j.name: j.demand for j in state.jobs if j.demand is not None},
        weights=weights,
        policy=state.policy,
        cursor=state.cursor,
    )
    skipped = tuple(sorted(n for n, w in allocation.items() if w == 0))
    starved = (state.starved - set(runnable)) | set(skipped)
    planned = replace(
        state, width=width, cursor=state.cursor + 1, starved=starved
    )
    return RoundDecision(width, allocation, skipped, weights), planned


def settle(
    state: TierState, stats: Sequence[JobRoundStat], width: int
) -> TierState:
    """Fold a round's outcome in: each served job advances one epoch,
    its reader CPU becomes its demand and (when tracked) its p99 lag
    its lag; ``width`` (the autoscaler's proposal, or the round's own
    width on a fixed tier) is where the next round starts from."""
    served = {s.job: s for s in stats}
    jobs = []
    for job in state.jobs:
        stat = served.get(job.name)
        if stat is not None:
            lag = job.lag
            if stat.freshness is not None:
                lag = stat.freshness.p99_lag_seconds
            job = JobState(
                job.name,
                job.weight,
                job.progress + 1,
                stat.reader_cpu_seconds,
                lag,
            )
        jobs.append(job)
    return replace(state, jobs=tuple(jobs), width=width)


# -- the effect layer -------------------------------------------------------


@dataclass
class TierJob:
    """One training job's registration with a shared reader tier.

    Attributes:
        name: unique job name (the key in every tier report).
        table: the job's landed :class:`~repro.storage.hive.HiveTable`.
        config: the job's DataLoader spec (batch size, features,
            transforms).
        epochs: the job's epoch plan — one list of partition names per
            epoch, scanned in order.
        max_batches: per-epoch batch cap (``None`` = the whole window).
        consume: the job's batch queue consumer: called once per
            scheduled epoch as ``consume(epoch_index, batch_iterator)``
            and expected to drain the iterator (e.g. by streaming it
            into a trainer) and return the epoch's modeled
            trainer-busy seconds.  ``None`` drains batches unconsumed
            (reader-only jobs).
        prefetch_depth: bounded prefetch per leased worker.
        executor: fleet executor for the job's scans
            (``"inprocess"`` or ``"process"``).
        transport: batch-transport model for the job's scans (``copy``
            charges modeled serialize cost and counts ``bytes.copied``;
            ``shm`` is the zero-copy A/B).
        streaming: whether the job's consumer streams batches (False
            when it materializes first; carried into the job's overlap
            reports as bookkeeping).
        weight: scheduling weight — the stall-weighted allocator scales
            this job's observed reader demand by it, so heavier jobs
            pull more of the surplus pool (content is unaffected).
        prepare: optional lifecycle hook called as ``prepare(epoch)``
            immediately before the tier scans that epoch — this is
            where rolling-window retention lands the epoch's new
            partitions and ages out old ones.
        partition_rows: expected rows per partition for jobs whose
            epoch plans reference partitions not yet landed (retention
            jobs land lazily via ``prepare``); admission validates the
            plan against this declared stream instead of the live
            table.
        ready: optional data gate called as ``ready(next_epoch)`` at
            the top of every round — ``False`` means the epoch's
            partitions have not landed yet, so the job sits the round
            out as *waiting*: it draws no workers and neither earns
            next-round priority nor loses the priority it holds.
            Live-loop streaming jobs gate on their lander's landing
            progress here.
        track_freshness: record a per-round
            :class:`~repro.metrics.freshness.FreshnessReport` from the
            job's delivered batch event times against the tier's
            modeled clock (live-loop streaming jobs).
    """

    name: str
    table: HiveTable
    config: DataLoaderConfig
    epochs: Sequence[Sequence[str]]
    max_batches: int | None = None
    consume: Callable[[int, Iterator[Batch]], float] | None = None
    prefetch_depth: int = 2
    executor: str = "inprocess"
    transport: TransportSpec = field(default_factory=TransportSpec)
    streaming: bool = True
    weight: float = 1.0
    prepare: Callable[[int], None] | None = None
    partition_rows: Mapping[str, int] | None = None
    ready: Callable[[int], bool] | None = None
    track_freshness: bool = False


class SharedReaderTier:
    """One pool of reader workers multiplexed across registered jobs.

    Register jobs with :meth:`register`, then :meth:`start`,
    :meth:`step` until no job is runnable, and :meth:`finish`: the
    resulting :class:`~repro.metrics.tier.TierReport` carries every
    round's allocation and modeled accounting, folded from
    :attr:`events`.  Merged per-job fleet measurements accumulate in
    :attr:`job_fleets`.  The only scheduling and scaling state is one
    :class:`TierState`, replaced on every transition.
    """

    def __init__(
        self,
        num_readers: int,
        policy: str = "stall_weighted",
        scaling: ScalingSpec | None = None,
        freshness_slo: float | None = None,
    ):
        """Configure the shared pool.

        Args:
            num_readers: pool width (workers shared by all jobs).
            policy: worker-allocation policy (``"round_robin"`` or
                ``"stall_weighted"``).
            scaling: when set, resize the pool between rounds from the
                *aggregate* tier overlap, steering for the spec's
                ``target_stall`` band under its ``max_readers`` bound;
                ``None`` keeps the width fixed.
            freshness_slo: target p99 event-time → trained-on lag in
                modeled seconds.  When set, a freshness-tracking job
                whose last observed p99 lag exceeds the target has its
                scheduling weight boosted by ``lag / freshness_slo``
                under ``stall_weighted``, pulling surplus workers
                toward the jobs falling behind their data.  Purely a
                wall-clock lever: batch content — and therefore every
                loss — is unaffected.

        Raises:
            ValueError: on a non-positive width, unknown policy, a
                non-positive ``freshness_slo``, or a ``scaling`` whose
                ``max_readers < num_readers``.
        """
        if num_readers <= 0:
            raise ValueError(
                f"num_readers must be positive, got {num_readers}"
            )
        if policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        if scaling is not None and scaling.max_readers < num_readers:
            raise ValueError(
                f"max_readers ({scaling.max_readers}) must be >= "
                f"num_readers ({num_readers}) when autoscale is on"
            )
        if freshness_slo is not None and not freshness_slo > 0.0:
            raise ValueError(
                f"freshness_slo must be positive, got {freshness_slo}"
            )
        self.num_readers = num_readers
        #: optional hook called as ``fault_injector(round_index,
        #: job_name)`` before each leased scan — the signature of
        #: :meth:`~repro.sim.faults.FaultPlan.fleet_faults`; a returned
        #: :class:`~repro.reader.fleet.FleetFaults` crashes or slows that
        #: job's workers for the round (``None`` = no faults).  A
        #: session built with a fault plan sets it in ``prepare()``.
        self.fault_injector: (
            Callable[[int, str], FleetFaults | None] | None
        ) = None
        #: the tier's modeled clock: advances by each round's wall and
        #: by :meth:`advance_clock` while the pool waits on data
        self.clock = 0.0
        #: merged per-job FleetReports, one per job ever registered
        self.job_fleets: dict[str, FleetReport] = {}
        self.report: TierReport | None = None
        #: everything the tier and its session decided, in order
        self.events: list[Event] = []
        self.state = TierState(
            num_readers, policy, freshness_slo, scaling=scaling
        )
        self._jobs: dict[str, TierJob] = {}
        self._started = False
        self._finished = False

    @property
    def policy(self) -> str:
        """The worker-allocation policy."""
        return self.state.policy

    def emit(self, kind: str, job: str | None = None, **fields) -> None:
        """Log one :class:`~repro.metrics.tier.Event` at the current
        round and modeled clock: the only place :attr:`events` grows."""
        now = time.perf_counter()
        self.events.append(
            Event(self.state.cursor, job, kind, fields, self.clock, now)
        )

    # -- registration / admission ------------------------------------------

    def register(self, job: TierJob) -> None:
        """Admit one job to the tier — before the run or mid-run.

        Admission is checked up front so a bad job fails at
        registration, not mid-run:

        * the name must be unique among *currently registered* jobs and
          non-empty (a preempted job's name is free again, which is how
          a resumed job re-registers with its remaining epochs);
        * the scheduling weight must be positive and finite;
        * the job set must stay schedulable without starving anyone for
          more than one round (at most ``2 * num_readers`` jobs);
        * every partition in the epoch plan must be live in the job's
          table — or, for jobs landing lazily via ``prepare``, present
          in the declared ``partition_rows`` stream;
        * every epoch must fill at least one training batch.

        A job admitted while the tier is mid-run (after
        :meth:`start`) enters with strict next-round priority while the
        starved set still fits the round (:func:`admit`), and it raises
        the fairness floor, so the one-round starvation bound holds
        from its admission round even on a shrunken autoscaled pool.

        Raises:
            ValueError: if any admission check fails.
            RuntimeError: if the tier already finished.
        """
        if self._finished:
            raise RuntimeError(
                "tier already ran; build a new SharedReaderTier to "
                "schedule more jobs"
            )
        if not job.name:
            raise ValueError("job name must be non-empty")
        if job.name in self._jobs:
            raise ValueError(f"job {job.name!r} already registered")
        if len(self._jobs) + 1 > 2 * self.num_readers:
            raise ValueError(
                f"admission refused for job {job.name!r}: "
                f"{len(self._jobs) + 1} jobs on a {self.num_readers}-wide "
                f"pool cannot be scheduled without starving some job for "
                f"more than one round (limit: 2 * width = "
                f"{2 * self.num_readers}); widen the tier or run fewer "
                "jobs"
            )
        if not 0.0 < job.weight < math.inf:
            raise ValueError(
                f"job {job.name!r} has scheduling weight {job.weight}; "
                "weights must be positive and finite"
            )
        if not job.epochs or any(not epoch for epoch in job.epochs):
            raise ValueError(
                f"job {job.name!r} has an empty epoch plan: every epoch "
                "must name at least one partition"
            )
        if job.partition_rows is not None:
            known = job.partition_rows
            source = "the job's declared partition stream"
        else:
            known = {
                name: info.num_rows
                for name, info in job.table.partitions.items()
            }
            source = f"table {job.table.name!r}"
        for epoch_idx, epoch in enumerate(job.epochs):
            dead = [p for p in epoch if p not in known]
            if dead:
                raise ValueError(
                    f"job {job.name!r} epoch {epoch_idx} references "
                    f"partition(s) {dead} not live in {source}; live: "
                    f"{sorted(known)}"
                )
            # Batches are partition-aligned (plan_epoch drops each
            # partition's sub-batch remainder), so the check must sum
            # per-partition floors, not floor the summed rows.
            batches = sum(
                known[p] // job.config.batch_size for p in epoch
            )
            if batches == 0:
                rows = [known[p] for p in epoch]
                raise ValueError(
                    f"job {job.name!r} epoch {epoch_idx} cannot fill one "
                    f"batch: {rows} rows across {len(epoch)} partition(s), "
                    f"all below batch {job.config.batch_size}"
                )
        self._jobs[job.name] = job
        self.job_fleets.setdefault(job.name, FleetReport())
        self.state = admit(
            self.state, job.name, job.weight, mid_run=self._started
        )

    # -- scheduling ---------------------------------------------------------

    def run(self) -> TierReport:
        """:meth:`start`, :meth:`step` until no job is runnable, then
        :meth:`finish` — a prepared session's tier driven without
        :meth:`repro.pipeline.Session.tick`'s landing pumps.

        Returns:
            The run's :class:`~repro.metrics.tier.TierReport` (also left
            in :attr:`report`).

        Raises:
            RuntimeError: if the tier already ran.
            ValueError: if no jobs are registered.
        """
        self.start()
        while self.step():
            pass
        return self.finish()

    def start(self) -> None:
        """Open the scheduling loop: validate and initialize run state.

        Raises:
            RuntimeError: if the tier already started or ran.
            ValueError: if no jobs are registered.
        """
        if self._started:
            raise RuntimeError(
                "tier already ran; build a new SharedReaderTier to rerun"
            )
        if not self._jobs:
            raise ValueError("no jobs registered")
        self._started = True

    @property
    def epochs_remaining(self) -> bool:
        """Whether any registered job still has epochs to run."""
        return any(
            self.state.job(name).progress < len(job.epochs)
            for name, job in self._jobs.items()
        )

    def advance_clock(self, to: float) -> float:
        """Move the modeled clock forward to ``to`` (never backward).

        A live-loop driver calls this when every remaining job is
        gated on data: the pool sits idle until the next landing tick,
        and that idle time is modeled as a pure clock jump (no round
        is recorded, no wall is charged to any job).

        Returns:
            The clock after the jump.
        """
        self.clock = max(self.clock, to)
        return self.clock

    def step(self) -> RoundDecision | None:
        """Run one scheduling round: plan it, lease the fleets, log it,
        rescale (autoscaled tiers), settle.

        Returns:
            The round's :class:`RoundDecision`; ``None`` when no
            registered job is *runnable* — every job either exhausted
            its epoch plan or is gated on data by its ``ready`` hook
            (nothing is recorded in that case, so a driver may still
            :meth:`register` more work, land more data and
            :meth:`advance_clock`, and step again; consult
            :attr:`epochs_remaining` to tell the two apart).

        Raises:
            RuntimeError: if called before :meth:`start` or after
                :meth:`finish`.
        """
        if not self._started or self._finished:
            raise RuntimeError(
                "step() needs an open scheduling loop: call start() "
                "first (and not after finish())"
            )
        progress = {j.name: j.progress for j in self.state.jobs}
        # ready is asked only of jobs with epochs left; a gated job
        # waits: it draws no workers and keeps whatever priority it had
        runnable = [
            job
            for name, job in self._jobs.items()
            if progress[name] < len(job.epochs)
            and (job.ready is None or job.ready(progress[name]))
        ]
        if not runnable:
            return None
        names = [j.name for j in runnable]
        decision, planned = plan_round(self.state, names)
        alloc = decision.allocation
        stats = [
            self._run_job_epoch(job, progress[job.name], alloc[job.name])
            for job in runnable
            if alloc[job.name]
        ]
        rnd = TierRound(
            self.state.cursor, decision.width, stats, list(decision.skipped)
        )
        demand = {n: self.state.job(n).demand for n in names}
        self.emit(
            "round", tier_round=rnd, weights=decision.weights,
            demand=demand, starved=sorted(self.state.starved),
        )
        self.clock += rnd.modeled_wall_seconds
        width = decision.width
        if planned.scaling is not None:
            # the proposal starts from the width the round ran at
            scaled, streak = rescale(
                planned.scaling, rnd.aggregate, rnd.index, width,
                planned.floor, planned.streak,
            )
            self.emit("scale", decision=scaled)
            width, planned = scaled.width_after, replace(planned, streak=streak)
        self.state = settle(planned, stats, width)
        return decision

    def finish(self) -> TierReport:
        """Close the loop and fold the log into the run's report: its
        ``round`` events are the rounds, its ``scale`` events the
        scaling trace.

        Raises:
            RuntimeError: if called before :meth:`start` or twice.
        """
        if not self._started or self._finished:
            raise RuntimeError(
                "finish() needs an open scheduling loop: call start() "
                "first (and finish() only once)"
            )
        self._finished = True
        spec = self.state.scaling
        self.report = TierReport(
            self.policy,
            [e.fields["tier_round"] for e in self.events if e.kind == "round"],
            None if spec is None else ScalingTrace(
                spec.target_stall,
                [e.fields["decision"] for e in self.events if e.kind == "scale"],
            ),
        )
        return self.report

    @property
    def round_index(self) -> int:
        """Rounds completed so far — the index the next round will get."""
        return self.state.cursor

    def epochs_completed(self, name: str) -> int:
        """Epochs the named registered job has finished so far.

        Raises:
            KeyError: if the job is not currently registered.
        """
        if name not in self._jobs:
            raise KeyError(
                f"no registered job named {name!r}; registered: "
                f"{list(self._jobs)}"
            )
        return self.state.job(name).progress

    def preempt(self, name: str) -> int:
        """Remove a registered job mid-run; its name frees up again.

        The job simply stops being scheduled — its merged fleet
        measurements stay in :attr:`job_fleets` (a later
        re-registration under the same name keeps merging into them)
        and its completed rounds stay in the report.  The number of
        epochs it completed is returned, which is what a
        checkpoint/resume driver needs to rebuild the job's remaining
        epoch plan.

        Args:
            name: the registered job to remove.

        Returns:
            Epochs the job completed before preemption.

        Raises:
            KeyError: if no such job is registered.
            RuntimeError: if the tier already finished.
        """
        if self._finished:
            raise RuntimeError(
                "tier already ran; nothing left to preempt"
            )
        if name not in self._jobs:
            raise KeyError(
                f"cannot preempt unknown job {name!r}; registered: "
                f"{list(self._jobs)}"
            )
        del self._jobs[name]
        done = self.state.job(name).progress
        self.state = remove(self.state, name)
        return done

    def _run_job_epoch(
        self, job: TierJob, epoch: int, workers: int
    ) -> JobRoundStat:
        """Lease ``workers`` readers to one job for one epoch."""
        if job.prepare is not None:
            # The job's lifecycle hook: rolling-window retention lands
            # this epoch's partitions and ages out the expired ones.
            job.prepare(epoch)
        faults = (
            self.fault_injector(self.state.cursor, job.name)
            if self.fault_injector is not None
            else None
        )
        fleet = ReaderFleet(
            workers,
            job.config,
            prefetch_depth=job.prefetch_depth,
            executor=job.executor,
            faults=faults,
            transport=job.transport,
        )
        source = fleet.iter_epoch(
            job.table, list(job.epochs[epoch]), max_batches=job.max_batches
        )
        if job.consume is None:
            for _ in source:
                pass
            busy = 0.0
        else:
            busy = float(job.consume(epoch, source))
            if busy < 0.0:
                raise ValueError(
                    f"job {job.name!r} consume() returned negative "
                    f"trainer-busy seconds ({busy})"
                )
        merged = fleet.report.merged
        self.job_fleets[job.name].merge(fleet.report)
        freshness = None
        if job.track_freshness:
            # The job's share of the round ends when the slower of its
            # leased readers and its trainer does; every batch the
            # round delivered counts as trained at that moment on the
            # tier's modeled clock.
            trained_at = self.clock + max(
                merged.cpu.total / workers, busy
            )
            freshness = FreshnessReport.from_batches(
                merged.batch_event_times, trained_at
            )
        return JobRoundStat(
            job=job.name,
            workers=workers,
            reader_cpu_seconds=merged.cpu.total,
            trainer_busy_seconds=busy,
            batches=merged.batches,
            streaming=job.streaming,
            bytes=merged.bytes,
            freshness=freshness,
        )
