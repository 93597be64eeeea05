"""The one way to run a job: ``Session``.

One engine prepares each registered
:class:`~repro.pipeline.spec.JobSpec` (generate → Scribe → ETL →
land), hands every job to one
:class:`~repro.reader.tier_scheduler.SharedReaderTier`, and runs
scheduling rounds until every job's epoch plan is exhausted.  A
single-job session is simply a one-job tier — the allocator leases the
whole pool to the sole job every round, so each round *is* one epoch on
a full-width fleet.

Because one loop serves every shape, features compose instead of
forking:

* **Retention for any job count** — a job with a
  :class:`~repro.pipeline.spec.RetentionSpec` lands its next window and
  ages out old partitions immediately before each of its scheduled
  epochs (the tier calls the job's ``prepare`` hook), so the rolling
  land→train→age lifecycle works identically solo or under sharing.
* **Scaling for any job count** — a
  :class:`~repro.pipeline.spec.ScalingSpec` autoscales the pool between
  rounds; with one job that *is* the classic per-fleet autoscaler
  (same modeled signal, same trace, bit-identical decisions).
* **Weights** — :attr:`JobSpec.weight` scales a job's observed reader
  demand in the stall-weighted allocator, so priority jobs pull more of
  the surplus pool without ever changing batch content.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

from ..distributed.costmodel import sim_cluster
from ..distributed.trainer import DistributedTrainer, TrainingReport
from ..metrics.overlap import OverlapReport
from ..metrics.scaling import ScalingTrace
from ..metrics.tier import Event, TierReport
from ..reader.fleet import FleetFaults, FleetReport
from ..reader.node import ReaderReport
from ..reader.tier_scheduler import SharedReaderTier, TierJob
from ..scribe.bus import ScribeStats
from ..storage.hive import HiveTable, PartitionInfo
from ..storage.rowblock import RowBlock
from ..storage.tectonic import TectonicFS
from ..streaming.lander import Lander, plan_windows
from ..trainer.checkpoint import ModelStore
from ..trainer.model import DLRM, DLRMConfig
from .spec import JobSpec, ScalingSpec

if TYPE_CHECKING:  # repro.sim imports repro.pipeline
    from ..sim.faults import FaultPlan

__all__ = [
    "PipelineResult",
    "MultiJobResult",
    "JobRuntime",
    "Session",
    "build_trainer",
    "land_table",
]


@dataclass
class PipelineResult:
    """Every stage's measurements for one job, run alone or sharing
    the tier (per-step losses are bit-identical either way)."""

    #: the job's report name
    name: str
    #: the composed spec the engine executed
    spec: JobSpec
    scribe: ScribeStats
    scribe_ingest_bytes: int
    #: the landed table rolled up across partitions (storage totals)
    partition: PartitionInfo
    reader: ReaderReport
    training: TrainingReport
    samples_landed: int
    #: per-worker + queue-wait detail behind the merged ``reader`` report
    fleet: FleetReport
    #: reader-stall vs trainer-stall attribution of the train loop,
    #: merged across rounds: measured wall-clock for a job run alone,
    #: the tier's modeled share for a job sharing the pool
    overlap: OverlapReport
    #: per-partition landing detail behind the rolled-up ``partition``
    #: (under retention: every partition that landed, dropped or not)
    partitions: list[PartitionInfo] = field(default_factory=list)
    #: which partitions each epoch actually scanned, in epoch order
    epoch_partitions: list[list[str]] = field(default_factory=list)
    #: partitions aged out by rolling-window retention, in drop order
    dropped_partitions: list[str] = field(default_factory=list)
    #: the pool autoscaler's decision history (scaled runs only)
    scaling: ScalingTrace | None = None

    # -- the Fig 7 headline metrics ------------------------------------------

    @property
    def trainer_qps(self) -> float:
        """Mean trainer throughput in samples/second (Fig 7)."""
        return self.training.mean_samples_per_second

    @property
    def reader_qps(self) -> float:
        """Reader throughput in samples per CPU-second (Fig 7)."""
        return self.reader.samples_per_cpu_second

    @property
    def storage_compression(self) -> float:
        """Landed table compression ratio (raw / compressed bytes)."""
        return self.partition.compression_ratio

    @property
    def scribe_compression(self) -> float:
        """Scribe transport compression ratio."""
        return self.scribe.compression_ratio


@dataclass
class MultiJobResult:
    """Every job's measurements plus the tier-level schedule."""

    jobs: list[PipelineResult]
    tier: TierReport

    def job(self, name: str) -> PipelineResult:
        """Look one job's result up by name."""
        for job in self.jobs:
            if job.name == name:
                return job
        raise KeyError(
            f"no job named {name!r}; jobs: {[j.name for j in self.jobs]}"
        )

    @property
    def modeled_wall_seconds(self) -> float:
        """The shared tier's modeled end-to-end wall-clock."""
        return self.tier.modeled_wall_seconds


# -- table preparation -------------------------------------------------------


def _rollup_partitions(partitions: list[PartitionInfo]) -> PartitionInfo:
    """One table-level PartitionInfo summing the landed partitions."""
    if len(partitions) == 1:
        return partitions[0]
    total = PartitionInfo(name="+".join(p.name for p in partitions))
    for p in partitions:
        total.files.extend(p.files)
        total.num_rows += p.num_rows
        total.raw_bytes += p.raw_bytes
        total.compressed_bytes += p.compressed_bytes
    return total


def land_table(
    job: JobSpec,
) -> tuple[HiveTable, ScribeStats, int, list[PartitionInfo], RowBlock]:
    """Stages 1–4: generate, transport, join, land.

    The joined rows land as ``num_partitions`` time partitions
    ``p0..p{N-1}`` — contiguous row ranges of the ETL output, mirroring
    the paper's day-partitioned tables — so concatenating the partitions
    in order always reproduces the single-partition row order.

    Args:
        job: the run's parameters.

    Returns:
        ``(table, scribe_stats, etl_ingest_bytes, partitions, samples)``
        — the landed table, transport stats, and the joined rows as a
        :class:`~repro.storage.rowblock.RowBlock` (``len``, slicing and
        lazy row iteration, like the list it replaced).
    """
    lander = Lander(job)
    lander.land_all()
    return (
        lander.table,
        lander.scribe.stats,
        lander.ingest_bytes,
        lander.partitions,
        lander.samples,
    )


def _validate_epoch_batches(job: JobSpec, rows: Sequence[int]) -> None:
    """Fail fast if an epoch window cannot fill a single batch.

    Validates from landed (or planned) row counts *before* any reader
    worker is spawned: an epoch with zero trainable batches must fail,
    not after multiprocessing workers scanned an undersized partition.
    """
    batch_size = job.effective_batch_size
    epoch_batches = sum(r // batch_size for r in rows)
    if job.train.train_batches is not None:
        epoch_batches = min(epoch_batches, job.train.train_batches)
    if epoch_batches == 0:
        raise ValueError(
            "partition too small for even one batch: "
            f"[{', '.join(str(r) for r in rows)}] rows across "
            f"{len(rows)} partition(s) < batch {batch_size} "
            f"(train_batches={job.train.train_batches}); raise "
            "DataSpec.num_sessions or lower DataSpec.num_partitions"
        )


def build_trainer(job: JobSpec) -> DistributedTrainer:
    """The job's trainer: a seeded DLRM under the modeled cluster.

    A standalone builder so every execution shape — solo, shared tier,
    or a custom harness — constructs the trainer identically, which is
    what makes per-job losses under sharing bit-identical to solo runs.

    Args:
        job: the job's composed spec.

    Returns:
        The job's seeded :class:`~repro.distributed.trainer.DistributedTrainer`.
    """
    w = job.data.workload
    model = DLRM(
        list(w.schema.sparse),
        DLRMConfig.from_workload(
            w, max_table_rows=job.train.max_table_rows, seed=job.data.seed
        ),
        job.trainer_flags,
    )
    cluster = sim_cluster(
        num_gpus=job.train.num_gpus, gpus_per_node=job.train.gpus_per_node
    )
    return DistributedTrainer(model, cluster)


# -- the engine --------------------------------------------------------------

#: plan event kinds, in the order a round applies them
_ARRIVAL, _RESUME, _PREEMPT = range(3)
#: the tier log's event kinds a session's plan produces
_PLAN_KINDS = ("arrival", "resume", "preempt", "fleet_faults")


def _require_spec(spec, where: str) -> None:
    """The engine's input boundary: only a :class:`JobSpec` gets in."""
    if not isinstance(spec, JobSpec):
        raise TypeError(
            f"{where} must be a JobSpec, got {type(spec).__name__}"
        )


class JobRuntime:
    """One registered job's live state inside a :class:`Session`.

    Public because :meth:`Session.runtime` hands it out: its trainer,
    lander and table are how a caller reads a job mid-run.  A runtime
    built with ``resume=(store, epochs_done)`` loads the job's snapshot
    (saved under its name) into its freshly built trainer and registers
    only the plan's remaining epochs, which is exactly the shape a
    preempted job resumes in when the session plays a fault plan:
    because restore is exact and batch content never depends on
    scheduling, the resumed losses are bit-identical to the
    uninterrupted run's tail.
    """

    def __init__(
        self,
        name: str,
        spec: JobSpec,
        *,
        resume: tuple[ModelStore, int] | None = None,
    ):
        """Prepare one job: trainer (restored if resuming), table, plan.

        Args:
            name: the job's report name.
            spec: the job's composed spec.
            resume: the preempting session's snapshot store and the
                epochs of the plan already done; ``None`` starts fresh.

        Raises:
            ValueError: if an epoch window cannot fill one batch.
            FileNotFoundError: if the store holds no snapshot of the job.
        """
        self.name = name
        self.spec = spec
        store, start = resume if resume is not None else (None, 0)
        #: epochs of the plan done before this registration
        self.start_epoch = start
        self.trainer = build_trainer(spec)
        if store is not None:
            store.load(name, self.trainer.model)
        #: the job's landing engine: the only way its rows reach storage
        self.lander = lander = Lander(spec)
        self.table = table = lander.table
        live = spec.stream is not None
        windows = plan_windows(
            spec.data.num_partitions,
            spec.retention.window if spec.retention is not None else None,
            spec.train.train_epochs,
            live,
        )
        self.epochs = [[f"p{i}" for i in w] for w in windows[start:]]
        partition_rows = lander.partition_rows()
        # Fail fast on the first window, from planned row counts —
        # before the trainer ever sees an empty epoch.
        _validate_epoch_batches(
            spec, [partition_rows[p] for p in self.epochs[0]]
        )
        # What exists before round one lands now: a static job's whole
        # table, nothing yet of a streamed or rolling-window one.
        lander.pump(0.0)

        def ready(epoch: int) -> bool:
            """Data gate: this epoch's window ends at a
            micro-partition the lander may not have landed yet
            (``epoch`` indexes this registration's plan, so a
            resumed job offsets into the full window schedule)."""
            return lander.landed_count > windows[start + epoch][-1]

        def prepare(epoch: int) -> None:
            """Land this epoch's window, then age out anything older
            — the between-epoch retention lifecycle.  A streamed job's
            window already landed on the clock (``ready`` held the
            epoch back until it had) and a window without retention
            starts at ``p0``, so for those this only ever drops or
            does nothing.  ``epoch`` indexes this registration's plan,
            so a resumed job offsets into the full window schedule."""
            window = windows[start + epoch]
            lander.land_through(window[-1])
            for name in [
                p for p in table.partitions if int(p[1:]) < window[0]
            ]:
                table.drop_partition(name)

        trainer = self.trainer
        track = spec.train.track_updates
        materialize = not spec.reader.streaming

        def consume(epoch: int, source) -> float:
            """Feed one scheduled epoch into this job's trainer; return
            the epoch's modeled trainer-busy seconds."""
            steps_before = len(trainer.report.iterations)
            if materialize:
                source = list(source)
            trainer.run(source, track_updates=track)
            return sum(
                it.iteration_seconds
                for it in trainer.report.iterations[steps_before:]
            )

        self.tier_job = TierJob(
            name=name,
            table=self.table,
            config=spec.dataloader_config(),
            epochs=self.epochs,
            max_batches=spec.train.train_batches,
            consume=consume,
            prefetch_depth=spec.reader.prefetch_depth,
            executor=spec.reader.executor,
            transport=spec.reader.transport,
            streaming=spec.reader.streaming,
            weight=spec.weight,
            prepare=prepare,
            partition_rows=partition_rows,
            ready=ready if live else None,
            track_freshness=live,
        )


class Session:
    """The execution engine: one or many :class:`JobSpec`\\ s, one loop.

    Construct with a single spec (the whole pool serves the one job
    every round and :meth:`run` returns a :class:`PipelineResult`) or a
    sequence of specs (the pool is multiplexed across jobs and
    :meth:`run` returns a :class:`MultiJobResult`).

    Pool-level scaling resolves in precedence order: the explicit
    ``scaling`` argument, else the registered jobs' own
    :class:`~repro.pipeline.spec.ScalingSpec`\\ s (tightest
    ``target_stall``, widest ``max_readers``), else fixed width.

    :meth:`run` is the one loop, over :meth:`tick`.  A session built
    with a :class:`~repro.sim.faults.FaultPlan` plays it inside that
    loop: each tick first applies the plan's due arrivals, resumes and
    preemptions (a preempted job checkpoints into the session's own
    :class:`~repro.trainer.checkpoint.ModelStore` and its losses so far
    move to :attr:`segments`), the plan's crashes and stragglers reach
    the tier through its fault hook, and every applied event is
    logged once in the tier's :attr:`~SharedReaderTier.events`
    (:attr:`events` is their plan-kind view).
    """

    def __init__(
        self,
        jobs: JobSpec | Sequence[JobSpec],
        *,
        width: int | None = None,
        policy: str = "stall_weighted",
        scaling: ScalingSpec | None = None,
        names: Sequence[str] | None = None,
        freshness_slo: float | None = None,
        plan: FaultPlan | None = None,
    ):
        """Configure the session.

        Args:
            jobs: one spec, or a sequence of specs to share the pool.
            width: pool width (total reader workers).  Defaults to the
                sole job's ``ReaderSpec.num_readers``; required when
                sharing.
            policy: worker-allocation policy (``"stall_weighted"`` or
                ``"round_robin"``).
            scaling: pool-level autoscaling override; ``None`` defers
                to the jobs' own specs.
            names: report names overriding each spec's ``name``.
            freshness_slo: target p99 event-time → trained-on lag in
                modeled seconds for streaming jobs; the tier boosts
                the allocation weight of jobs lagging past it (see
                :class:`~repro.reader.tier_scheduler.SharedReaderTier`).
            plan: the misfortune schedule to play (crashes,
                stragglers, preemptions, arrivals), keyed by tier
                round; ``None`` runs clean.  With a plan the session
                keeps its preempted jobs' snapshots in its own
                :class:`~repro.trainer.checkpoint.ModelStore`, on a
                fresh simulated Tectonic namespace.

        Raises:
            TypeError: if ``jobs`` is neither a :class:`JobSpec` nor a
                sequence of them (the message names the offending type
                and its position; a bare non-spec counts as position 0),
                or a plan arrival's spec is not a :class:`JobSpec`.
            ValueError: on an empty job list, missing multi-job width,
                duplicate/mismatched names, or a plan arrival named
                like an initial job.
        """
        self._single = isinstance(jobs, JobSpec)
        self.specs = list(jobs) if isinstance(jobs, Iterable) else [jobs]
        if not self.specs:
            raise ValueError("Session needs at least one job spec")
        for i, spec in enumerate(self.specs):
            _require_spec(spec, f"Session jobs[{i}]")
        if names is not None:
            names = list(names)
            if len(names) != len(self.specs):
                raise ValueError(
                    f"{len(names)} names for {len(self.specs)} jobs"
                )
            self.names = names
        else:
            self.names = [
                spec.name if spec.name is not None else f"job{i}"
                for i, spec in enumerate(self.specs)
            ]
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate job names: {self.names}")
        if width is None:
            if not self._single:
                raise ValueError(
                    "Session needs an explicit pool width when sharing "
                    "across multiple jobs (width=...)"
                )
            width = self.specs[0].reader.num_readers
        self.width = width
        self.policy = policy
        if scaling is None:
            per_job = [s.scaling for s in self.specs if s.scaling is not None]
            if per_job:
                # A job's own bound caps its *solo* fleet; promoted to
                # the pool it must never undercut the pool's width, or
                # a wide pool would trip the autoscaler's sanity check
                # on behalf of a job that never mentioned the pool.
                floor = [] if self._single else [self.width]
                scaling = ScalingSpec(
                    target_stall=min(s.target_stall for s in per_job),
                    max_readers=max(
                        [s.max_readers for s in per_job] + floor
                    ),
                )
        self.scaling = scaling
        self.freshness_slo = freshness_slo
        self.plan = plan
        #: per-job losses of the registrations a preemption cut short
        self.segments: dict[str, list[float]] = {}
        #: plan events still owed, as ``(round, kind, job, payload)``
        self._agenda: list[tuple] = []
        if plan is not None:
            clash = {a.name for a in plan.arrivals} & set(self.names)
            if clash:
                raise ValueError(
                    f"arrival names collide with initial jobs: {sorted(clash)}"
                )
            for a in plan.arrivals:
                _require_spec(a.spec, f"plan arrival {a.name!r} spec")
                self._agenda.append((a.round, _ARRIVAL, a.name, a.spec))
            for p in plan.preemptions:
                self._agenda.append((p.round, _PREEMPT, p.job, p.resume_after))
        self._store = ModelStore(TectonicFS()) if plan is not None else None
        self.tier: SharedReaderTier | None = None
        self._runtimes: dict[str, JobRuntime] = {}

    def prepare(self) -> SharedReaderTier:
        """Build the tier and every job's runtime; register everything.

        Called implicitly by :meth:`run`; call it first to reach a
        job's :meth:`runtime` before the loop starts.  With a plan, it
        also sets the tier's fault hook to the plan's
        :meth:`~repro.sim.faults.FaultPlan.fleet_faults`, logging
        every fault that fires as a ``fleet_faults`` event.

        Returns:
            The session's :class:`~repro.reader.tier_scheduler.SharedReaderTier`
            (also left in :attr:`tier`).

        Raises:
            RuntimeError: if the session was already prepared.
            ValueError: from spec validation, an epoch window that
                cannot fill one batch, or tier admission.
        """
        if self.tier is not None:
            raise RuntimeError(
                "session already prepared; build a new Session to rerun"
            )
        self.tier = SharedReaderTier(
            self.width,
            policy=self.policy,
            scaling=self.scaling,
            freshness_slo=self.freshness_slo,
        )
        if self.plan is not None:
            self.tier.fault_injector = self._fleet_faults
        for name, spec in zip(self.names, self.specs):
            self.admit(spec, name)
        return self.tier

    def _fleet_faults(self, round_index: int, name: str) -> FleetFaults | None:
        """The plan's faults for one leased scan, logged as an event."""
        faults = self.plan.fleet_faults(round_index, name)
        if faults is not None:
            self.tier.emit(
                "fleet_faults",
                name,
                crashed_shards=list(faults.crashed_shards),
                straggler_factors=dict(
                    sorted(faults.straggler_factors.items())
                ),
                lost_fraction=faults.lost_fraction,
            )
        return faults

    @property
    def events(self) -> list[Event]:
        """Every plan event applied so far, in application order: the
        tier log's ``arrival``, ``resume``, ``preempt`` and
        ``fleet_faults`` entries (``[]`` before :meth:`prepare`)."""
        if self.tier is None:
            return []
        return [e for e in self.tier.events if e.kind in _PLAN_KINDS]

    # -- the drive loop -----------------------------------------------------

    def tick(self) -> bool:
        """Run one iteration of the drive loop.

        The only place plan events, landing, scheduling, and idle
        time are sequenced: apply the plan's events due this round,
        pump every job's lander at the tier's current clock — so no
        round ever trains over a partition that had not landed at the
        modeled moment the round started — then try one tier round.
        A round that cannot run means every remaining job is either
        finished or gated on data; if a lander still has ticks
        pending, the clock jumps to the next landing time instead of
        spinning, the modeled equivalent of the platform sitting idle
        until the next scribe tick seals.  If none has but the plan
        still owes an arrival or a resume, that idle gap collapses:
        everything owed falls due now.  For jobs that are fully landed
        the pump is a no-op and there is no next event, so a static
        session's ticks are exactly its tier's rounds.

        Returns:
            ``True`` if the loop moved (a round ran, the clock jumped,
            or an idle gap collapsed) and should be ticked again;
            ``False`` when nothing is runnable, no landing is pending
            and the plan owes no job — the run is complete, or, if the
            tier still has epochs remaining, stuck.

        Raises:
            RuntimeError: if the session was never prepared, or its
                tier not started.
        """
        if self.tier is None:
            raise RuntimeError("session not prepared; nothing to tick")
        tier = self.tier
        if self._agenda:
            self._play(tier.round_index)
        landers = [rt.lander for rt in self._runtimes.values()]
        for lander in landers:
            lander.pump(tier.clock)
        if tier.step():
            return True
        if tier.epochs_remaining:
            events = [lander.next_event(tier.clock) for lander in landers]
            nxt = min((e for e in events if e is not None), default=None)
            if nxt is not None:
                tier.advance_clock(nxt)
                return True
        # idle: if the plan still owes a job, everything owed is due now
        if all(e[1] == _PREEMPT for e in self._agenda):
            return False
        rnd = tier.round_index
        self._agenda = [
            e if e[1] == _PREEMPT else (rnd, *e[1:]) for e in self._agenda
        ]
        return True

    def _play(self, rnd: int) -> None:
        """Apply the plan events due at round ``rnd``: arrivals, then
        resumes, then preemptions, each kind in job-name order.

        A tick plays every event as soon as it falls due, so every
        due event is this round's.  Each fires at most once: a
        preemption whose victim is not registered (unknown, not yet
        arrived, or descheduled) or has finished its plan is spent,
        not retried: a retried preemption whose resume a collapsed
        idle gap pulled back to its round would loop forever.
        """
        due = sorted(
            (e for e in self._agenda if e[0] <= rnd), key=itemgetter(1, 2)
        )
        self._agenda = [e for e in self._agenda if e[0] > rnd]
        for _, kind, name, payload in due:
            if kind == _PREEMPT:
                self._preempt(name, rnd, payload)
            elif kind == _RESUME:
                spec, done = payload
                self._register(
                    JobRuntime(name, spec, resume=(self._store, done))
                )
                self.tier.emit("resume", name, start_epoch=done)
            else:
                self.admit(payload, name)
                self.tier.emit("arrival", name)

    def _preempt(self, name: str, rnd: int, resume_after: int) -> None:
        """Checkpoint and deschedule a job; owe its resume.

        The job's model snapshots into the session's store under its
        name, its losses so far move to :attr:`segments`, and the tier
        stops scheduling it (its name frees up).  ``resume_after``
        rounds on, its spec is registered again, resuming from that
        snapshot at the first epoch still unrun.
        """
        runtime = self._runtimes.get(name)
        if runtime is None:
            return
        done = runtime.start_epoch + self.tier.epochs_completed(name)
        if done >= runtime.spec.train.train_epochs:
            return
        self.tier.preempt(name)
        del self._runtimes[name]
        losses = runtime.trainer.report.losses
        self.segments.setdefault(name, []).extend(losses)
        self._store.save(name, runtime.trainer.model)
        self._agenda.append(
            (rnd + resume_after, _RESUME, name, (runtime.spec, done))
        )
        self.tier.emit(
            "preempt", name, epochs_done=done, resume_round=rnd + resume_after
        )

    def land_all_streams(self) -> None:
        """Land every job's table in full, now — the
        land-everything-first baseline (a no-op for a static job,
        whose table landed in :meth:`prepare`).  A live run's per-step
        losses are bit-identical to calling this on a fresh, prepared
        session and then :meth:`run`, which is the invariant ``repro
        stream --verify`` checks.

        Raises:
            RuntimeError: if the session was never prepared.
        """
        if self.tier is None:
            raise RuntimeError("session not prepared; nothing to land")
        for rt in self._runtimes.values():
            rt.lander.land_all()

    def runtime(self, name: str) -> JobRuntime:
        """The named job's live :class:`JobRuntime`.

        Raises:
            KeyError: if no such job exists in this session.
        """
        if name not in self._runtimes:
            raise KeyError(
                f"no job named {name!r}; jobs: {list(self._runtimes)}"
            )
        return self._runtimes[name]

    def admit(self, spec: JobSpec, name: str) -> JobRuntime:
        """Register a job with the tier: every job at :meth:`prepare`,
        a plan's arrival mid-run.

        Mid-run the tier grants the newcomer strict next-round priority,
        so an admitted job is never starved more than one round.

        Args:
            spec: the job's spec.
            name: the job's report name.

        Returns:
            The admitted job's :class:`JobRuntime`.

        Raises:
            RuntimeError: if called before :meth:`prepare`.
            TypeError: if ``spec`` is not a :class:`JobSpec`.
            ValueError: from spec validation or tier admission (name
                still in use, tier at capacity).
        """
        if self.tier is None:
            raise RuntimeError("session not prepared; nothing to admit to")
        _require_spec(spec, f"Session.admit spec for job {name!r}")
        return self._register(JobRuntime(name, spec))

    def _register(self, runtime: JobRuntime) -> JobRuntime:
        """Hand a built runtime to the tier and track it by name."""
        self.tier.register(runtime.tier_job)
        self._runtimes[runtime.name] = runtime
        return runtime

    def collect(
        self, wall_seconds: float = 0.0
    ) -> PipelineResult | MultiJobResult:
        """Assemble results for every job still registered.

        A resumed job's result covers its current registration (the
        epochs since its last resume); the losses of the registrations
        before it are in :attr:`segments`.

        Args:
            wall_seconds: measured loop wall-clock for the single-job
                overlap attribution (:meth:`run` passes it).

        Raises:
            RuntimeError: if the tier has not finished.
        """
        if self.tier is None or self.tier.report is None:
            raise RuntimeError(
                "session has no finished tier run to collect from"
            )
        report = self.tier.report
        solo = self._single and len(self._runtimes) == 1
        jobs = []
        for rt in self._runtimes.values():
            fleet = self.tier.job_fleets[rt.name]
            merged = fleet.merged
            # The one thing a solo and a shared job report differently.
            # A solo job attributes the *measured* loop wall — in the
            # materialized mode the serialized reader scan (the list()
            # before training) shows up as other_fraction, exactly the
            # time streaming overlaps away, so the A/B is comparable.
            # Jobs sharing the pool interleave inside one loop, so each
            # takes its modeled share of the tier's rounds instead.
            overlap = (
                OverlapReport.from_run(
                    rt.trainer.report,
                    queue=fleet.queue,
                    wall_seconds=wall_seconds,
                    streaming=rt.spec.reader.streaming,
                    reader=merged,
                )
                if solo
                else report.job_overlap(rt.name)
            )
            jobs.append(
                PipelineResult(
                    name=rt.name,
                    spec=rt.spec,
                    scribe=rt.lander.scribe.stats,
                    scribe_ingest_bytes=rt.lander.ingest_bytes,
                    partition=_rollup_partitions(rt.lander.partitions),
                    reader=merged,
                    training=rt.trainer.report,
                    samples_landed=len(rt.lander.samples),
                    fleet=fleet,
                    partitions=rt.lander.partitions,
                    overlap=overlap,
                    epoch_partitions=[list(e) for e in rt.epochs],
                    dropped_partitions=list(rt.table.dropped),
                    scaling=report.scaling,
                )
            )
        return jobs[0] if solo else MultiJobResult(jobs=jobs, tier=report)

    def run(self) -> PipelineResult | MultiJobResult:
        """Prepare every job (unless :meth:`prepare` already ran), then
        :meth:`tick` landing and scheduling rounds until both drain.

        Returns:
            A :class:`PipelineResult` when the session was built from a
            single spec, else a :class:`MultiJobResult`.

        Raises:
            ValueError: from spec validation, an epoch window that
                cannot fill one batch, or tier admission.
            RuntimeError: if the session already ran, or jobs are
                still waiting on data once every stream is exhausted
                (a deadlock).
        """
        tier = self.tier if self.tier is not None else self.prepare()
        loop_started = time.perf_counter()
        tier.start()
        while self.tick():
            pass
        if tier.epochs_remaining:
            # Every lander is drained yet some job is still gated: its
            # ready hook can never satisfy.  Admission validates plans
            # against the declared stream, so this is a driver bug
            # worth failing loudly on, not a state to spin in.
            raise RuntimeError(
                "live loop deadlocked: jobs are waiting on data "
                "but every stream is exhausted"
            )
        tier.finish()
        loop_wall = time.perf_counter() - loop_started
        return self.collect(loop_wall)
