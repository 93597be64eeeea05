"""A sharded fleet of reader workers feeding trainers (Fig 5, §2.1).

The deployed reader tier is a *fleet*: N stateless readers each scan a
slice of a landed partition concurrently and stream preprocessed batches
to trainers.  :class:`ReaderFleet` reproduces that shape over one
Hive/DWRF partition:

* the partition's global row order is cut into batch-aligned
  :class:`~repro.reader.shard.RowRangeShard` windows (one per worker);
* each worker runs the full Fill -> Convert -> Process
  :class:`~repro.reader.node.ReaderNode` pipeline over its window;
* the merge loop emits finished batches in shard order, so the
  fleet's batch stream is **bit-identical** to the serial reader's
  regardless of worker count or scheduling (forked workers stream them
  back through bounded queues of depth 2 — double buffering: a worker
  decodes its next batch while the previous one is in flight);
* per-worker :class:`~repro.reader.node.ReaderReport`\\ s plus queue
  accounting merge into one :class:`FleetReport`.

:meth:`ReaderFleet.iter_epoch` runs the same machinery over a
*multi-partition epoch*: :func:`~repro.reader.shard.plan_epoch` shards
every partition in order, and the fleet drains the global shard sequence
keeping at most ``num_readers`` worker processes in flight (workers for
later shards — including later partitions' — launch as earlier shards
finish, so prefetch overlaps partition boundaries).  Output order stays
bit-identical to scanning the partitions serially.  It returns a lazy
iterator: a consumer that trains while iterating overlaps reader decode
with trainer steps, which is what the pipeline's streaming mode does
(:meth:`ReaderFleet.run_epoch` is the materialized form).

One shard scan, two schedules.  :func:`_scan_shard` is the only code
that turns a shard into batches; what differs is who calls it when.
The *serial* schedule, ``"inprocess"`` (the default, ``_iter_serial``),
scans the shards one after another in the calling process —
deterministic, dependency-free, so a width-64 fleet runs in tier-1
time; it has no queue, so its queue waits stay 0.  The *forked*
schedule, ``"process"``, runs the scan in real ``multiprocessing``
workers behind bounded queues — actual CPU parallelism, the production
shape, and the only executor that *measures* queue waits; it runs only
when named, and a platform that cannot start its workers fails the scan
with a ``RuntimeError`` instead of quietly scanning in-process.

Batches cross the worker→trainer boundary under a
:class:`~repro.reader.costmodel.TransportSpec`: the default ``copy``
transport charges a modeled per-batch serialize/copy cost
(``queue.transport``, ``bytes.copied``); ``shm`` models a zero-copy
shared-memory handoff (zero charge, ``bytes.avoided``).  The stream is
bit-identical either way.

Production reader workers also *fail*: processes crash mid-shard and get
respawned, and overloaded hosts straggle.  :class:`FleetFaults` injects
both deterministically — a crashed shard is re-scanned from the start by
its respawned worker (batch content unchanged; the lost partial scan is
charged as wasted CPU), and a straggler shard's modeled CPU is scaled by
its slowdown factor.  Fault injection runs on the serial schedule, so
every fault's effect on the modeled accounting is bit-reproducible,
which is what lets the scenario simulator (``repro.sim``) replay chaos
runs exactly, now at width 64+.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_lib
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from ..metrics.breakdown import QueueWaitBreakdown
from ..metrics.ledger import Folded
from ..storage.dwrf import DwrfReader
from ..storage.hive import HiveTable
from .batch import Batch
from .config import DataLoaderConfig
from .costmodel import ReaderCostModel, TransportSpec
from .node import ReaderNode, ReaderReport
from .shard import RowRangeShard, covering_files, plan_epoch

__all__ = ["EXECUTORS", "FleetFaults", "FleetReport", "ReaderFleet"]

#: the fleet executors; the batch stream is bit-identical under each
EXECUTORS = ("inprocess", "process")
_DONE = "__shard_done__"
_ERROR = "__shard_error__"
_WORKER_JOIN_TIMEOUT = 30.0
#: batches a forked worker may queue ahead of the merge loop (double
#: buffering)
_PREFETCH_DEPTH = 2


@dataclass(frozen=True)
class FleetFaults:
    """Deterministic fault injection for one fleet scan.

    Shards are addressed by their *position* in the scan's global shard
    sequence; positions are reduced modulo the scan's shard count, so a
    seeded fault plan stays valid for any epoch geometry (a plan naming
    shard 7 of a 3-shard scan crashes shard 1).

    Attributes:
        crashed_shards: shard positions whose worker crashes mid-scan
            and is respawned.  The respawn re-scans the whole shard, so
            batch content is unchanged; the crashed attempt's partial
            work (``lost_fraction`` of the shard's CPU) is charged as
            wasted CPU on top of the re-scan.
        straggler_factors: ``{shard position: slowdown factor}`` — the
            shard's modeled CPU is multiplied by the factor (> 1.0 is a
            slow worker).  Positions colliding after the modulo keep
            the largest factor.
        lost_fraction: fraction of a crashed shard's CPU spent before
            the crash (wasted, then re-done by the respawn).
    """

    crashed_shards: tuple[int, ...] = ()
    straggler_factors: Mapping[int, float] = field(default_factory=dict)
    lost_fraction: float = 0.5

    def __post_init__(self) -> None:
        if any(pos < 0 for pos in self.crashed_shards):
            raise ValueError(
                f"crashed shard positions must be non-negative, got "
                f"{self.crashed_shards}"
            )
        bad = {
            pos: f
            for pos, f in self.straggler_factors.items()
            if pos < 0 or not f >= 1.0
        }
        if bad:
            raise ValueError(
                "straggler factors need non-negative positions and "
                f"factors >= 1.0, got {bad}"
            )
        if not 0.0 <= self.lost_fraction <= 1.0:
            raise ValueError(
                f"lost_fraction must be in [0, 1], got {self.lost_fraction}"
            )

    def __bool__(self) -> bool:
        """True when any fault is actually scheduled."""
        return bool(self.crashed_shards) or bool(self.straggler_factors)

    def resolved(self, num_shards: int) -> tuple[set[int], dict[int, float]]:
        """Map positions onto a concrete scan's shard count.

        Args:
            num_shards: shards in the scan (must be positive for a
                non-empty fault set).

        Returns:
            ``(crashed positions, {position: factor})`` with every
            position in ``range(num_shards)``.
        """
        if num_shards <= 0:
            return set(), {}
        crashed = {pos % num_shards for pos in self.crashed_shards}
        factors: dict[int, float] = {}
        for pos, factor in sorted(self.straggler_factors.items()):
            key = pos % num_shards
            factors[key] = max(factors.get(key, 1.0), factor)
        return crashed, factors


@dataclass
class FleetReport(Folded):
    """Merged measurements for one fleet run."""

    workers: list[ReaderReport] = field(default_factory=list)
    queue: QueueWaitBreakdown = field(default_factory=QueueWaitBreakdown)
    executor_used: str = "inprocess"
    num_shards: int = 0
    wall_seconds: float = 0.0  # measured end-to-end run() time
    #: worker crashes injected (each shard re-scanned by a respawn)
    crashes: int = 0
    #: shards that ran under an injected straggler slowdown
    straggler_shards: int = 0
    #: modeled CPU seconds lost to crashed attempts (re-done by respawns)
    wasted_cpu_seconds: float = 0.0

    @property
    def merged(self) -> ReaderReport:
        """All workers folded into one tier-level ReaderReport."""
        return ReaderReport.fold(self.workers)

    @property
    def modeled_wall_seconds(self) -> float:
        """Modeled fleet latency: the slowest worker's CPU time (workers
        run in parallel, so the fleet finishes with its straggler)."""
        return max((rep.cpu.total for rep in self.workers), default=0.0)

    @property
    def modeled_samples_per_second(self) -> float:
        """Fleet throughput against the modeled parallel wall-clock."""
        wall = self.modeled_wall_seconds
        if wall == 0:
            return 0.0
        return self.merged.samples / wall

    @property
    def modeled_delivered_wall_seconds(self) -> float:
        """Modeled latency to *deliver* every batch to the consumer.

        Decode is parallel (:attr:`modeled_wall_seconds` shrinks with
        width) but the copy transport's per-batch handoff is serial at
        the consumer (``queue.transport`` is width-independent), so
        delivery finishes no earlier than either term.  This is the
        Amdahl floor that bends wide-fleet scaling — and what the shm
        transport removes.
        """
        return max(self.modeled_wall_seconds, self.queue.transport)

    @property
    def modeled_delivered_samples_per_second(self) -> float:
        """Fleet throughput against the delivered (transport-floored)
        wall-clock."""
        wall = self.modeled_delivered_wall_seconds
        if wall == 0:
            return 0.0
        return self.merged.samples / wall

    def merge(self, other: "FleetReport") -> None:
        """Fold another run's measurements in (epoch aggregation);
        the one non-additive field, the executor name, degrades to
        ``"mixed"`` when runs disagree."""
        was_empty = not self.workers and self.num_shards == 0
        if was_empty or self.executor_used == other.executor_used:
            self.executor_used = other.executor_used
        else:
            self.executor_used = "mixed"
        super().merge(other)

    def as_dict(self) -> dict:
        """Serialize to a plain JSON-ready dict (the run-store form).

        Per-worker reports serialize individually so the stored form
        preserves shard-level imbalance, not just the merged rollup.
        Hand-written as a policy: a view (workers, rollup, modeled
        walls) that leaves the measured ``wall_seconds`` out.
        """
        return {
            "executor_used": self.executor_used,
            "num_workers": len(self.workers),
            "num_shards": self.num_shards,
            "workers": [w.as_dict() for w in self.workers],
            "merged": self.merged.as_dict(),
            "queue": self.queue.as_dict(),
            "modeled_wall_seconds": self.modeled_wall_seconds,
            "modeled_samples_per_second": self.modeled_samples_per_second,
            "modeled_delivered_wall_seconds": (
                self.modeled_delivered_wall_seconds
            ),
            "modeled_delivered_samples_per_second": (
                self.modeled_delivered_samples_per_second
            ),
            "crashes": self.crashes,
            "straggler_shards": self.straggler_shards,
            "wasted_cpu_seconds": self.wasted_cpu_seconds,
        }


def _scan_shard(
    blobs: list[bytes],
    schema,
    config: DataLoaderConfig,
    local_start: int,
    local_stop: int,
) -> tuple[ReaderNode, Iterator[Batch]]:
    """Open one shard's covering files and scan its row window: the
    node (its report fills as the batches are drawn) and the batches."""
    node = ReaderNode(config)
    readers = [DwrfReader(blob, schema) for blob in blobs]
    return node, node.run(readers, row_start=local_start, row_stop=local_stop)


def _fleet_worker(
    blobs: list[bytes],
    schema,
    config: DataLoaderConfig,
    local_start: int,
    local_stop: int,
    out: multiprocessing.queues.Queue,
) -> None:
    """One worker process: scan a shard window, stream batches back."""
    try:
        node, batches = _scan_shard(
            blobs, schema, config, local_start, local_stop
        )
        blocked = 0.0  # seconds put() waited on a full queue
        for batch in batches:
            t0 = time.perf_counter()
            out.put(batch)
            blocked += time.perf_counter() - t0
        out.put((_DONE, node.report, blocked))
    except Exception as exc:  # surfaced in the parent
        out.put((_ERROR, f"{type(exc).__name__}: {exc}"))


class ReaderFleet:
    """N sharded reader workers over one landed partition.

    The fleet's batch stream is bit-identical to
    ``ReaderNode.run_all(table.open_readers(partition))`` for every
    ``num_readers`` — sharding only changes *who* decodes a row, never
    which rows form which batch.
    """

    def __init__(
        self,
        num_readers: int,
        config: DataLoaderConfig,
        executor: str = "inprocess",
        faults: FleetFaults | None = None,
        transport: TransportSpec | str | None = None,
    ):
        if num_readers <= 0:
            raise ValueError(
                f"num_readers must be positive, got {num_readers}: a "
                "fleet needs at least one reader worker to scan shards"
            )
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if faults and executor == "process":
            raise ValueError(
                "fault injection needs a deterministic executor "
                "(crash/straggler effects must be bit-reproducible); "
                "use executor='inprocess'"
            )
        self.num_readers = num_readers
        self.config = config
        self.cost_model = ReaderCostModel()
        self.executor = executor
        self.faults = faults
        self.transport = TransportSpec.coerce(
            transport if transport is not None else TransportSpec()
        )
        self.report = FleetReport()

    # -- public API --------------------------------------------------------

    def run_epoch(
        self,
        table: HiveTable,
        partitions: Sequence[str],
        max_batches: int | None = None,
    ) -> list[Batch]:
        """Materialized :meth:`iter_epoch` (tests and small experiments)."""
        return list(self.iter_epoch(table, partitions, max_batches))

    def iter_epoch(
        self,
        table: HiveTable,
        partitions: Sequence[str],
        max_batches: int | None = None,
    ) -> Iterator[Batch]:
        """Stream one epoch over ``partitions``, in deterministic order.

        The epoch's global batch order is bit-identical to scanning each
        partition serially in the order given; ``max_batches`` caps the
        whole epoch.  At most ``num_readers`` worker processes run at any
        moment — workers for later shards (and partitions) launch as
        earlier shards drain, so decode overlaps partition boundaries and
        whatever the consumer does between ``next()`` calls.
        """
        missing = [p for p in partitions if p not in table.partitions]
        if missing:
            # Name each offending partition with *why* it is not live so
            # a failed epoch is diagnosable from the message alone: a
            # retention-dropped partition means the epoch plan lags the
            # rolling window; a never-landed one means the plan is wrong.
            detail = ", ".join(
                f"{p!r} ("
                + (
                    "dropped by retention"
                    if p in table.dropped
                    else "never landed"
                )
                + ")"
                for p in missing
            )
            raise KeyError(
                f"cannot scan epoch {list(partitions)} of table "
                f"{table.name!r}: {detail}; current live window: "
                f"{table.live_partitions}"
            )
        infos = [table.partitions[p] for p in partitions]
        plan = plan_epoch(
            [(p, info.num_rows) for p, info in zip(partitions, infos)],
            self.config.batch_size,
            self.num_readers,
            max_batches=max_batches,
        )
        planned = [
            (info, shards)
            for (_, shards), info in zip(plan, infos)
            if shards
        ]
        total_shards = sum(len(shards) for _, shards in planned)
        self.report = FleetReport(
            num_shards=total_shards, executor_used=self.executor
        )
        started = time.perf_counter()

        def sources() -> Iterator[tuple[RowRangeShard, list[bytes], int, int]]:
            """Every planned shard with its covering file blobs."""
            for info, shards in planned:
                yield from self._shard_sources(table, info, shards)

        iterate = (
            self._iter_multiprocess
            if self.executor == "process"
            else self._iter_serial
        )
        try:
            yield from iterate(table.schema, sources())
        finally:
            self.report.wall_seconds = time.perf_counter() - started

    # -- executors ---------------------------------------------------------

    def _account_transport(self, rep: ReaderReport) -> None:
        """Charge the transport model for one worker's wire bytes.

        Runs identically under every executor (the whole point: the
        bytes accounting is part of the bit-identity contract).  The
        copy transport charges modeled serialize seconds into
        ``queue.transport`` and counts the bytes as copied; shm counts
        the same bytes as avoided and charges nothing.
        """
        ledger = rep.bytes
        if self.transport.charges:
            ledger.copied += ledger.decoded
            self.report.queue.transport += self.cost_model.transport_seconds(
                ledger.decoded, rep.batches
            )
        else:
            ledger.avoided += ledger.decoded

    def _settle_shard(
        self, node: ReaderNode, slowdown: float | None, crashed: bool
    ) -> None:
        """Close one serially scanned shard: apply its injected faults
        to the modeled CPU, charge transport, file the report."""
        cpu = node.report.cpu
        if slowdown is not None:
            # Straggler: the shard's worker ran `slowdown` times slower
            # — same batches, scaled modeled CPU.
            cpu.fill *= slowdown
            cpu.convert *= slowdown
            cpu.process *= slowdown
            self.report.straggler_shards += 1
        if crashed:
            # Crash/respawn: the first attempt died after
            # `lost_fraction` of the scan; the respawn re-scanned the
            # whole shard (the batches already yielded), so the lost
            # partial work is charged on top.
            wasted = self.faults.lost_fraction * cpu.total
            scale = 1.0 + self.faults.lost_fraction
            cpu.fill *= scale
            cpu.convert *= scale
            cpu.process *= scale
            self.report.crashes += 1
            self.report.wasted_cpu_seconds += wasted
        self._account_transport(node.report)
        self.report.workers.append(node.report)

    def _shard_sources(
        self, table: HiveTable, info, shards: list[RowRangeShard]
    ) -> Iterator[tuple[RowRangeShard, list[bytes], int, int]]:
        """Per shard: the covering files' blobs and the local row window."""
        blobs = [table.fs.read(path) for path in info.files]
        row_counts = [
            DwrfReader(blob, table.schema).num_rows for blob in blobs
        ]
        for shard in shards:
            file_idxs, base = covering_files(
                row_counts, shard.row_start, shard.row_stop
            )
            yield (
                shard,
                [blobs[i] for i in file_idxs],
                shard.row_start - base,
                shard.row_stop - base,
            )

    def _iter_serial(
        self,
        schema,
        sources: Iterable[tuple[RowRangeShard, list[bytes], int, int]],
    ) -> Iterator[Batch]:
        """The serial schedule: shards scanned one after another in
        this process, each settled (faults, transport, report) once its
        last batch is out."""
        crashed, factors = (self.faults or FleetFaults()).resolved(
            self.report.num_shards
        )
        for position, (_, blobs, local_start, local_stop) in enumerate(
            sources
        ):
            node, batches = _scan_shard(
                blobs, schema, self.config, local_start, local_stop
            )
            yield from batches
            self._settle_shard(
                node, factors.get(position), position in crashed
            )

    def _iter_multiprocess(
        self,
        schema,
        sources: Iterable[tuple[RowRangeShard, list[bytes], int, int]],
    ) -> Iterator[Batch]:
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        source_iter = iter(sources)
        # (proc, queue) pairs in shard order, launched but not yet
        # drained.  One bounded queue per worker: each worker prefetches
        # at most _PREFETCH_DEPTH batches ahead of the merge loop (double
        # buffering), and the merge loop drains
        # workers in shard order so output order is deterministic.  The
        # window holds at most num_readers live workers — the fleet's
        # width — so a long multi-partition epoch launches later shards'
        # workers only as earlier shards finish.
        active: list[tuple] = []

        def launch_one() -> bool:
            """Start the next shard's worker; False when none remain."""
            try:
                shard, blobs, local_start, local_stop = next(source_iter)
            except StopIteration:
                return False
            name = f"reader-shard-{shard.index}"
            try:
                queue = ctx.Queue(maxsize=_PREFETCH_DEPTH)
                proc = ctx.Process(
                    target=_fleet_worker,
                    args=(
                        blobs,
                        schema,
                        self.config,
                        local_start,
                        local_stop,
                        queue,
                    ),
                    daemon=True,
                    name=name,
                )
                proc.start()
                # The worker holds the only write end from here on, so
                # its death — even mid-message — reaches the merge loop
                # as end-of-file instead of a read that never returns.
                queue._writer.close()
            except OSError as exc:
                # whoever names "process" asked for real workers: a
                # platform without them (no fork, no semaphores) fails
                # the scan rather than re-running it in-process
                raise RuntimeError(
                    f"cannot start reader worker {name}: {exc!r}; "
                    'executor="process" needs a platform that can '
                    "spawn processes"
                ) from exc
            active.append((proc, queue))
            return True

        finished: list = []
        try:
            for _ in range(self.num_readers):
                if not launch_one():
                    break
            while active:
                proc, queue = active[0]
                while True:
                    t0 = time.perf_counter()
                    item = self._get(queue, proc)
                    self.report.queue.get_wait += time.perf_counter() - t0
                    if isinstance(item, tuple) and item and item[0] == _DONE:
                        _, worker_report, put_wait = item
                        self._account_transport(worker_report)
                        self.report.workers.append(worker_report)
                        self.report.queue.put_wait += put_wait
                        break
                    if isinstance(item, tuple) and item and item[0] == _ERROR:
                        raise RuntimeError(
                            f"reader worker {proc.name} failed: {item[1]}"
                        )
                    yield item
                # Drained workers are joined only after the last batch is
                # out — a worker that lingers past its _DONE sentinel must
                # never delay the next shard's delivery.
                active.pop(0)
                finished.append(proc)
                launch_one()  # keep the fleet at its full width
            for proc in finished:
                proc.join(timeout=_WORKER_JOIN_TIMEOUT)
        finally:
            for proc in [p for p, _ in active] + finished:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)

    @staticmethod
    def _get(queue, proc):
        """Queue.get that notices a worker dying without a sentinel:
        end-of-file on its pipe (at once, even mid-message), or — for a
        worker that died holding nothing in flight — an empty queue and
        a dead process at the next one-second poll."""
        while True:
            try:
                return queue.get(timeout=1.0)
            except queue_lib.Empty:
                if proc.is_alive() or not queue.empty():
                    continue
            except (EOFError, OSError):
                proc.join(timeout=5.0)
            raise RuntimeError(
                f"reader worker {proc.name} exited "
                f"(exitcode={proc.exitcode}) without finishing"
            ) from None
