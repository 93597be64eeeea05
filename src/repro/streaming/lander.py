"""The one landing path: a job's trace → scribe → ETL → Hive partitions.

Every job — static, rolling-window, or streamed — owns one
:class:`Lander`, the only code that turns a
:class:`~repro.pipeline.spec.JobSpec` into landed partitions
``p0..p{N-1}``.  What differs between jobs is the *schedule*, read off
the spec:

* **No stream** — the table is history.  The whole trace crosses
  scribe and the ETL join once, when the lander is built, and the
  joined rows are cut into ``DataSpec.num_partitions`` contiguous time
  partitions, all due at clock ``0.0`` (under a
  :class:`~repro.pipeline.spec.RetentionSpec` they land on demand
  instead, window by window, so a partition no epoch reaches never
  lands).
* **Streamed** — the trace is re-stamped onto a modeled event-time
  axis and cut into micro-partitions *first*; each one crosses scribe
  (sealed at its tick boundary), the ETL join and the landing stage on
  its own, and is due at :meth:`Lander.avail` on the tier's cost-model
  clock.

Nothing here depends on wall-clock or scheduling: a partition's row
content is a pure function of the spec's seed, so landing from any
driver — the drive loop's :meth:`Lander.pump`, a retention hook's
:meth:`Lander.land_through`, or a land-everything-first
:meth:`Lander.land_all` — lands bitwise-identical partitions in the
same order.

This module must stay import-clean of ``repro.pipeline`` (the session
engine imports *us*); it builds only on datagen, scribe, ETL, and
storage.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..datagen.generator import TraceConfig, TraceGenerator
from ..etl.pipeline import ETLConfig, ETLJob
from ..scribe.bus import ScribeCluster
from ..scribe.message import split_sample
from ..scribe.sharding import ShardKeyPolicy
from ..storage.hive import HiveTable, PartitionInfo
from ..storage.rowblock import RowBlock
from ..storage.tectonic import TectonicFS

__all__ = ["Lander", "partition_slices", "plan_windows"]


def partition_slices(
    total_rows: int, num_partitions: int
) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` row slices per partition.

    One split for every schedule, so a streamed table's partition
    boundaries match a land-everything-first table's exactly.
    """
    base, extra = divmod(total_rows, num_partitions)
    slices: list[tuple[int, int]] = []
    start = 0
    for i in range(num_partitions):
        size = base + (1 if i < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices


def plan_windows(
    num_partitions: int, retain: int | None, epochs: int, live: bool
) -> list[list[int]]:
    """Which partition indices each epoch scans.

    Epoch ``e`` scans the window *ending* at partition
    ``min(first + e, num_partitions - 1)`` and reaching back at most
    ``retain`` partitions (to ``p0`` when ``None``): between epochs the
    window slides one partition forward — the next partition lands,
    the oldest ages out — until the stream of ``num_partitions`` time
    partitions is exhausted, after which it stays put.

    ``first`` is where the schedules differ.  A job over a pre-landed
    table opens on a full window of history — its first
    ``min(retain, num_partitions)`` partitions, all of them without
    retention.  A live job has no history: its first epoch trains on
    the very first tick alone, the newest data that can possibly be
    landed when the epoch becomes runnable.

    Args:
        num_partitions: total time partitions in the stream.
        retain: maximum live partitions at any moment (``None`` =
            retain everything).
        epochs: epochs to plan.
        live: whether partitions land while the job trains (a
            streamed job) rather than before it.

    Returns:
        One list of partition indices per epoch, each of length at
        most ``retain``.

    Raises:
        ValueError: if any count is not positive.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if retain is not None and retain <= 0:
        raise ValueError("retain must be positive")
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    first = 0 if live else min(retain or num_partitions, num_partitions) - 1
    windows: list[list[int]] = []
    for e in range(epochs):
        hi = min(first + e, num_partitions - 1)
        lo = 0 if retain is None else max(0, hi - retain + 1)
        windows.append(list(range(lo, hi + 1)))
    return windows


class Lander:
    """Land one job's trace as partitions ``p0..p{N-1}``, in order.

    Built from a :class:`~repro.pipeline.spec.JobSpec`.  The full trace
    is generated up front (it is the *model* of the upstream event
    stream).  Without a :class:`~repro.pipeline.spec.StreamSpec` it is
    transported and joined at once and only the cut into partitions is
    left to land.  With one it is re-stamped onto the stream's
    event-time axis — sample ``j`` of ``n`` in micro-partition ``i``
    happens at ``i * interval + (j + 1) / n * interval`` — and held
    back: rows only reach the scribe cluster, the ETL join, and the
    table when their tick lands.

    Rows reach storage through :meth:`pump` (what the clock made due),
    :meth:`land_through` (on demand) and :meth:`land_all`, nothing
    else.

    Attributes:
        table: the job's :class:`~repro.storage.hive.HiveTable`
            (empty until the first landing).
        samples: the rows partitions are cut from, as one
            :class:`~repro.storage.rowblock.RowBlock` — the ETL output
            of a static job (no row object exists between the scribe
            drain and the landed files), the re-stamped trace in
            event-time order of a streamed one (still to be logged).
            Its length is the row count ground truth for admission
            validation either way.
        scribe: the lander's transport cluster; a streamed job's
            ``stats`` accrue tick by tick.
        partitions: every landed
            :class:`~repro.storage.hive.PartitionInfo`, in land order
            (dropped or not; a compacted partition's entry is the
            compacted one).
        ingest_bytes: compressed scribe bytes the ETL joins pulled.
    """

    def __init__(self, spec) -> None:
        """Generate the trace; transport it now or re-stamp it for
        later, by the spec's schedule.  Land nothing yet.

        Args:
            spec: the job's composed :class:`JobSpec`.
        """
        self.spec = spec
        self.stream = spec.stream
        d = spec.data
        w = d.workload
        trace = TraceGenerator(
            w.schema,
            TraceConfig(
                seed=d.seed,
                mean_samples_per_session=d.mean_samples_per_session,
            ),
        ).generate_partition(d.num_sessions)
        policy = (
            ShardKeyPolicy.SESSION_ID
            if d.toggles.o1_shard_by_session
            else ShardKeyPolicy.RANDOM
        )
        self.scribe = ScribeCluster(
            num_shards=d.num_scribe_shards, policy=policy
        )
        self._etl = ETLJob(ETLConfig(cluster=d.toggles.o2_cluster_table))
        # Stripes are small relative to the partition so that a stripe's time
        # window matches the paper's regime: in the interleaved baseline a
        # stripe holds ~1 sample/session (Fig 3), and only clustering (O2)
        # makes a session's duplicates stripe-local.
        self.table = HiveTable(
            f"{w.name.lower()}_table",
            w.schema,
            TectonicFS(),
            rows_per_file=8192,
            stripe_rows=64,
        )
        self.partitions: list[PartitionInfo] = []
        self.ingest_bytes = 0
        self._landed = 0
        if self.stream is None:
            self.samples = self._transport(trace)
            self.slices = partition_slices(
                len(self.samples), d.num_partitions
            )
        else:
            self.slices = partition_slices(len(trace), d.num_partitions)
            # the generator's own feature order: scribe messages list
            # features in the order the rows carry them
            self.samples = RowBlock.from_samples(trace)
            start, stop = np.array(self.slices, dtype=np.int64).T
            n = stop - start
            tick = np.repeat(np.arange(n.size), n)
            j = np.arange(tick.size) - start[tick]
            interval = self.stream.interval_seconds
            self.samples.timestamp = (
                tick * interval + (j + 1) / n[tick] * interval
            )

    @property
    def num_partitions(self) -> int:
        """Partitions the job's table will hold in total."""
        return len(self.slices)

    @property
    def landed_count(self) -> int:
        """Partitions landed so far (they land strictly in order)."""
        return self._landed

    @property
    def exhausted(self) -> bool:
        """Whether every partition has landed."""
        return self._landed >= len(self.slices)

    def partition_rows(self) -> dict[str, int]:
        """Declared rows per partition (the admission stream)."""
        return {
            f"p{i}": stop - start
            for i, (start, stop) in enumerate(self.slices)
        }

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self.slices):
            raise IndexError(
                f"partition {index} outside stream of {len(self.slices)}"
            )

    def avail(self, index: int) -> float:
        """Modeled clock at which partition ``index`` is due to land.

        A streamed tick seals at ``(index + 1) * interval_seconds``
        and pays the scribe→ETL→storage latency on top.  A static
        table is whole at ``0.0``.  A rolling window over a static
        table is metered out by the job's epochs, not by the clock:
        its partitions are never due (``inf``) and land only through
        :meth:`land_through`.

        Raises:
            IndexError: if ``index`` is outside the stream.
        """
        self._check(index)
        if self.stream is None:
            return 0.0 if self.spec.retention is None else math.inf
        return (
            (index + 1) * self.stream.interval_seconds
            + self.stream.land_latency_seconds
        )

    def next_event(self, clock: float) -> float | None:
        """The next landing time, clamped to ``clock``.

        ``None`` once every partition has landed, or when the rest
        land on demand only.  A driver with no runnable work advances
        the tier clock here and pumps again.
        """
        if self.exhausted:
            return None
        nxt = self.avail(self._landed)
        if nxt == math.inf:
            return None
        return nxt if nxt > clock else clock

    def pump(self, clock: float) -> list[str]:
        """Land every partition whose landing time has passed.

        Args:
            clock: the tier's current modeled clock.

        Returns:
            Names of the partitions landed by this pump, in land order.
        """
        landed: list[str] = []
        while (
            not self.exhausted and self.avail(self._landed) <= clock
        ):
            landed.append(self._land_next())
        return landed

    def land_through(self, index: int) -> list[str]:
        """Land every partition up to and including ``index`` now,
        whatever the clock says (a no-op for those already landed).

        Returns:
            Names of the partitions this call landed, in land order.

        Raises:
            IndexError: if ``index`` is outside the stream.
        """
        self._check(index)
        return [self._land_next() for _ in range(self._landed, index + 1)]

    def land_all(self) -> list[str]:
        """Land everything now — a static job's whole table, or the
        land-everything-first baseline a live run's losses must match
        bit for bit."""
        return self.land_through(len(self.slices) - 1)

    def _transport(self, rows: Iterable) -> RowBlock:
        """One tick's rows through scribe and the ETL join: log each
        generated row (the trace's own objects, or a streamed block's
        rows materialized one at a time) to the cluster,
        :meth:`~repro.scribe.bus.ScribeCluster.flush` the tick
        boundary, drain the sealed blocks, and join them
        (:meth:`~repro.etl.pipeline.ETLJob.run_from_payloads`).  The
        tick's ingest is the compressed bytes it added to the
        cluster's ETL egress — what O1 shrinks."""
        before = self.scribe.etl_ingest_bytes
        for s in rows:
            feat, ev = split_sample(s)
            self.scribe.log_features(feat)
            self.scribe.log_event(ev)
        self.scribe.flush()
        result = self._etl.run_from_payloads(
            self.scribe.drain_all(), self.scribe.etl_ingest_bytes - before
        )
        self.ingest_bytes += result.ingest_bytes
        return result.samples

    def _land_next(self) -> str:
        """Land the next partition.

        A static partition is a slice of rows joined long ago.  A
        micro-partition replays :meth:`_transport` on just its own
        rows and lands at the stream's small ``rows_per_file``; once
        tick ``i`` lands, tick ``i - 1`` is compacted back to the
        table's full file size (when the partition is still live).
        """
        i = self._landed
        name = f"p{i}"
        start, stop = self.slices[i]
        rows = self.samples[start:stop]
        stream = self.stream
        if stream is None:
            info = self.table.land_partition(name, rows)
        else:
            info = self.table.land_partition(
                name, self._transport(rows), stream.rows_per_file
            )
        self.partitions.append(info)
        self._landed = i + 1
        if stream is not None and i > 0:
            prev = f"p{i - 1}"
            if prev in self.table.partitions:
                self.table.compact_partition(prev)
                # the micro-files just recorded for prev are gone
                self.partitions[i - 1] = self.table.partitions[prev]
        return name
