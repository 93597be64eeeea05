"""Deterministic micro-partition landing on the cost-model clock.

The :class:`StreamLander` is the ingestion half of continuous training:
it re-stamps a job's synthetic trace onto a modeled event-time axis,
cuts it into ``DataSpec.num_partitions`` micro-partitions, and — every
time the driver pumps it with the tier's current clock — pushes each
due tick through the *same* transport and landing stages a static run
uses (scribe log → seal → drain → ETL join → Hive landing), just one
interval at a time.

Nothing here depends on wall-clock or scheduling: micro-partition ``i``
becomes scannable at exactly ``(i + 1) * interval_seconds +
land_latency_seconds`` modeled seconds, and its row content is a pure
function of the spec's seed, so pumping the lander from any driver — a
live loop, a crash-resumed session, or a land-everything-first
baseline — lands bitwise-identical partitions in the same order.

This module must stay import-clean of ``repro.pipeline`` (the session
engine imports *us*); it builds only on datagen, scribe, ETL, and
storage.
"""

from __future__ import annotations

from dataclasses import replace

from ..datagen.generator import TraceConfig, TraceGenerator
from ..datagen.session import Sample
from ..etl.pipeline import ETLConfig, ETLJob
from ..scribe.bus import ScribeCluster
from ..scribe.message import split_sample
from ..scribe.sharding import ShardKeyPolicy
from ..storage.hive import HiveTable, PartitionInfo
from ..storage.tectonic import TectonicFS

__all__ = ["StreamLander", "partition_slices", "plan_stream_windows"]


def partition_slices(
    total_rows: int, num_partitions: int
) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` row slices per partition.

    The same split the static engine uses to cut an ETL output into
    time partitions, so a streamed table's partition boundaries match a
    land-everything-first table's exactly.
    """
    base, extra = divmod(total_rows, num_partitions)
    slices: list[tuple[int, int]] = []
    start = 0
    for i in range(num_partitions):
        size = base + (1 if i < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices


def plan_stream_windows(
    num_partitions: int,
    retain_partitions: int | None,
    train_epochs: int,
) -> list[list[int]]:
    """Which micro-partition indices each live epoch scans.

    Epoch ``e`` scans the window *ending* at micro-partition
    ``min(e, num_partitions - 1)`` — the newest data that can possibly
    be landed when the epoch becomes runnable — reaching back at most
    ``retain_partitions`` ticks (unbounded growth when ``None``).
    Epochs past the end of the stream re-scan the final window.

    This is the streaming counterpart of
    :func:`repro.pipeline.session.plan_retention_windows`: that plan
    opens on a full window of pre-landed history, while a live job has
    no history — its first epoch trains on the very first tick alone.

    Args:
        num_partitions: total micro-partitions in the stream.
        retain_partitions: maximum live partitions at any moment
            (``None`` = retain everything).
        train_epochs: epochs to plan.

    Returns:
        One list of micro-partition indices per epoch.

    Raises:
        ValueError: if any count is not positive.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if retain_partitions is not None and retain_partitions <= 0:
        raise ValueError("retain_partitions must be positive")
    if train_epochs <= 0:
        raise ValueError("train_epochs must be positive")
    windows: list[list[int]] = []
    for e in range(train_epochs):
        hi = min(e, num_partitions - 1)
        lo = 0
        if retain_partitions is not None:
            lo = max(0, hi - retain_partitions + 1)
        windows.append(list(range(lo, hi + 1)))
    return windows


class StreamLander:
    """Land one job's trace as micro-partitions on the modeled clock.

    Built from a :class:`~repro.pipeline.spec.JobSpec` carrying a
    :class:`~repro.pipeline.spec.StreamSpec`.  The full trace is
    generated up front (it is the *model* of the upstream event
    stream), re-stamped onto the stream's event-time axis — sample
    ``j`` of ``n`` in micro-partition ``i`` happens at
    ``i * interval + (j + 1) / n * interval`` — and held back: rows
    only reach the scribe cluster, the ETL join, and the table when
    :meth:`pump` observes a clock past their tick's landing time.

    Attributes:
        table: the job's live :class:`~repro.storage.hive.HiveTable`
            (empty until the first pump).
        samples: the re-stamped trace, in event-time order (the row
            count ground truth for admission validation).
        scribe: the lander's transport cluster; its ``stats`` accrue
            tick by tick.
        partitions: every landed
            :class:`~repro.storage.hive.PartitionInfo`, in land order.
        ingest_bytes: scribe bytes the per-tick ETL joins consumed.
    """

    def __init__(self, spec) -> None:
        """Generate and re-stamp the trace; land nothing yet.

        Args:
            spec: the job's composed :class:`JobSpec`; ``spec.stream``
                must be set.

        Raises:
            ValueError: if the spec has no ``StreamSpec``.
        """
        if spec.stream is None:
            raise ValueError(
                "StreamLander needs a JobSpec with stream=StreamSpec(...)"
            )
        self.spec = spec
        self.stream = spec.stream
        d = spec.data
        w = d.workload
        raw = TraceGenerator(
            w.schema,
            TraceConfig(
                seed=d.seed,
                mean_samples_per_session=d.mean_samples_per_session,
            ),
        ).generate_partition(d.num_sessions)
        self.slices = partition_slices(len(raw), d.num_partitions)
        interval = self.stream.interval_seconds
        self.samples: list[Sample] = []
        for i, (start, stop) in enumerate(self.slices):
            n = stop - start
            for j, s in enumerate(raw[start:stop]):
                self.samples.append(
                    replace(
                        s,
                        timestamp=i * interval + (j + 1) / n * interval,
                    )
                )
        policy = (
            ShardKeyPolicy.SESSION_ID
            if d.toggles.o1_shard_by_session
            else ShardKeyPolicy.RANDOM
        )
        self.scribe = ScribeCluster(
            num_shards=d.num_scribe_shards, policy=policy
        )
        self._etl = ETLJob(ETLConfig(cluster=d.toggles.o2_cluster_table))
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

    @property
    def num_partitions(self) -> int:
        """Micro-partitions the stream will produce in total."""
        return len(self.slices)

    @property
    def landed_count(self) -> int:
        """Micro-partitions landed so far (they land strictly in order)."""
        return self._landed

    @property
    def exhausted(self) -> bool:
        """Whether every micro-partition has landed."""
        return self._landed >= len(self.slices)

    def partition_rows(self) -> dict[str, int]:
        """Declared rows per micro-partition (the admission stream)."""
        return {
            f"p{i}": stop - start
            for i, (start, stop) in enumerate(self.slices)
        }

    def avail(self, index: int) -> float:
        """Modeled clock at which micro-partition ``index`` is scannable.

        Tick ``index`` seals at ``(index + 1) * interval_seconds`` and
        pays the scribe→ETL→storage latency on top.

        Raises:
            IndexError: if ``index`` is outside the stream.
        """
        if not 0 <= index < len(self.slices):
            raise IndexError(
                f"micro-partition {index} outside stream of "
                f"{len(self.slices)}"
            )
        return (
            (index + 1) * self.stream.interval_seconds
            + self.stream.land_latency_seconds
        )

    def next_event(self, clock: float) -> float | None:
        """The next landing time strictly after ``clock``.

        ``None`` once the stream is exhausted.  A driver with no
        runnable work advances the tier clock here and pumps again.
        """
        if self.exhausted:
            return None
        nxt = self.avail(self._landed)
        return nxt if nxt > clock else clock

    def pump(self, clock: float) -> list[str]:
        """Land every micro-partition whose landing time has passed.

        Each due tick replays the static pipeline's stages on just its
        own rows: log to the scribe cluster, :meth:`~repro.scribe.bus.
        ScribeCluster.seal` the tick boundary, drain the sealed blocks,
        join them (:meth:`~repro.etl.pipeline.ETLJob.run_from_payloads`,
        the same ingest a static run's ``run_from_scribe`` uses), and
        land.  Micro-partitions land at the stream's small
        ``rows_per_file``; once tick ``i`` lands, tick ``i - 1`` is
        compacted back to the table's full file size (when
        ``StreamSpec.compact`` is set and the partition is still live).

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

    def land_all(self) -> list[str]:
        """Land the whole stream now — the land-everything-first
        baseline a live run's losses must match bit for bit."""
        if self.exhausted:
            return []
        return self.pump(self.avail(len(self.slices) - 1))

    def _land_next(self) -> str:
        """Push the next tick through scribe → ETL → landing."""
        i = self._landed
        start, stop = self.slices[i]
        for s in self.samples[start:stop]:
            feat, ev = split_sample(s)
            self.scribe.log_features(feat)
            self.scribe.log_event(ev)
        self.scribe.seal()
        payloads = self.scribe.drain_all()
        result = self._etl.run_from_payloads(
            payloads, sum(len(p) for p in payloads)
        )
        self.ingest_bytes += result.ingest_bytes
        name = f"p{i}"
        base_rows_per_file = self.table.rows_per_file
        self.table.rows_per_file = self.stream.rows_per_file
        try:
            info = self.table.land_partition(name, result.samples)
        finally:
            self.table.rows_per_file = base_rows_per_file
        self.partitions.append(info)
        self._landed = i + 1
        if self.stream.compact and i > 0:
            prev = f"p{i - 1}"
            if prev in self.table.partitions:
                self.table.compact_partition(prev)
        return name
