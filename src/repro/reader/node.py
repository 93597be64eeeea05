"""ReaderNode: the Fill -> Convert -> Process pipeline (Fig 5).

One stateless reader processes a slice of the dataset into preprocessed
batches for trainers, accounting modeled CPU time per phase (Fig 10) and
egress bytes to trainers (Table 3's Send Bytes).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from ..metrics.breakdown import ReaderCpuBreakdown
from ..metrics.ledger import ByteLedger, Folded
from ..storage.dwrf import DwrfReader
from .batch import Batch
from .config import DataLoaderConfig
from .convert import convert_rows
from .costmodel import ReaderCostModel
from .fill import fill_batches
from .preprocess import apply_transforms

__all__ = ["ReaderNode", "ReaderReport"]


@dataclass
class ReaderReport(Folded):
    """Everything a reader run measured."""

    cpu: ReaderCpuBreakdown = field(default_factory=ReaderCpuBreakdown)
    samples: int = 0
    batches: int = 0
    #: read off Tectonic / sent to trainers (Table 3), plus transport
    bytes: ByteLedger = field(default_factory=ByteLedger)
    #: per-batch event time: the newest row timestamp each delivered
    #: batch carried (the freshness metric's "event" side; order is the
    #: shard/serial batch order, which percentiles don't care about)
    batch_event_times: list = field(default_factory=list)

    derived = ("samples_per_cpu_second",)

    @property
    def samples_per_cpu_second(self) -> float:
        """Reader throughput (Fig 7's reader metric)."""
        if self.cpu.total == 0:
            return 0.0
        return self.samples / self.cpu.total


class ReaderNode:
    """One reader node bound to a job config, costed by the reader cost
    model."""

    def __init__(self, config: DataLoaderConfig):
        self.config = config
        self.cost_model = ReaderCostModel()
        self.report = ReaderReport()

    def run(
        self,
        file_readers: list[DwrfReader],
        max_batches: int | None = None,
        row_start: int = 0,
        row_stop: int | None = None,
    ) -> Iterator[Batch]:
        """Stream preprocessed batches off the given file splits.

        ``row_start``/``row_stop`` scope the node to one row-range shard
        of the splits' global row order (the fleet path); the defaults
        scan everything (the serial path).
        """
        if max_batches is not None and max_batches <= 0:
            return
        cm = self.cost_model
        rep = self.report
        ledger = rep.bytes
        for rows, fill_stats in fill_batches(
            file_readers,
            self.config.batch_size,
            row_start=row_start,
            row_stop=row_stop,
        ):
            batch, conv_stats = convert_rows(rows, self.config)
            batch, proc_stats = apply_transforms(batch, self.config.transforms)

            rep.cpu.fill += cm.fill_seconds(
                fill_stats.compressed_bytes, fill_stats.values_decoded
            )
            rep.cpu.convert += cm.convert_seconds(
                conv_stats.values_copied, conv_stats.values_hashed
            )
            rep.cpu.process += cm.process_seconds(
                proc_stats.values_processed, proc_stats.rows_processed
            )
            ledger.read += fill_stats.compressed_bytes
            ledger.decoded += batch.wire_nbytes
            ledger.expanded += batch.expanded_nbytes
            rep.samples += batch.batch_size
            rep.batches += 1
            rep.batch_event_times.append(float(rows.timestamp.max()))
            yield batch
            if max_batches is not None and rep.batches >= max_batches:
                return

    def run_all(
        self,
        file_readers: list[DwrfReader],
        max_batches: int | None = None,
        row_start: int = 0,
        row_stop: int | None = None,
    ) -> list[Batch]:
        """Materialized :meth:`run` (tests and small experiments)."""
        return list(self.run(file_readers, max_batches, row_start, row_stop))
