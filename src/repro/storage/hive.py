"""Hive-style partitioned tables over Tectonic (§2.1).

Training samples land in time-partitioned tables; each partition is a set
of DWRF files.  RecD's clustered tables (O2) contain *the same rows* as
the baseline table, reordered — the table layer only differs in what row
order the ETL job handed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datagen.schema import DatasetSchema
from .compression import Codec
from .dwrf import DwrfReader, DwrfWriter
from .encoding import IntEncoding
from .rowblock import RowBlock, require_block
from .tectonic import TectonicFS

__all__ = ["HiveTable", "PartitionInfo"]


@dataclass
class PartitionInfo:
    """Metadata for one landed partition."""

    name: str
    files: list[str] = field(default_factory=list)
    num_rows: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """Raw over compressed bytes (1.0 for an empty partition)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.raw_bytes / self.compressed_bytes


class HiveTable:
    """A partitioned training table stored as DWRF files in Tectonic."""

    def __init__(
        self,
        name: str,
        schema: DatasetSchema,
        fs: TectonicFS,
        rows_per_file: int = 8192,
        stripe_rows: int = 1024,
        codec: Codec = Codec.ZLIB,
        int_encoding: IntEncoding = IntEncoding.VARINT,
    ):
        self.name = name
        self.schema = schema
        self.fs = fs
        self.rows_per_file = rows_per_file
        self.stripe_rows = stripe_rows
        self.codec = codec
        self.int_encoding = int_encoding
        self.partitions: dict[str, PartitionInfo] = {}
        #: names of partitions aged out via :meth:`drop_partition`
        self.dropped: list[str] = []
        #: compressed bytes ever written, across drops and compactions
        self.bytes_ever_landed = 0
        #: number of small files merged away by :meth:`compact_partition`
        self.files_compacted = 0

    def land_partition(
        self,
        partition: str,
        samples: RowBlock,
        rows_per_file: int | None = None,
    ) -> PartitionInfo:
        """Write one partition's rows, in the block's order, as DWRF
        files of ``rows_per_file`` rows (default: the table's own size;
        a streaming lander passes its smaller micro-partition size).

        Raises:
            TypeError: if ``samples`` is not a :class:`RowBlock`.
            ValueError: if the partition has already landed.
        """
        require_block(samples, "HiveTable.land_partition")
        if partition in self.partitions:
            raise ValueError(f"partition {partition} already landed")
        if rows_per_file is None:
            rows_per_file = self.rows_per_file
        writer = DwrfWriter(
            self.schema, self.stripe_rows, self.codec, self.int_encoding
        )
        info = PartitionInfo(name=partition)
        for file_idx, start in enumerate(
            range(0, len(samples), rows_per_file)
        ):
            chunk = samples[start : start + rows_per_file]
            blob, stats = writer.write(chunk)
            path = f"{self.name}/{partition}/part-{file_idx:05d}.dwrf"
            self.fs.write(path, blob)
            info.files.append(path)
            info.num_rows += stats.num_rows
            info.raw_bytes += stats.raw_bytes
            info.compressed_bytes += stats.compressed_bytes
        self.partitions[partition] = info
        self.bytes_ever_landed += info.compressed_bytes
        return info

    def drop_partition(self, partition: str) -> int:
        """Retention: delete an aged-out partition's files (§2.1).

        Returns the freed byte count (the partition's compressed bytes,
        for retention-aware storage accounting); raises ``KeyError`` if
        the partition is not live.
        """
        info = self.partitions.pop(partition, None)
        if info is None:
            raise KeyError(
                f"partition {partition!r} is not live in table "
                f"{self.name!r} (never landed, or already dropped)"
            )
        self.dropped.append(partition)
        for path in info.files:
            self.fs.delete(path)
        return info.compressed_bytes

    def compact_partition(self, partition: str) -> int:
        """Merge a partition's small files into ``rows_per_file`` files.

        Streaming landers write micro-partitions as many small files;
        as the retention window slides past, rewriting them at the
        table's full file size keeps the file count bounded.  Row order
        is preserved exactly, so readers see an identical row stream
        (losses are untouched) — only the file layout and compressed
        size change.  Returns the number of files merged away (0 when
        the partition is already compact); raises ``KeyError`` if the
        partition is not live.
        """
        if partition not in self.partitions:
            raise KeyError(
                f"partition {partition!r} is not live in table "
                f"{self.name!r} (never landed, or dropped by retention); "
                f"live: {self.live_partitions}"
            )
        old = self.partitions[partition]
        want = max(1, -(-old.num_rows // self.rows_per_file))
        if len(old.files) <= want:
            return 0
        rows = self.read_partition(partition)
        order = list(self.partitions)
        for path in old.files:
            self.fs.delete(path)
        del self.partitions[partition]
        new = self.land_partition(partition, rows)
        # land_partition appends at the end of the dict; restore the
        # original landing order so live_partitions stays chronological.
        self.partitions = {name: self.partitions[name] for name in order}
        merged = len(old.files) - len(new.files)
        self.files_compacted += merged
        return merged

    @property
    def live_partitions(self) -> list[str]:
        """Names of the currently live partitions, in landing order."""
        return list(self.partitions)

    def open_readers(self, partition: str) -> list[DwrfReader]:
        """One reader per file of the partition (how a reader tier scans)."""
        if partition not in self.partitions:
            raise KeyError(
                f"partition {partition!r} is not live in table "
                f"{self.name!r} (never landed, or dropped by retention); "
                f"live: {self.live_partitions}"
            )
        info = self.partitions[partition]
        return [
            DwrfReader(self.fs.read(path), self.schema) for path in info.files
        ]

    def read_partition(self, partition: str) -> RowBlock:
        """Every row of the partition, in landed order, as one block
        (the serial scan): each file's :meth:`DwrfReader.read_all`,
        concatenated only when there are several.  A partition of no
        files reads as a zero-row block carrying every schema column."""
        blocks = [reader.read_all() for reader in self.open_readers(partition)]
        if blocks:
            return RowBlock.concat(blocks)
        return RowBlock.from_samples(
            (), self.schema.sparse_names, self.schema.dense_names
        )
