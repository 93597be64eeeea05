"""Row-range sharding of a landed partition across a reader fleet.

A fleet splits one partition's global row order into contiguous
:class:`RowRangeShard` windows, one per worker.  Interior shard
boundaries are aligned to the job's batch size so that concatenating the
workers' batch streams in shard order reproduces the serial reader's
output *bit-identically* — every figure/table reproduction that consumed
serial batches stays valid under any fleet width.  The trailing
``num_rows % batch_size`` rows ride along in the last shard, where the
worker's fill drops exactly the rows the serial reader would have
dropped.

:func:`covering_files` then maps a shard window to the subset of a
partition's files it actually touches, so a multiprocessing worker ships
only those files' bytes.

:func:`plan_epoch` extends the plan across *multiple* partitions: one
epoch visits every partition in the order given, sharding each one
batch-aligned exactly as :func:`plan_shards` would, with globally
increasing shard indices and one shared ``max_batches`` budget spent in
partition order.  Batches never span a partition boundary (each
partition's sub-batch tail is dropped where the serial reader would drop
it), so draining an epoch plan in shard order is bit-identical to
scanning the partitions serially one after another.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["RowRangeShard", "plan_shards", "plan_epoch", "covering_files"]


@dataclass(frozen=True)
class RowRangeShard:
    """One worker's contiguous window of a partition's global row order."""

    index: int
    row_start: int  # global row index, inclusive
    row_stop: int  # global row index, exclusive

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("shard index must be non-negative")
        if self.row_start < 0 or self.row_stop < self.row_start:
            raise ValueError(
                f"invalid row range [{self.row_start}, {self.row_stop})"
            )

    @property
    def num_rows(self) -> int:
        """Rows in this shard's window."""
        return self.row_stop - self.row_start


def plan_shards(
    num_rows: int,
    batch_size: int,
    num_shards: int,
    max_batches: int | None = None,
) -> list[RowRangeShard]:
    """Partition ``num_rows`` into at most ``num_shards`` batch-aligned,
    contiguous, disjoint shards covering every row.

    Full batches are spread as evenly as possible (the first
    ``num_batches % num_shards`` shards take one extra).  Shards that
    would receive zero batches are not emitted — with more workers than
    batches the fleet simply runs narrower.  ``max_batches`` caps the
    total batches planned (the pipeline's ``train_batches`` knob), in
    which case rows past the cap are intentionally left uncovered.
    """
    if num_rows < 0:
        raise ValueError("num_rows must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if max_batches is not None and max_batches < 0:
        raise ValueError("max_batches must be non-negative")

    num_batches = num_rows // batch_size
    capped = max_batches is not None and max_batches < num_batches
    if capped:
        num_batches = max_batches
    if num_batches == 0:
        # Not even one full batch: a single shard holds every row and its
        # fill yields nothing, exactly like the serial reader.
        return [] if capped else [RowRangeShard(0, 0, num_rows)]

    width = min(num_shards, num_batches)
    base, extra = divmod(num_batches, width)
    shards: list[RowRangeShard] = []
    row = 0
    for i in range(width):
        batches_here = base + (1 if i < extra else 0)
        stop = row + batches_here * batch_size
        if i == width - 1 and not capped:
            stop = num_rows  # the tail rides (and is dropped) here
        shards.append(RowRangeShard(i, row, stop))
        row = stop
    return shards


def plan_epoch(
    partition_rows: Sequence[tuple[str, int]],
    batch_size: int,
    num_shards: int,
    max_batches: int | None = None,
) -> list[tuple[str, list[RowRangeShard]]]:
    """Shard one epoch over several partitions, in the order given.

    Returns ``[(partition, shards), ...]`` where each partition's shards
    come from :func:`plan_shards` re-indexed so shard indices increase
    globally across the epoch — the order a fleet's merge loop drains.
    ``max_batches`` is a whole-epoch budget consumed in partition order:
    once it is exhausted, later partitions contribute no shards.

    A partition that cannot fill a single batch contributes no shards
    either: its rows would all be dropped by the fill anyway, so
    the batch stream is unchanged and no worker is spawned to scan it.
    """
    remaining = max_batches
    plan: list[tuple[str, list[RowRangeShard]]] = []
    next_index = 0
    for name, num_rows in partition_rows:
        if (remaining is not None and remaining <= 0) or (
            num_rows < batch_size
        ):
            plan.append((name, []))
            continue
        shards = plan_shards(
            num_rows, batch_size, num_shards, max_batches=remaining
        )
        if remaining is not None:
            remaining -= sum(s.num_rows // batch_size for s in shards)
        reindexed = [
            RowRangeShard(next_index + i, s.row_start, s.row_stop)
            for i, s in enumerate(shards)
        ]
        next_index += len(reindexed)
        plan.append((name, reindexed))
    return plan


def covering_files(
    file_row_counts: list[int], row_start: int, row_stop: int
) -> tuple[list[int], int]:
    """Which files a global row window touches.

    Returns ``(file_indices, base_row)`` where ``base_row`` is the global
    row index of the first returned file's first row — the offset that
    converts the shard's global window into the worker's local one.  An
    empty window returns no files.
    """
    if row_start < 0 or row_stop < row_start:
        raise ValueError(f"invalid row range [{row_start}, {row_stop})")
    if row_start == row_stop:
        return [], 0
    indices: list[int] = []
    base_row = 0
    pos = 0
    for idx, rows in enumerate(file_row_counts):
        if rows < 0:
            raise ValueError("file row counts must be non-negative")
        file_start, file_stop = pos, pos + rows
        pos = file_stop
        if file_stop <= row_start or file_start >= row_stop:
            continue
        if not indices:
            base_row = file_start
        indices.append(idx)
    return indices, base_row
