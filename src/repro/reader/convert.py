"""Feature Conversion: filled columns -> KJT / IKJT tensors (O3, §4.2).

The convert step copies feature data from a filled block of rows into
structured tensors.  Features listed in ``dedup_sparse_features`` are
deduplicated into (grouped) IKJTs by hashing row values during
conversion; every other configured feature goes into the one plain
KJT.  Those are the only two tensor forms a batch carries.  Work
accounting:

* every value of a dedup-group feature is *hashed* (the O3 overhead
  measured at +21/37/11% convert time in Fig 10);
* only unique values are *copied* for dedup groups; all values are
  copied for plain features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ikjt import InverseKeyedJaggedTensor
from ..core.jagged import JaggedTensor
from ..core.kjt import KeyedJaggedTensor
from ..storage.rowblock import RowBlock, require_block
from .batch import Batch
from .config import DataLoaderConfig

__all__ = ["ConvertStats", "convert_rows"]


@dataclass
class ConvertStats:
    """Work units the cost model turns into convert-CPU seconds."""

    values_copied: int = 0
    values_hashed: int = 0


def convert_rows(
    rows: RowBlock, config: DataLoaderConfig
) -> tuple[Batch, ConvertStats]:
    """Convert one filled batch of rows into tensors per the job config.

    ``rows`` is the fill step's :class:`~repro.storage.rowblock.RowBlock`.
    Every tensor is built over the block's columns — no per-row work,
    and none per dedup group — and none aliases the block, so batches
    cut from one stripe never alias each other; the IKJT tensors of one
    batch are slices of buffers that batch alone owns.

    Raises:
        TypeError: if ``rows`` is not a :class:`RowBlock`.
        ValueError: if the block has no rows.
    """
    require_block(rows, "convert_rows")
    if not rows:
        raise ValueError("cannot convert an empty batch")
    num_rows = len(rows)
    stats = ConvertStats()

    absent = (np.zeros(num_rows + 1, dtype=np.int64), np.empty(0, dtype=np.int64))

    def keyed(keys, own: bool = False) -> KeyedJaggedTensor:
        """A KJT over the block's columns for ``keys`` — views, or one
        contiguous copy per feature when the result must ``own`` its
        memory.  A feature the block lacks is empty in every row."""
        tensors = {}
        for key in keys:
            offsets, values = rows.sparse.get(key, absent)
            if own:
                offsets, values = offsets.copy(), values.copy()
            tensors[key] = JaggedTensor(values, offsets)
        return KeyedJaggedTensor(tensors)

    dense = np.zeros((num_rows, len(config.dense_features)), dtype=np.float32)
    for j, name in enumerate(config.dense_features):
        if name in rows.dense:
            dense[:, j] = rows.dense[name]
    labels = rows.label.astype(np.float32)

    kjt = None
    if config.sparse_features:
        kjt = keyed(config.sparse_features, own=True)
        stats.values_copied += kjt.total_values

    ikjts: list[InverseKeyedJaggedTensor] = []
    if config.dedup_sparse_features:
        # Dedup every group's KJT view via hashing in one pass; only the
        # unique rows are gathered (copied) out of the block.
        grouped_kjt = keyed(config.dedup_feature_names)
        ikjts = InverseKeyedJaggedTensor.from_groups(
            grouped_kjt, config.dedup_sparse_features
        )
        stats.values_hashed += grouped_kjt.total_values
        stats.values_copied += sum(ikjt.total_values for ikjt in ikjts)

    return Batch(dense=dense, labels=labels, kjt=kjt, ikjts=ikjts), stats
