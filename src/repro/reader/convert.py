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
    and none per feature or dedup group: the plain KJT is cut out of the
    block's run in one pass (:meth:`RowBlock.keyed`), and every dedup
    group is keyed and gathered straight out of one such cut of theirs
    into the batch's one IKJT buffer (:attr:`Batch.unique`), each group's
    IKJT a view of its row range.  None aliases the block, so batches cut
    from one run never alias each other; the IKJT tensors of one batch
    are views of a buffer that batch alone owns.

    Raises:
        TypeError: if ``rows`` is not a :class:`RowBlock`.
        ValueError: if the block has no rows, or if its run's columns
            do not pack (:func:`~repro.core.kjt.pack`).
    """
    require_block(rows, "convert_rows")
    if not rows:
        raise ValueError("cannot convert an empty batch")
    num_rows = len(rows)
    stats = ConvertStats()

    dense = np.zeros((num_rows, len(config.dense_features)), dtype=np.float32)
    for j, name in enumerate(config.dense_features):
        if name in rows.dense:
            dense[:, j] = rows.dense[name]
    labels = rows.label.astype(np.float32)

    kjt = None
    if config.sparse_features:
        kjt = rows.keyed(config.sparse_features)
        stats.values_copied += kjt.total_values

    unique, layout = None, []
    if config.dedup_sparse_features:
        # Dedup every group via hashing in one pass; only the unique rows
        # are gathered (copied) into the IKJTs' buffer.
        grouped_kjt = rows.keyed(config.dedup_feature_names)
        unique, layout = InverseKeyedJaggedTensor.gather_groups(
            grouped_kjt, config.dedup_sparse_features
        )
        stats.values_hashed += grouped_kjt.total_values
        stats.values_copied += unique.total_values

    return Batch(dense, labels, kjt, unique=unique, layout=layout), stats
