"""RecD core: jagged tensor formats, deduplication, and kernels.

Public surface of the paper's primary contribution (§4.2, §5):

* :class:`~repro.core.jagged.JaggedTensor` — variable-length row batches.
* :class:`~repro.core.kjt.KeyedJaggedTensor` — baseline keyed format (KJT).
* :class:`~repro.core.ikjt.InverseKeyedJaggedTensor` — deduplicated IKJT,
  including grouped IKJTs with a shared ``inverse_lookup``.  KJTs and
  IKJTs are the only tensors a reader batch carries.
* :class:`~repro.core.partial.PartialJaggedTensor` — §7's shift-aware
  partial encoding of one feature, measured by the ``partial`` figure
  (no loader emits it).
* :func:`~repro.core.jagged_ops.jagged_index_select` — O6 kernel.
* :mod:`~repro.core.analytics` — the DedupeFactor analytical model.
"""

from .analytics import (
    DEFAULT_DEDUPE_THRESHOLD,
    FeatureDedupStats,
    dedupe_factor,
    dedupe_len,
    select_features_to_dedup,
)
from .characterize import measure_feature_stats
from .dedup import (
    dedup_grouped_rows,
    dedup_groups,
    dedup_rows,
    exact_duplicate_fraction,
    measured_dedupe_factor,
    partial_duplicate_fraction,
)
from .ikjt import InverseKeyedJaggedTensor
from .jagged import JaggedTensor, offsets_from_lengths
from .jagged_ops import (
    dense_index_select,
    expand_pooled,
    gather_ranges,
    jagged_index_select,
    segment_mean,
    segment_sum,
)
from .kjt import KeyedJaggedTensor
from .partial import PartialJaggedTensor

__all__ = [
    "JaggedTensor",
    "KeyedJaggedTensor",
    "InverseKeyedJaggedTensor",
    "PartialJaggedTensor",
    "offsets_from_lengths",
    "jagged_index_select",
    "dense_index_select",
    "gather_ranges",
    "segment_sum",
    "segment_mean",
    "expand_pooled",
    "dedup_rows",
    "dedup_grouped_rows",
    "dedup_groups",
    "exact_duplicate_fraction",
    "partial_duplicate_fraction",
    "measured_dedupe_factor",
    "dedupe_len",
    "dedupe_factor",
    "FeatureDedupStats",
    "select_features_to_dedup",
    "DEFAULT_DEDUPE_THRESHOLD",
    "measure_feature_stats",
]
