"""Sparse Data Distribution (SDD): routing features to their EMB shards.

Before lookups, an all-to-all coalesces each feature's values (across
every GPU's local batch) onto the GPU holding that feature's
model-parallel embedding shard (§2.2).  RecD's O5 sends only the IKJT's
``values``/``offsets`` slices — ``inverse_lookup`` stays local (§5) — so
SDD bytes shrink by DedupeFactor(f) per deduplicated feature.

There is one placement model: the trainer spreads a batch's SDD bytes
evenly over the cluster's GPUs (``input_bytes / num_gpus`` per
all-to-all); which GPU owns which table is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..reader.batch import Batch

__all__ = ["SDDVolume", "sdd_volume"]

_ID_BYTES = 8  # int64 sparse IDs on the wire
_OFFSET_BYTES = 8


@dataclass
class SDDVolume:
    """Bytes involved in one iteration's sparse distribution."""

    #: total feature bytes entering the forward all-to-all
    input_bytes: int = 0
    #: pooled-embedding bytes returned by the second all-to-all
    output_rows: int = 0

    def output_bytes(self, dim: int, dtype_bytes: int = 4) -> int:
        return self.output_rows * dim * dtype_bytes


def sdd_volume(batch: Batch, dedup_output: bool = True) -> SDDVolume:
    """Measure one batch's SDD traffic.

    Plain KJT features ship every (duplicate) value; IKJT features ship
    deduplicated values+offsets only.  The return all-to-all carries one
    pooled embedding per *pooled row*: B rows for KJT features, and — when
    deduplicated compute (O7) keeps outputs in IKJT form
    (``dedup_output``) — unique rows for IKJT features.
    """
    vol = SDDVolume()
    if batch.kjt is not None:
        for key in batch.kjt.keys:
            jt = batch.kjt[key]
            vol.input_bytes += (
                jt.total_values * _ID_BYTES + jt.offsets.size * _OFFSET_BYTES
            )
            vol.output_rows += jt.num_rows
    for ikjt in batch.ikjts:
        for key in ikjt.keys:
            jt = ikjt[key]
            vol.input_bytes += (
                jt.total_values * _ID_BYTES + jt.offsets.size * _OFFSET_BYTES
            )
            vol.output_rows += (
                jt.num_rows if dedup_output else ikjt.batch_size
            )
    return vol
