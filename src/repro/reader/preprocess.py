"""Preprocessing transforms over KJTs and IKJTs (O4, §4.3).

Users provide (TorchScript, in production) modules that transform sparse
values — hashing, clamping, normalization.  RecD runs each module
*transparently* over IKJTs (O4's wrapper): the module is handed the
batch's one buffer of deduplicated rows, every IKJT group's back to
back, so its body is unchanged while processing ``DedupeFactor(f)``
fewer values.  Outputs stay IKJTs, so the savings also reach the
reader->trainer network hop and the trainer itself.  A batch's plain KJT
and its IKJT buffer are the only tensors transforms see: there is no
third batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.jagged import JaggedTensor
from ..core.kjt import KeyedJaggedTensor
from .batch import Batch

__all__ = [
    "SparseTransform",
    "HashModulo",
    "ClampValues",
    "TruncateLength",
    "ProcessStats",
    "TRANSFORM_REGISTRY",
    "apply_transforms",
]


class SparseTransform:
    """Base: a user module mapping JaggedTensor -> JaggedTensor.

    A transform must be element- or row-local — output row ``i`` is a
    function of input row ``i`` alone, and the row count is kept —
    because it runs once over every key's rows back to back (a KJT's
    ``flat`` tensor, or every IKJT group's in a batch's one buffer), not
    once per key or per group.
    """

    name = "identity"

    def apply(self, jt: JaggedTensor) -> JaggedTensor:
        """Transform one feature's jagged values; returns a new tensor."""
        raise NotImplementedError


class HashModulo(SparseTransform):
    """Map raw IDs into a bounded embedding-index space (§2.1 'hashing')."""

    name = "hash_modulo"

    def __init__(self, modulus: int = 1_000_003):
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        self.modulus = modulus

    def apply(self, jt: JaggedTensor) -> JaggedTensor:
        """Hash every ID into ``[0, modulus)``."""
        # blake-free multiplicative mix keeps this vectorized & stable
        mixed = (jt.values * np.int64(2654435761)) % np.int64(self.modulus)
        return JaggedTensor.trusted(np.abs(mixed), jt.offsets)


class ClampValues(SparseTransform):
    """Clamp IDs into [0, max_id] (defensive range normalization)."""

    name = "clamp_values"

    def __init__(self, max_id: int = 2**31 - 1):
        self.max_id = max_id

    def apply(self, jt: JaggedTensor) -> JaggedTensor:
        """Clamp every ID into ``[0, max_id]``."""
        return JaggedTensor.trusted(np.clip(jt.values, 0, self.max_id), jt.offsets)


class TruncateLength(SparseTransform):
    """Keep only the most recent ``max_len`` IDs of each row."""

    name = "truncate_length"

    def __init__(self, max_len: int = 256):
        if max_len < 0:
            raise ValueError("max_len must be non-negative")
        self.max_len = max_len

    def apply(self, jt: JaggedTensor) -> JaggedTensor:
        """Keep each row's most recent ``max_len`` IDs."""
        lengths = jt.lengths
        keep = np.minimum(lengths, self.max_len)
        # keep the *suffix* (most recent IDs) of each row
        starts = jt.offsets[1:] - keep
        total = int(keep.sum())
        if total == 0:
            return JaggedTensor.empty(jt.num_rows, dtype=jt.values.dtype)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(keep)[:-1]]), keep
        )
        src = np.repeat(starts, keep) + within
        offsets = np.zeros(jt.num_rows + 1, dtype=np.int64)
        np.cumsum(keep, out=offsets[1:])
        return JaggedTensor(jt.values[src], offsets)


@dataclass
class ProcessStats:
    """Work units for the process-phase cost model."""

    values_processed: int = 0
    rows_processed: int = 0


TRANSFORM_REGISTRY: dict[str, type[SparseTransform]] = {
    HashModulo.name: HashModulo,
    ClampValues.name: ClampValues,
    TruncateLength.name: TruncateLength,
}


def apply_transforms(
    batch: Batch, transform_names: tuple[str, ...]
) -> tuple[Batch, ProcessStats]:
    """Apply the configured transforms to every sparse tensor of a batch.

    Each transform runs once on the plain KJT's ``K·B``-row tensor and
    once on the batch's IKJT buffer (:attr:`Batch.unique`, every
    group's ``K·U`` unique rows back to back); the output buffer keeps
    the batch's layout, and its group views are cut from it when read.
    Every registered transform is element- or row-local, so the result
    is bit for bit the per-key one.  Plain KJT features process every
    (duplicate-bearing) value; IKJT groups process only unique values —
    O4's wrapper is that the transform is handed the deduplicated
    buffer, its body unchanged.
    """
    stats = ProcessStats()
    transforms = []
    for name in transform_names:
        cls = TRANSFORM_REGISTRY.get(name)
        if cls is None:
            raise KeyError(f"unknown transform {name!r}")
        transforms.append(cls())

    def run(t: SparseTransform, flat: JaggedTensor) -> JaggedTensor:
        stats.values_processed += flat.total_values
        stats.rows_processed += flat.num_rows
        out = t.apply(flat)
        if out.num_rows != flat.num_rows:  # the groups are cut by rows
            raise ValueError(
                f"transform {t.name!r} made {out.num_rows} rows of {flat.num_rows}"
            )
        return out

    kjt, unique = batch.kjt, batch.unique
    for t in transforms:
        if kjt is not None:
            kjt = KeyedJaggedTensor.from_flat(kjt.keys, run(t, kjt.flat))
        if unique is not None:
            unique = run(t, unique)
    return (
        Batch(batch.dense, batch.labels, kjt, unique=unique, layout=batch.layout),
        stats,
    )
