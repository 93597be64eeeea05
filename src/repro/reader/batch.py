"""The preprocessed batch readers ship to trainers.

A batch is dense features, labels, at most one plain KJT, and one IKJT
per dedup group — nothing else.  The ``wire_nbytes`` property is what
the reader->trainer network link carries (Table 3's "Send Bytes"): IKJT
groups ship deduplicated values/offsets plus one inverse_lookup per
group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.ikjt import InverseKeyedJaggedTensor
from ..core.kjt import KeyedJaggedTensor

__all__ = ["Batch"]


@dataclass
class Batch:
    """One training mini-batch in tensor form."""

    dense: np.ndarray  # (B, num_dense) float32
    labels: np.ndarray  # (B,) float32
    kjt: KeyedJaggedTensor | None = None
    ikjts: list[InverseKeyedJaggedTensor] = field(default_factory=list)

    def __post_init__(self) -> None:
        sizes = {self.dense.shape[0], self.labels.shape[0]}
        if self.kjt is not None:
            sizes.add(self.kjt.batch_size)
        for ik in self.ikjts:
            sizes.add(ik.batch_size)
        if len(sizes) != 1:
            raise ValueError(f"inconsistent batch sizes: {sorted(sizes)}")

    @property
    def batch_size(self) -> int:
        """Rows in this batch (B of the job's batch size)."""
        return int(self.labels.shape[0])

    @property
    def sparse_keys(self) -> list[str]:
        """Every sparse feature name, across the KJT and the IKJTs."""
        keys = list(self.kjt.keys) if self.kjt is not None else []
        for ik in self.ikjts:
            keys.extend(ik.keys)
        return keys

    @property
    def wire_nbytes(self) -> int:
        """Bytes shipped reader -> trainer.

        IKJT inverse_lookups *do* travel on this hop (each trainer needs
        them to expand its local batch); the SDD hop later keeps them
        local (§5).  This is also the byte count the transport model
        charges: under the ``copy`` transport every wire byte pays the
        modeled serialize/copy cost
        (:meth:`~repro.reader.costmodel.ReaderCostModel.transport_seconds`)
        and lands in ``bytes.copied``; under ``shm`` the same count is
        recorded as ``bytes.avoided``.
        """
        total = int(self.dense.nbytes + self.labels.nbytes)
        if self.kjt is not None:
            total += self.kjt.nbytes
        for ik in self.ikjts:
            total += ik.nbytes
        return total

    @property
    def expanded_nbytes(self) -> int:
        """Bytes the fully-materialized (non-dedup) batch would carry.

        Equals :attr:`wire_nbytes` for a batch with no IKJT groups; for
        deduped batches the gap is the dedup transport saving
        (``bytes-expanded - bytes-decoded`` in the fleet/tier reports).
        Computed analytically — nothing is expanded.
        """
        total = int(self.dense.nbytes + self.labels.nbytes)
        if self.kjt is not None:
            total += self.kjt.nbytes
        for ik in self.ikjts:
            total += ik.expanded_nbytes
        return total

    def to_kjt_only(self) -> "Batch":
        """Expand every IKJT back to a KJT (functional-equivalence tests)."""
        tensors = dict(self.kjt.items()) if self.kjt is not None else {}
        for ik in self.ikjts:
            tensors.update(ik.to_kjt().items())
        return Batch(
            dense=self.dense,
            labels=self.labels,
            kjt=KeyedJaggedTensor(tensors) if tensors else None,
            ikjts=[],
        )
