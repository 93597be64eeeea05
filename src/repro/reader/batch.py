"""The preprocessed batch readers ship to trainers.

A batch is dense features, labels, at most one plain KJT, and one IKJT
per dedup group — nothing else.  The IKJT groups are one buffer,
:attr:`Batch.unique`, from dedup to the wire; the IKJTs are views of
it, cut only when read.  The ``wire_nbytes`` property is what the
reader->trainer network link carries (Table 3's "Send Bytes"): IKJT
groups ship deduplicated values/offsets plus one inverse_lookup per
group.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.ikjt import InverseKeyedJaggedTensor
from ..core.jagged import JaggedTensor
from ..core.kjt import _OFFSET, KeyedJaggedTensor

__all__ = ["Batch"]


class Batch:
    """One training mini-batch in tensor form."""

    def __init__(
        self,
        dense: np.ndarray,
        labels: np.ndarray,
        kjt: KeyedJaggedTensor | None = None,
        ikjts: Sequence[InverseKeyedJaggedTensor] = (),
        *,
        unique: JaggedTensor | None = None,
        layout: Sequence[tuple[list[str], int, np.ndarray]] = (),
    ) -> None:
        """``(B, num_dense)`` float32 dense features, ``(B,)`` float32
        labels, the plain KJT, and the IKJT groups: either IKJTs built
        apart (their unique rows are concatenated into :attr:`unique`)
        or ``unique`` with its ``layout``, as
        :meth:`~repro.core.ikjt.InverseKeyedJaggedTensor.gather_groups`
        returns them (the IKJTs are cut from it when first read)."""
        self.dense, self.labels, self.kjt = dense, labels, kjt
        self._ikjts = list(ikjts) or None
        if ikjts:
            flats = [ik.flat for ik in ikjts]
            if len({jt.values.dtype for jt in flats}) > 1:
                raise ValueError("all IKJT groups must share one value dtype")
            starts = np.cumsum([0] + [jt.total_values for jt in flats])
            offsets = [jt.offsets[1:] + start for jt, start in zip(flats, starts)]
            values = np.concatenate([jt.values for jt in flats])
            unique = JaggedTensor(values, np.concatenate([[0], *offsets]))
            layout = [(ik.keys, ik.num_unique, ik.inverse_lookup) for ik in ikjts]
        #: every IKJT group's ``K·U`` unique rows, group after group
        self.unique = unique
        #: each group's ``(keys, num_unique, inverse_lookup)``, in order
        self.layout = list(layout)
        sizes = {dense.shape[0], labels.shape[0]}
        sizes.update(inverse.size for _, _, inverse in self.layout)
        if kjt is not None:
            sizes.add(kjt.batch_size)
        if len(sizes) != 1:
            raise ValueError(f"inconsistent batch sizes: {sorted(sizes)}")

    @property
    def ikjts(self) -> list[InverseKeyedJaggedTensor]:
        """One IKJT per dedup group, each a view of its row range of
        :attr:`unique`, cut once per batch."""
        if self._ikjts is None:
            self._ikjts = InverseKeyedJaggedTensor.split(self.unique, self.layout)
        return self._ikjts

    def __getstate__(self) -> dict:  # the buffer carries every view's rows
        return {**self.__dict__, "_ikjts": None}

    @property
    def batch_size(self) -> int:
        """Rows in this batch (B of the job's batch size)."""
        return int(self.labels.shape[0])

    @property
    def sparse_keys(self) -> list[str]:
        """Every sparse feature name, across the KJT and the IKJTs."""
        keys = list(self.kjt.keys) if self.kjt is not None else []
        for group, _, _ in self.layout:
            keys.extend(group)
        return keys

    def _plain_nbytes(self) -> int:
        total = int(self.dense.nbytes + self.labels.nbytes)
        return total + (self.kjt.nbytes if self.kjt is not None else 0)

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
        recorded as ``bytes.avoided``.  The IKJT groups are counted once,
        over :attr:`unique`, with the per-key formula: values plus
        ``U+1`` offsets per key, plus ``B`` inverse entries per group.
        """
        total = self._plain_nbytes()
        if self.layout:
            keys = sum(len(group) for group, _, _ in self.layout)
            offsets = self.unique.num_rows + keys + len(self.layout) * self.batch_size
            total += self.unique.values.nbytes + offsets * _OFFSET
        return total

    @property
    def expanded_nbytes(self) -> int:
        """Bytes the fully-materialized (non-dedup) batch would carry.

        Equals :attr:`wire_nbytes` for a batch with no IKJT groups; for
        deduped batches the gap is the dedup transport saving
        (``bytes-expanded - bytes-decoded`` in the fleet/tier reports).
        Computed analytically, once over :attr:`unique` — nothing is
        expanded: batch row ``i`` of a key reads the key's unique row
        ``inverse_lookup[i]``.
        """
        total = self._plain_nbytes()
        if self.layout:
            groups, num_unique, inverses = zip(*self.layout)
            keys = [len(group) for group in groups]
            rows = np.repeat(num_unique, keys)
            inverse = np.repeat(np.stack(inverses), keys, axis=0)
            reads = (np.cumsum(rows) - rows)[:, None] + inverse
            values = int(self.unique.lengths[reads].sum())
            total += values * self.unique.values.itemsize
            total += rows.size * (self.batch_size + 1) * _OFFSET
        return total

    def to_kjt_only(self) -> "Batch":
        """Expand every IKJT back to a KJT (functional-equivalence tests)."""
        tensors = dict(self.kjt.items()) if self.kjt is not None else {}
        for ik in self.ikjts:
            tensors.update(ik.to_kjt().items())
        return Batch(
            self.dense, self.labels, KeyedJaggedTensor(tensors) if tensors else None
        )
