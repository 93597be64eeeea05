"""Embedding tables and jagged lookups (§2.2).

EMBs translate every sparse ID into a dense vector.  The lookup count is
the HBM-bandwidth cost RecD's O5 reduces: an IKJT batch looks up only the
unique rows' IDs.
"""

from __future__ import annotations

import numpy as np

from ..core.jagged import JaggedTensor
from .optimizer import sparse_row_update

__all__ = ["EmbeddingTable", "EmbeddingActivations"]


class EmbeddingActivations:
    """Jagged activations: one embedding row per sparse ID.

    ``values`` is (total_ids, dim); ``offsets`` delimits batch rows —
    the direct input of every pooling module.
    """

    __slots__ = ("values", "offsets", "ids")

    def __init__(self, values: np.ndarray, offsets: np.ndarray, ids: np.ndarray):
        self.values = values
        self.offsets = offsets
        self.ids = ids

    @property
    def num_rows(self) -> int:
        return self.offsets.size - 1

    @property
    def nbytes(self) -> int:
        """Dynamic GPU memory held by these activations (§5 EMB Inputs
        and Activations)."""
        return int(self.values.nbytes)


class EmbeddingTable:
    """One feature's embedding table with sparse-gradient accumulation."""

    def __init__(
        self,
        num_rows: int,
        dim: int,
        rng: np.random.Generator,
        name: str = "",
    ):
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        self.name = name
        self.weight = rng.normal(0.0, 0.01, size=(num_rows, dim))
        self.num_rows = num_rows
        self.dim = dim
        # sparse grad buffers accumulated across backward calls
        self._grad_ids: list[np.ndarray] = []
        self._grad_values: list[np.ndarray] = []
        #: total lookups performed (the O5 HBM-bandwidth metric)
        self.lookup_count = 0
        #: count of rows updated (repeat-update tracking for §6.2 accuracy)
        self.update_events: dict[int, int] = {}

    @property
    def nbytes(self) -> int:
        return int(self.weight.nbytes)

    def lookup(self, jt: JaggedTensor) -> EmbeddingActivations:
        """Gather one embedding row per jagged value."""
        ids = np.mod(jt.values, self.num_rows)  # defensive range mapping
        self.lookup_count += int(ids.size)
        return EmbeddingActivations(
            self.weight[ids], jt.offsets.copy(), ids
        )

    def accumulate_grad(self, ids: np.ndarray, grads: np.ndarray) -> None:
        if ids.shape[0] != grads.shape[0]:
            raise ValueError("ids and grads must align")
        self._grad_ids.append(np.asarray(ids, dtype=np.int64))
        self._grad_values.append(grads)

    def apply_sgd(self, lr: float, track_updates: bool = False) -> None:
        """Apply accumulated sparse gradients with SGD and clear buffers."""
        for ids, grads in zip(self._grad_ids, self._grad_values):
            sparse_row_update(self.weight, ids, grads, lr)
            if track_updates:
                self._track(ids)
        self._grad_ids.clear()
        self._grad_values.clear()

    def _track(self, ids: np.ndarray) -> None:
        for rid in np.unique(ids):
            key = int(rid)
            self.update_events[key] = self.update_events.get(key, 0) + 1

    def zero_grad(self) -> None:
        self._grad_ids.clear()
        self._grad_values.clear()
