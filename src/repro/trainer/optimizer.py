"""Optimizers: dense SGD for MLPs, row-wise sparse SGD for embeddings.

Embedding tables receive *sparse* updates — only looked-up rows change
each iteration — which is both how production trains them and why the
paper's clustering accuracy argument works (§6.2: without clustering the
same sparse values get updated across many consecutive iterations).
"""

from __future__ import annotations

import numpy as np

from ..core.jagged_ops import scatter
from .params import Parameter

__all__ = ["SGD", "RowWiseAdagrad", "sparse_row_update"]


class SGD:
    """Plain SGD over dense parameters."""

    def __init__(self, params: list[Parameter], lr: float = 0.01):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            p.value -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class RowWiseAdagrad:
    """Row-wise Adagrad for embedding tables (TorchRec's default).

    Keeps one accumulator *per embedding row* (the mean of squared
    gradients across the row's dimensions), which is what production
    DLRM training uses to keep optimizer state at 1/dim the table size.
    """

    def __init__(self, num_rows: int, lr: float = 0.05, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        self.lr = lr
        self.eps = eps
        self.accumulator = np.zeros(num_rows)

    def update(
        self, weight: np.ndarray, ids: np.ndarray, grads: np.ndarray
    ) -> None:
        """Apply one sparse step for the given (possibly repeated) rows."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != grads.shape[0]:
            raise ValueError("ids and grads must align")
        if ids.size == 0:
            return
        # coalesce duplicate ids first: Adagrad state must see the summed
        # gradient once, not one partial update per duplicate
        uniq, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros((uniq.size, grads.shape[1]))
        scatter(np.add, summed, inverse, grads)
        self.accumulator[uniq] += (summed * summed).mean(axis=1)
        scale = self.lr / (np.sqrt(self.accumulator[uniq]) + self.eps)
        weight[uniq] -= scale[:, None] * summed


def sparse_row_update(
    weight: np.ndarray, ids: np.ndarray, grads: np.ndarray, lr: float
) -> None:
    """Apply -lr * grad to the given rows, accumulating duplicates.

    ``ids`` may repeat (the same embedding row looked up by several batch
    elements); the unbuffered :func:`~repro.core.jagged_ops.scatter`
    applies every copy's subtraction in batch order, matching a
    gradient-accurate sparse SGD.
    """
    if ids.shape[0] != grads.shape[0]:
        raise ValueError("ids and grads must align")
    scatter(np.subtract, weight, ids, lr * grads)
