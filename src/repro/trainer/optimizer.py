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

__all__ = ["SGD", "sparse_row_update"]


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
