"""Element-wise pooling modules over jagged embedding activations (§2.2).

Sum / mean / max pooling aggregate each row's activations into one
embedding-dim vector.  All implement explicit backward passes and FLOP
counting; the FLOP count is what RecD's deduplicated compute (O7)
divides by the dedupe factor.
"""

from __future__ import annotations

import numpy as np

from ..core.jagged_ops import scatter, segment_mean, segment_sum
from .embedding import EmbeddingActivations
from .params import Parameter

__all__ = ["PoolingModule", "SumPooling", "MeanPooling", "MaxPooling"]


class PoolingModule:
    """Base pooling interface: (N, D) jagged -> (B, D) pooled."""

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        """Return d(activations.values) of shape (N, D)."""
        raise NotImplementedError

    def expand_cache(
        self, inverse: np.ndarray, src: np.ndarray, batch_offsets: np.ndarray
    ) -> None:
        """Turn the cache of ``forward(unique rows)`` into the cache
        ``forward(expanded batch)`` would have left, by gathers alone.

        ``inverse`` (B,) names the unique row behind each batch row,
        ``src`` (N_batch,) the unique value behind each batch value, and
        ``batch_offsets`` (B+1,) delimits the batch rows.  No float math
        runs: the ``backward`` that follows is the one a forward over the
        materialized batch sets up — deduplicated compute (O7) without a
        second forward.

        Bit for bit under two conditions.  ``inverse`` references every
        unique row, as any IKJT ``from_kjt`` builds does (the dense
        modules would otherwise keep an unreferenced row's pad width).
        And the BLAS rounds a row alike wherever it sits in a matrix:
        true of OpenBLAS's matrix-matrix products, not of the
        matrix-vector product behind ``AttentionPooling``'s score — a
        last-bit position dependence the O7 forward's pooled output
        already carries.
        """
        raise NotImplementedError

    def params(self) -> list[Parameter]:
        return []

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        """FLOPs of one forward given ``total_values`` activation rows."""
        raise NotImplementedError


class SumPooling(PoolingModule):
    def __init__(self) -> None:
        self._offsets: np.ndarray | None = None

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        self._offsets = acts.offsets
        return segment_sum(acts.values, acts.offsets)

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._offsets is None:
            raise RuntimeError("backward before forward")
        lengths = np.diff(self._offsets)
        return np.repeat(dpooled, lengths, axis=0)

    def expand_cache(self, inverse, src, batch_offsets) -> None:
        self._offsets = batch_offsets

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        return float(total_values * dim)


class MeanPooling(PoolingModule):
    def __init__(self) -> None:
        self._offsets: np.ndarray | None = None

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        self._offsets = acts.offsets
        return segment_mean(acts.values, acts.offsets)

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._offsets is None:
            raise RuntimeError("backward before forward")
        lengths = np.diff(self._offsets)
        scale = 1.0 / np.maximum(lengths, 1)
        return np.repeat(dpooled * scale[:, None], lengths, axis=0)

    def expand_cache(self, inverse, src, batch_offsets) -> None:
        self._offsets = batch_offsets

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        return float(total_values * dim + batch_size * dim)


class MaxPooling(PoolingModule):
    """Per-dimension max; backward routes gradient to the argmax entry."""

    def __init__(self) -> None:
        self._argmax: np.ndarray | None = None  # (B, D) indices into values
        self._offsets: np.ndarray | None = None

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        offsets = acts.offsets
        lengths = np.diff(offsets)
        num_seg = lengths.size
        dim = acts.values.shape[1] if acts.values.ndim > 1 else 1
        out = np.zeros((num_seg, dim))
        argmax = np.full((num_seg, dim), -1, dtype=np.int64)
        if acts.values.shape[0]:
            max_len = int(lengths.max())
            # pad to dense with -inf, argmax per dim, map back to flat idx
            dense = np.full((num_seg, max_len, dim), -np.inf)
            mask = np.arange(max_len)[None, :] < lengths[:, None]
            dense[mask] = acts.values
            nonempty = lengths > 0
            arg = dense.argmax(axis=1)  # (B, D)
            picked = np.take_along_axis(dense, arg[:, None, :], axis=1)[:, 0, :]
            out[nonempty] = picked[nonempty]
            flat = offsets[:-1][:, None] + arg
            argmax[nonempty] = flat[nonempty]
        self._argmax = argmax
        self._offsets = offsets
        return out

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._argmax is None:
            raise RuntimeError("backward before forward")
        n, dim = int(self._offsets[-1]), dpooled.shape[1]
        dvalues = np.zeros(n * dim)
        rows, dims = np.nonzero(self._argmax >= 0)
        scatter(
            np.add, dvalues, self._argmax[rows, dims] * dim + dims,
            dpooled[rows, dims],
        )
        return dvalues.reshape(n, dim)

    def expand_cache(self, inverse, src, batch_offsets) -> None:
        # re-base each row's flat argmax from its unique-row start onto
        # its batch-row start; empty rows keep the -1 sentinel
        shift = (batch_offsets[:-1] - self._offsets[:-1][inverse])[:, None]
        argmax = self._argmax[inverse]
        self._argmax = np.where(argmax >= 0, argmax + shift, -1)
        self._offsets = batch_offsets

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        return float(total_values * dim)
