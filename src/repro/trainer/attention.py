"""Sequence pooling: attention and transformer modules (§2.2, §5).

Recent DLRMs pool long user-history sequence features with attention
mechanisms; these dominate GPU compute, which is why deduplicating their
*inputs* (O7) yields RM1's extra 12%-of-iteration GEMM savings.  Both
modules implement exact backward passes (verified against finite
differences in the test suite) and FLOP counting.

``AttentionPooling`` — additive attention with a learned query:
``score_i = tanh(x_i W) . q``, softmax within each jagged segment,
output the alpha-weighted sum of the segment's activations.

``TransformerPooling`` — one pre-norm-free transformer block
(single-head self-attention + residual + ReLU FFN + residual) over each
row's sequence, followed by mean pooling.  A batch whose rows all hold
the same number of values is already dense: it runs on a reshape view
with no mask.  Only a ragged batch is padded dense with masking; padded
positions carry zero activations so no gradient leaks through them.
"""

from __future__ import annotations

import numpy as np

from ..core.jagged_ops import segment_sum
from .embedding import EmbeddingActivations
from .params import Parameter
from .pooling import PoolingModule

__all__ = ["AttentionPooling", "TransformerPooling"]

_NEG = -1e9  # finite mask value: -inf breeds NaNs in empty rows


def _segment_max_scalar(s: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Max of a scalar score per segment; empty segments get 0."""
    lengths = np.diff(offsets)
    out = np.zeros(lengths.size)
    nonempty = lengths > 0
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(s, offsets[:-1][nonempty])
    return out


class AttentionPooling(PoolingModule):
    """Learned-query additive attention over each jagged segment; the
    attention projection is ``dim`` wide."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.W = Parameter(rng.normal(0, np.sqrt(1.0 / dim), (dim, dim)))
        self.q = Parameter(rng.normal(0, np.sqrt(1.0 / dim), dim))
        self._cache: dict | None = None

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        X, offsets = acts.values, acts.offsets
        lengths = np.diff(offsets)
        H = np.tanh(X @ self.W.value)  # (N, dim)
        s = H @ self.q.value  # (N,)
        smax = _segment_max_scalar(s, offsets)
        e = np.exp(s - np.repeat(smax, lengths))
        z = segment_sum(e, offsets)
        alpha = e / np.repeat(np.maximum(z, 1e-30), lengths)
        out = segment_sum(alpha[:, None] * X, offsets)
        self._cache = {
            "X": X, "H": H, "alpha": alpha, "offsets": offsets,
            "lengths": lengths,
        }
        return out

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        c = self._cache
        X, H, alpha = c["X"], c["H"], c["alpha"]
        offsets, lengths = c["offsets"], c["lengths"]
        g = np.repeat(dpooled, lengths, axis=0)  # (N, D)
        dalpha = (g * X).sum(axis=1)  # (N,)
        dX = alpha[:, None] * g
        inner = segment_sum(alpha * dalpha, offsets)
        ds = alpha * (dalpha - np.repeat(inner, lengths))
        self.q.grad += H.T @ ds
        dH = np.outer(ds, self.q.value)
        dU = (1.0 - H * H) * dH
        self.W.grad += X.T @ dU
        dX += dU @ self.W.value.T
        return dX

    def expand_cache(self, inverse, src, batch_offsets) -> None:
        c = self._cache
        self._cache = {k: np.take(c[k], src, axis=0) for k in ("X", "H", "alpha")}
        self._cache["offsets"] = batch_offsets
        self._cache["lengths"] = np.diff(batch_offsets)

    def params(self) -> list[Parameter]:
        return [self.W, self.q]

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        # tanh(XW)q dominates: N*D*H + N*H (H = self.dim), plus weighted
        # sum N*D
        return float(
            2 * total_values * dim * self.dim
            + 2 * total_values * self.dim
            + 2 * total_values * dim
        )


class TransformerPooling(PoolingModule):
    """One self-attention block + FFN (``2 * dim`` wide) over each
    sequence, mean-pooled."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        ffn_hidden = 2 * dim
        self.dim = dim
        self.ffn_hidden = ffn_hidden
        scale = np.sqrt(1.0 / dim)
        self.Wq = Parameter(rng.normal(0, scale, (dim, dim)))
        self.Wk = Parameter(rng.normal(0, scale, (dim, dim)))
        self.Wv = Parameter(rng.normal(0, scale, (dim, dim)))
        self.Wo = Parameter(rng.normal(0, scale, (dim, dim)))
        self.W1 = Parameter(rng.normal(0, scale, (dim, ffn_hidden)))
        self.b1 = Parameter(np.zeros(ffn_hidden))
        self.W2 = Parameter(
            rng.normal(0, np.sqrt(1.0 / ffn_hidden), (ffn_hidden, dim))
        )
        self.b2 = Parameter(np.zeros(dim))
        self._cache: dict | None = None

    # -- dense packing ------------------------------------------------------

    @staticmethod
    def _to_dense(acts: EmbeddingActivations) -> tuple[np.ndarray, np.ndarray | None]:
        """(B, L, D) activations and their (B, L) key mask.  A batch whose
        rows all hold the same L > 0 values is a reshape view with no mask:
        there is no padding to hide."""
        lengths = np.diff(acts.offsets)
        B = lengths.size
        L = int(lengths.max()) if B else 0
        D = acts.values.shape[1]
        if L and acts.values.shape[0] == B * L:
            return acts.values.reshape(B, L, D), None
        X = np.zeros((B, max(L, 1), D))
        mask = np.zeros((B, max(L, 1)), dtype=bool)
        if acts.values.shape[0]:
            m = np.arange(L)[None, :] < lengths[:, None]
            X[:, :L][m] = acts.values
            mask[:, :L] = m
        return X, mask

    def forward(self, acts: EmbeddingActivations) -> np.ndarray:
        X, mask = self._to_dense(acts)
        D = X.shape[2]
        Q = X @ self.Wq.value
        K = X @ self.Wk.value
        V = X @ self.Wv.value
        S = Q @ K.transpose(0, 2, 1)
        S *= 1.0 / np.sqrt(D)
        if mask is not None:
            np.copyto(S, _NEG, where=~mask[:, None, :])  # mask key positions
        # a max is exact in any order: take it across rows, not along the
        # short key axis
        S -= np.ascontiguousarray(np.moveaxis(S, -1, 0)).max(axis=0)[..., None]
        A = np.exp(S, out=S)
        A /= np.maximum(A.sum(axis=-1, keepdims=True), 1e-30)
        Z = A @ V
        Y = Z @ self.Wo.value
        Y += X  # residual
        F1 = Y @ self.W1.value
        F1 += self.b1.value
        np.maximum(F1, 0.0, out=F1)
        Y2 = F1 @ self.W2.value
        Y2 += self.b2.value
        Y2 += Y  # residual
        if mask is not None:
            Y2 *= mask[:, :, None]
        denom = np.maximum(np.diff(acts.offsets), 1)[:, None]
        # Y2.sum(axis=1)'s in-order sum over positions, positions outermost
        out = np.ascontiguousarray(np.moveaxis(Y2, 1, 0)).sum(axis=0)
        out /= denom
        self._cache = {
            "X": X, "mask": mask, "Q": Q, "K": K, "V": V, "A": A, "Z": Z,
            "Y": Y, "F1": F1, "denom": denom,
        }
        return out

    def backward(self, dpooled: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        c = self._cache
        X, mask = c["X"], c["mask"]
        Q, K, V, A, Z, Y, F1 = c["Q"], c["K"], c["V"], c["A"], c["Z"], c["Y"], c["F1"]
        _, L, D = X.shape
        H = self.ffn_hidden

        dY2 = dpooled[:, None, :] / c["denom"][:, None]
        dY2 = np.repeat(dY2, L, axis=1) if mask is None else dY2 * mask[:, :, None]
        # FFN backward
        flatF = dY2.reshape(-1, D)
        self.W2.grad += F1.reshape(-1, H).T @ flatF
        self.b2.grad += flatF.sum(axis=0)
        dF1 = dY2 @ self.W2.value.T
        dF1 *= F1 > 0
        flat1 = dF1.reshape(-1, H)
        self.W1.grad += Y.reshape(-1, D).T @ flat1
        self.b1.grad += flat1.sum(axis=0)
        dY = dF1 @ self.W1.value.T
        dY += dY2  # residual
        # attention output projection
        self.Wo.grad += Z.reshape(-1, D).T @ dY.reshape(-1, D)
        dZ = dY @ self.Wo.value.T
        dS = dZ @ V.transpose(0, 2, 1)  # dA, turned into dS in place
        dV = A.transpose(0, 2, 1) @ dZ
        dS -= (A * dS).sum(axis=-1, keepdims=True)
        dS *= A
        scale = 1.0 / np.sqrt(D)
        dQ = (dS @ K) * scale
        dK = (dS.transpose(0, 2, 1) @ Q) * scale
        flatX = X.reshape(-1, D)
        self.Wq.grad += flatX.T @ dQ.reshape(-1, D)
        self.Wk.grad += flatX.T @ dK.reshape(-1, D)
        self.Wv.grad += flatX.T @ dV.reshape(-1, D)
        dX = dY  # residual, summed in place
        dX += dQ @ self.Wq.value.T
        dX += dK @ self.Wk.value.T
        dX += dV @ self.Wv.value.T
        # strip any padding back to jagged layout
        return dX.reshape(-1, D) if mask is None else dX[mask]

    def expand_cache(self, inverse, src, batch_offsets) -> None:
        # every cached array is dense with one leading entry per row
        self._cache = {
            k: v if v is None else np.take(v, inverse, axis=0)
            for k, v in self._cache.items()
        }

    def params(self) -> list[Parameter]:
        return [
            self.Wq, self.Wk, self.Wv, self.Wo,
            self.W1, self.b1, self.W2, self.b2,
        ]

    def flops(self, total_values: int, dim: int, batch_size: int) -> float:
        """Approximate forward FLOPs for jagged input of N total values.

        Projections and FFN scale with N*D^2/N*D*H; attention scores scale
        with sum(len^2)*D, approximated via the mean length.
        """
        n = max(total_values, 0)
        avg_len = n / max(batch_size, 1)
        proj = 2 * 4 * n * dim * dim  # Q,K,V,O
        attn = 2 * 2 * n * avg_len * dim  # S and A@V
        ffn = 2 * 2 * n * dim * self.ffn_hidden
        return float(proj + attn + ffn)
