"""Vectorized kernels over jagged tensors.

These are the NumPy analogues of the CUDA/C++ kernels RecD adds to
PyTorch/TorchRec:

* :func:`jagged_index_select` — O6 of the paper. Gathers rows of a jagged
  tensor by index *without* first padding to a dense tensor, eliminating the
  "convert jagged to dense" memory blow-up the paper calls out in §5.
* :func:`dense_index_select` — the pre-RecD baseline path (pad -> gather ->
  re-jag), kept for equivalence tests and the O6 ablation bench.
* segment reductions (:func:`segment_sum` and friends) — pooling over
  embedding activations laid out jagged-wise.
* :func:`expand_pooled` — the "use the shared inverse_lookup to expand the
  output" step of deduplicated compute (O7, §5 Deduplicated Pooling).
* :func:`scatter` — the one unbuffered scatter (``ufunc.at``) kernel behind
  segment sums, max-pooling backward and sparse embedding updates.

All kernels avoid Python-level loops over rows, per the vectorization
idioms this project follows.
"""

from __future__ import annotations

import math

import numpy as np

from .jagged import JaggedTensor, offsets_from_lengths

__all__ = [
    "jagged_index_select",
    "dense_index_select",
    "gather_indices",
    "gather_ranges",
    "scatter",
    "segment_sum",
    "segment_mean",
    "expand_pooled",
]


def gather_indices(
    offsets: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat source positions gathering rows ``indices`` of ``offsets``.

    Returns ``(src, out_offsets)`` such that ``values[src]`` is the
    gathered layout and ``out_offsets`` delimits its rows.  The one
    index kernel behind :func:`gather_ranges` and the trainer's
    expansion of unique rows back to batch order (``indices`` is the
    ``inverse_lookup`` there).  ``indices`` must already be a valid 1-D
    int64 row selection; :func:`gather_ranges` is the checked entry.
    """
    starts = offsets[indices]
    sel_lengths = offsets[indices + 1] - starts
    out_offsets = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(sel_lengths, out=out_offsets[1:])
    # Output element k comes from source position k + (its row's start
    # in the source - its row's start in the output).
    starts -= out_offsets[:-1]
    src = np.repeat(starts, sel_lengths)
    src += np.arange(src.size)
    return src, out_offsets


def gather_ranges(
    values: np.ndarray, offsets: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather variable-length ranges ``indices`` out of (values, offsets).

    Returns the new ``(values, offsets)`` pair.  This is the flat-array core
    of :func:`jagged_index_select`, reused by the IKJT -> KJT conversion.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValueError("indices must be 1-D")
    num_rows = offsets.size - 1
    if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
        raise IndexError(
            f"indices out of range [0, {num_rows}): "
            f"[{indices.min()}, {indices.max()}]"
        )
    src, out_offsets = gather_indices(offsets, indices)
    return values[src], out_offsets


def jagged_index_select(jt: JaggedTensor, indices: np.ndarray) -> JaggedTensor:
    """Row-gather on a jagged tensor with no dense intermediate (O6)."""
    values, offsets = gather_ranges(jt.values, jt.offsets, indices)
    return JaggedTensor(values, offsets)


def dense_index_select(jt: JaggedTensor, indices: np.ndarray) -> JaggedTensor:
    """Baseline: pad to dense, gather rows, strip padding back to jagged.

    Allocates ``num_rows * max_len`` elements — the memory overhead O6
    removes.  Functionally identical to :func:`jagged_index_select`.
    """
    indices = np.asarray(indices, dtype=np.int64)
    dense = jt.to_dense()
    lengths = jt.lengths[indices]
    picked = dense[indices]
    max_len = dense.shape[1]
    if max_len == 0:
        return JaggedTensor.empty(indices.size, dtype=jt.values.dtype)
    mask = np.arange(max_len)[None, :] < lengths[:, None]
    return JaggedTensor(picked[mask], offsets_from_lengths(lengths))


def scatter(
    ufunc: np.ufunc, target: np.ndarray, ids: np.ndarray, values: np.ndarray
) -> None:
    """``ufunc.at(target, ids, values)`` in place, on NumPy's 1-D fast path.

    ``ids`` index ``target``'s leading axis and may repeat; ``values`` has
    one leading entry per id.  An N-D ``ufunc.at`` misses NumPy's fast
    path, so rows are addressed through a flat element index into
    ``target.reshape(-1)`` — the same operations on the same elements in
    the same order, hence bit-equal to the N-D call.  Only a C-contiguous
    ``target`` has a flat *view*; ``reshape`` of any other layout is a
    copy that would swallow the update, so those keep the N-D call.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if target.ndim == 1 or not target.flags.c_contiguous:
        ufunc.at(target, ids, values)
        return
    width = math.prod(target.shape[1:])
    flat_ids = (ids[:, None] * width + np.arange(width)).reshape(-1)
    values = np.broadcast_to(values, ids.shape + target.shape[1:])
    ufunc.at(target.reshape(-1), flat_ids, values.reshape(-1))


def _check_segments(activations: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    if activations.shape[0] != offsets[-1]:
        raise ValueError(
            f"activations rows ({activations.shape[0]}) must equal "
            f"offsets[-1] ({offsets[-1]})"
        )
    return offsets


def segment_sum(activations: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum-pool activation rows per jagged segment.

    ``activations`` is ``(total_values, D)`` (or 1-D); the result is
    ``(num_segments, D)``.  Empty segments pool to zeros.
    """
    offsets = _check_segments(activations, offsets)
    num_seg = offsets.size - 1
    out_shape = (num_seg,) + activations.shape[1:]
    out = np.zeros(out_shape, dtype=np.result_type(activations.dtype, np.float64))
    if activations.shape[0]:
        seg_ids = np.repeat(np.arange(num_seg), np.diff(offsets))
        scatter(np.add, out, seg_ids, activations)
    return out


def segment_mean(activations: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mean-pool per segment; empty segments yield zeros (TorchRec semantics)."""
    offsets = _check_segments(activations, offsets)
    sums = segment_sum(activations, offsets)
    counts = np.diff(offsets).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    return sums / safe.reshape((-1,) + (1,) * (sums.ndim - 1))


def expand_pooled(pooled: np.ndarray, inverse_lookup: np.ndarray) -> np.ndarray:
    """Expand per-unique-row pooled outputs back to the full batch (O7).

    ``pooled`` has one row per *deduplicated* row; ``inverse_lookup[i]``
    names the unique row backing batch row ``i``.  A plain fancy-index —
    the whole point is that the expensive compute already happened on the
    smaller ``pooled``.
    """
    inverse_lookup = np.asarray(inverse_lookup, dtype=np.int64)
    if inverse_lookup.size and (
        inverse_lookup.min() < 0 or inverse_lookup.max() >= pooled.shape[0]
    ):
        raise IndexError("inverse_lookup out of range of pooled rows")
    return pooled[inverse_lookup]
