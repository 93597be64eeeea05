"""Partial IKJTs — shift-aware deduplication (§7, Supporting Partial IKJTs).

Exact-match IKJTs capture ~81.6% of duplicated bytes; partial matches —
lists that shifted by appending new IDs — cover most of the remainder
(to ~89.4%).  The paper sketches the encoding: drop the ``offsets`` slice
and store per-row ``[offset, length]`` pairs in ``inverse_lookup``, so
several batch rows can reference *overlapping windows* of one shared
``values`` buffer.

Figure 5's worked example: feature ``b`` with rows
``[3,4,5] / [4,5,6] / [3,4,5]`` encodes as ``values = [3,4,5,6]`` and
``inverse_lookup = [[0,3],[1,3],[0,3]]``.

The detector here recognizes a row as a *window* of a previously stored
row (suffix/prefix overlap from list shifting); when a row extends a
stored row by appending on the right while dropping a prefix, we extend
the stored buffer in place when it is the buffer's tail.

The encoding is measured, not shipped: the ``partial`` figure
(``repro partial``) sets its dedupe factor beside exact dedup's, and no
reader emits it — a batch carries KJTs and IKJTs only.
"""

from __future__ import annotations

import numpy as np

from .jagged import JaggedTensor

__all__ = ["PartialJaggedTensor"]


def _find_window(buffer: np.ndarray, row: np.ndarray) -> int | None:
    """Return a start index such that buffer[start:start+len(row)] == row."""
    n, m = buffer.size, row.size
    if m == 0 or m > n:
        return None
    # Candidate starts where the first element matches, then verify — fast
    # in practice because sparse IDs are high-cardinality.
    starts = np.flatnonzero(buffer[: n - m + 1] == row[0])
    for s in starts:
        if np.array_equal(buffer[s : s + m], row):
            return int(s)
    return None


class PartialJaggedTensor:
    """One feature's partially-deduplicated batch.

    Attributes
    ----------
    values:
        Shared flat buffer; rows are (possibly overlapping) windows of it.
    inverse_lookup:
        ``(batch_size, 2)`` int64 of per-row ``[offset, length]``.
    """

    __slots__ = ("_values", "_inverse_lookup")

    def __init__(self, values: np.ndarray, inverse_lookup: np.ndarray) -> None:
        values = np.asarray(values)
        inverse_lookup = np.asarray(inverse_lookup, dtype=np.int64)
        if inverse_lookup.ndim != 2 or inverse_lookup.shape[1] != 2:
            raise ValueError("inverse_lookup must have shape (batch, 2)")
        ends = inverse_lookup[:, 0] + inverse_lookup[:, 1]
        if inverse_lookup.size and (
            inverse_lookup.min() < 0 or (ends > values.size).any()
        ):
            raise ValueError("inverse_lookup windows out of buffer bounds")
        self._values = values
        self._inverse_lookup = inverse_lookup

    @classmethod
    def from_jagged(cls, jt: JaggedTensor) -> "PartialJaggedTensor":
        """Build by detecting shift-style partial duplicates across rows."""
        chunks: list[np.ndarray] = []  # append-only buffer segments
        total = 0
        lookup = np.empty((jt.num_rows, 2), dtype=np.int64)
        # Keep a dense copy of the buffer for window search; rebuilt lazily.
        buffer = np.empty(0, dtype=jt.values.dtype)
        dirty = False
        for i in range(jt.num_rows):
            row = jt.row(i)
            if dirty:
                buffer = np.concatenate(chunks) if chunks else buffer[:0]
                dirty = False
            start = _find_window(buffer, row) if row.size else None
            if row.size == 0:
                lookup[i] = (0, 0)
                continue
            if start is not None:
                lookup[i] = (start, row.size)
                continue
            # A shifted list appends new IDs on the right: if the row's
            # prefix is the buffer's suffix, only append the new tail.
            appended = False
            if buffer.size:
                max_ov = min(row.size - 1, buffer.size)
                for ov in range(max_ov, 0, -1):
                    if np.array_equal(buffer[buffer.size - ov :], row[:ov]):
                        chunks.append(row[ov:].copy())
                        lookup[i] = (buffer.size - ov, row.size)
                        total = buffer.size + row.size - ov
                        dirty = True
                        appended = True
                        break
            if not appended:
                lookup[i] = (buffer.size, row.size)
                chunks.append(row.copy())
                total = buffer.size + row.size
                dirty = True
        values = np.concatenate(chunks) if chunks else jt.values[:0].copy()
        return cls(values, lookup)

    # -- accessors --------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def inverse_lookup(self) -> np.ndarray:
        return self._inverse_lookup

    @property
    def batch_size(self) -> int:
        return self._inverse_lookup.shape[0]

    @property
    def total_values(self) -> int:
        return int(self._values.size)

    @property
    def nbytes(self) -> int:
        return int(self._values.nbytes + self._inverse_lookup.nbytes)

    def dedupe_factor(self) -> float:
        orig = int(self._inverse_lookup[:, 1].sum())
        if self._values.size == 0:
            return 1.0
        return orig / self._values.size

    def row(self, i: int) -> np.ndarray:
        off, length = self._inverse_lookup[i]
        return self._values[off : off + length]

