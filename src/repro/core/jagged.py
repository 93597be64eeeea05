"""Jagged (ragged) tensors backed by NumPy.

A :class:`JaggedTensor` stores a batch of variable-length lists as two flat
arrays — ``values`` and ``offsets`` — mirroring TorchRec's
``torchrec.sparse.jagged_tensor.JaggedTensor`` (the format RecD builds on,
§4.2 of the paper).

We use the *N+1 offsets* convention: for a batch of ``n`` rows, ``offsets``
has ``n + 1`` entries with ``offsets[0] == 0`` and
``offsets[-1] == len(values)``; row ``i`` occupies
``values[offsets[i]:offsets[i+1]]``.  The paper's Figure 5 draws the
equivalent N-entry form (last length inferred from ``len(values)``); the two
are interconvertible and we standardize on N+1 because every vectorized
kernel in :mod:`repro.core.jagged_ops` consumes it directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["JaggedTensor", "offsets_from_lengths"]


def offsets_from_lengths(lengths: np.ndarray | Sequence[int]) -> np.ndarray:
    """Build an N+1 offsets array from per-row lengths.

    >>> offsets_from_lengths([2, 0, 3])
    array([0, 2, 2, 5])
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1:
        raise ValueError(f"lengths must be 1-D, got shape {lengths.shape}")
    if lengths.size and lengths.min() < 0:
        raise ValueError("lengths must be non-negative")
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


class JaggedTensor:
    """A batch of variable-length value lists.

    Parameters
    ----------
    values:
        Flat 1-D array holding every row's elements back to back.  For
        sparse-ID features this is ``int64``; preprocessed features may be
        ``float32``/``float64``.
    offsets:
        N+1 monotonically non-decreasing ``int64`` array delimiting rows.

    The constructor validates the invariants so that downstream kernels can
    skip bounds checks; :meth:`slice_rows` views of a valid tensor are
    valid by construction and skip them.
    """

    __slots__ = ("_values", "_offsets")

    def __init__(self, values: np.ndarray, offsets: np.ndarray) -> None:
        values = np.asarray(values)
        offsets = np.asarray(offsets)
        # casting would truncate a float offset instead of rejecting it
        if offsets.size and offsets.dtype.kind not in "iu":
            raise ValueError(
                f"offsets must be an integer array, got {offsets.dtype}"
            )
        offsets = offsets.astype(np.int64, copy=False)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0:
            raise ValueError(f"offsets[0] must be 0, got {offsets[0]}")
        if offsets[-1] != values.size:
            raise ValueError(
                f"offsets[-1] ({offsets[-1]}) must equal len(values) ({values.size})"
            )
        if (offsets[1:] < offsets[:-1]).any():
            raise ValueError("offsets must be non-decreasing")
        self._values = values
        self._offsets = offsets

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_lists(
        cls, rows: Iterable[Sequence[int]], dtype: np.dtype | type = np.int64
    ) -> "JaggedTensor":
        """Build from a Python list of lists (convenience for tests/examples)."""
        rows = [np.asarray(r, dtype=dtype) for r in rows]
        lengths = np.array([r.size for r in rows], dtype=np.int64)
        values = (
            np.concatenate(rows) if rows else np.empty(0, dtype=dtype)
        )
        if values.size == 0:
            values = values.astype(dtype)
        return cls(values, offsets_from_lengths(lengths))

    @classmethod
    def empty(cls, num_rows: int = 0, dtype: np.dtype | type = np.int64) -> "JaggedTensor":
        """A jagged tensor with ``num_rows`` empty rows."""
        return cls(
            np.empty(0, dtype=dtype), np.zeros(num_rows + 1, dtype=np.int64)
        )

    @classmethod
    def trusted(cls, values: np.ndarray, offsets: np.ndarray) -> "JaggedTensor":
        """Wrap arrays known to form a valid tensor, without checking."""
        jt = cls.__new__(cls)
        jt._values, jt._offsets = values, offsets
        return jt

    # -- accessors --------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def lengths(self) -> np.ndarray:
        return self._offsets[1:] - self._offsets[:-1]

    @property
    def num_rows(self) -> int:
        return self._offsets.size - 1

    @property
    def total_values(self) -> int:
        return int(self._values.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by both slices (what travels over the wire)."""
        return int(self._values.nbytes + self._offsets.nbytes)

    def slice_rows(self, start: int, stop: int) -> "JaggedTensor":
        """Rows ``start`` up to (not including) ``stop`` as a jagged
        tensor: ``values`` is a view, ``offsets`` the slice rebased to 0.
        Not re-validated — rows of a valid tensor are one — and not
        bounds-checked."""
        offsets = self._offsets[start : stop + 1]
        first = offsets[0]
        return JaggedTensor.trusted(self._values[first : offsets[-1]], offsets - first)

    def row(self, i: int) -> np.ndarray:
        """The ``i``-th row as a view into ``values``."""
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} out of range [0, {self.num_rows})")
        return self._values[self._offsets[i] : self._offsets[i + 1]]

    def to_lists(self) -> list[list]:
        """Materialize as a Python list of lists (tests/debugging)."""
        return [self.row(i).tolist() for i in range(self.num_rows)]

    def to_dense(self, pad_value=0) -> np.ndarray:
        """Pad rows to the max length -> ``(num_rows, max_len)`` dense array.

        This is the memory-expensive conversion that RecD's
        ``jagged_index_select`` (O6) exists to avoid; it is provided both as
        the baseline path and for interop.
        """
        lengths = self.lengths
        max_len = int(lengths.max()) if lengths.size else 0
        out = np.full((self.num_rows, max_len), pad_value, dtype=self._values.dtype)
        if max_len:
            mask = np.arange(max_len)[None, :] < lengths[:, None]
            out[mask] = self._values
        return out

    # -- dunder -----------------------------------------------------------

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JaggedTensor):
            return NotImplemented
        return (
            np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self):  # mutable ndarray payload -> unhashable, like ndarray
        raise TypeError("JaggedTensor is unhashable")

    def __repr__(self) -> str:
        return (
            f"JaggedTensor(num_rows={self.num_rows}, "
            f"total_values={self.total_values}, dtype={self._values.dtype})"
        )
