"""KeyedJaggedTensor — the baseline sparse-feature batch format.

A :class:`KeyedJaggedTensor` (KJT) holds a batch's sparse features in
TorchRec's layout (``torchrec.sparse.KeyedJaggedTensor``, Figure 5 of
the RecD paper): one jagged tensor over ``K·B`` rows for ``K`` keys and
batch size ``B``, where key ``k`` owns rows ``k·B … (k+1)·B`` — one
``values`` buffer with every key's values back to back and one
``offsets`` delimiting all ``K·B`` rows.  The buffer is validated once,
when the KJT is built.

* ``kjt[key]`` is a :class:`~repro.core.jagged.JaggedTensor` view of
  the key's rows (:meth:`~repro.core.jagged.JaggedTensor.slice_rows`):
  its values are the buffer's, its offsets rebased to 0, and nothing is
  re-validated.  ``keys`` / ``items`` / ``select`` read per key.
* :attr:`KeyedJaggedTensor.flat` is the whole ``K·B``-row tensor, so an
  element- or row-local transform runs once per batch, not once per
  key, and :meth:`KeyedJaggedTensor.from_flat` wraps its output.
* The buffer has one value dtype: building a KJT from tensors or
  columns of mixed dtypes raises ``ValueError``.
* :attr:`KeyedJaggedTensor.nbytes` is the per-key sum it always was —
  ``values.nbytes + K·(B+1)·8``, every key shipping its own ``B+1``
  offsets — so byte accounting does not depend on the layout.

The KJT is the format that *retains* duplicate feature values; RecD's
:class:`~repro.core.ikjt.InverseKeyedJaggedTensor` is the deduplicated
counterpart (the same layout over unique rows), and both must
round-trip losslessly (``IKJT.to_kjt() == original``), which the test
suite asserts.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .jagged import JaggedTensor
from .jagged_ops import gather_ranges

__all__ = ["KeyedJaggedTensor"]

#: bytes of one offsets entry
_OFFSET = np.dtype(np.int64).itemsize


def pack(columns: Sequence[tuple[np.ndarray, np.ndarray]]) -> JaggedTensor:
    """``(offsets, values)`` pairs of one batch size, back to back: the
    one ``K·B``-row jagged tensor of a KJT.

    One concatenation per array and the checks each pair would get as a
    :class:`~repro.core.jagged.JaggedTensor`, run over the whole buffer.

    Raises:
        ValueError: on mixed value dtypes, unequal batch sizes, or a pair
            that is not a valid jagged tensor.
    """
    if not columns:
        raise ValueError("a KeyedJaggedTensor requires at least one key")
    offsets = [np.asarray(o) for o, _ in columns]
    values = [np.asarray(v) for _, v in columns]
    dtypes = {v.dtype for v in values}
    if len(dtypes) > 1:
        raise ValueError(
            f"all keys must share one value dtype, got {sorted(map(str, dtypes))}"
        )
    shapes = {o.shape for o in offsets}
    if len(shapes) != 1:
        sizes = sorted({o.size - 1 for o in offsets})
        raise ValueError(f"all keys must share a batch size, got sizes {sizes}")
    (shape,) = shapes
    if len(shape) != 1 or not shape[0]:
        raise ValueError("offsets must be non-empty 1-D arrays")
    # casting would truncate a float offset instead of rejecting it
    kinds = {o.dtype.kind for o in offsets}
    if not kinds <= set("iu"):
        raise ValueError(f"offsets must be integer arrays, got kinds {sorted(kinds)}")
    rows = np.concatenate(offsets, dtype=np.int64, casting="unsafe")
    rows = rows.reshape(len(columns), -1)
    sizes = np.array([v.size for v in values], dtype=np.int64)
    if rows[:, 0].any() or (rows[:, -1] != sizes).any():
        raise ValueError("each key's offsets must run from 0 to len(values)")
    # key k's rows start where the values of keys 0 … k-1 end
    rows[1:, 1:] += sizes.cumsum()[:-1, None]
    flat = np.empty(rows.size - len(columns) + 1, dtype=np.int64)
    flat[0] = 0
    flat[1:] = rows[:, 1:].ravel()
    return JaggedTensor(np.concatenate(values), flat)


class KeyedJaggedTensor:
    """Feature keys over one ``K·B``-row jagged buffer (one batch)."""

    __slots__ = ("_index", "_flat", "_batch_size")

    def __init__(self, tensors: Mapping[str, JaggedTensor]) -> None:
        """Pack ``key -> JaggedTensor`` (one batch size, one dtype) once."""
        self._adopt(
            tensors, pack([(jt.offsets, jt.values) for jt in tensors.values()])
        )

    def _adopt(self, keys: Iterable[str], flat: JaggedTensor) -> None:
        keys = list(keys)
        if not keys:
            raise ValueError("a KeyedJaggedTensor requires at least one key")
        index = {key: k for k, key in enumerate(keys)}
        if len(index) < len(keys):
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise ValueError(f"key {repeated!r} is named more than once")
        batch_size, rest = divmod(flat.num_rows, len(keys))
        if rest:
            raise ValueError(
                f"{flat.num_rows} rows do not split into {len(keys)} keys"
            )
        self._index = index
        self._flat = flat
        self._batch_size = batch_size

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_flat(
        cls, keys: Iterable[str], flat: JaggedTensor
    ) -> "KeyedJaggedTensor":
        """Wrap a ``K·B``-row tensor (key ``k`` owns rows ``k·B … (k+1)·B``)
        without copying it; ``flat`` was validated when it was built."""
        kjt = cls.__new__(cls)
        kjt._adopt(keys, flat)
        return kjt

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, tuple[np.ndarray, np.ndarray]]
    ) -> "KeyedJaggedTensor":
        """Pack ``key -> (offsets, values)`` columns (a
        :class:`~repro.storage.rowblock.RowBlock`'s sparse layout) with
        one concatenation; the KJT owns its buffer."""
        return cls.from_flat(columns, pack(list(columns.values())))

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, Sequence[int]]],
        keys: Iterable[str] | None = None,
    ) -> "KeyedJaggedTensor":
        """Build from row dicts (how readers see a freshly-filled batch).

        Missing keys in a row become empty lists, matching how a production
        feature-conversion step treats absent features.
        """
        if keys is None:
            seen: dict[str, None] = {}
            for r in rows:
                for k in r:
                    seen.setdefault(k)
            keys = list(seen)
        tensors = {
            k: JaggedTensor.from_lists([r.get(k, ()) for r in rows]) for k in keys
        }
        if not tensors:
            raise ValueError("no feature keys found in rows")
        return cls(tensors)

    # -- accessors --------------------------------------------------------

    @property
    def keys(self) -> list[str]:
        return list(self._index)

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def flat(self) -> JaggedTensor:
        """The ``K·B``-row tensor behind every key's view."""
        return self._flat

    @property
    def total_values(self) -> int:
        return self._flat.total_values

    @property
    def nbytes(self) -> int:
        """Values plus ``B+1`` offsets per key (the per-key formula)."""
        return int(
            self._flat.values.nbytes
            + len(self._index) * (self._batch_size + 1) * _OFFSET
        )

    def __getitem__(self, key: str) -> JaggedTensor:
        start = self._index[key] * self._batch_size
        return self._flat.slice_rows(start, start + self._batch_size)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __iter__(self):
        return iter(self._index)

    def items(self):
        """``(key, view)`` pairs in key order."""
        return [(key, self[key]) for key in self._index]

    def select(self, keys: Iterable[str]) -> "KeyedJaggedTensor":
        """A new KJT of ``keys``, in that order (used by SDD to route
        per-GPU): one gather of their rows.  A key named twice is a
        ``ValueError``."""
        keys = list(keys)
        missing = [k for k in keys if k not in self._index]
        if missing:
            raise KeyError(f"keys not present: {missing}")
        b = self._batch_size
        rows = (
            np.array([self._index[k] * b for k in keys])[:, None] + np.arange(b)
        )
        values, offsets = gather_ranges(
            self._flat.values, self._flat.offsets, rows.ravel()
        )
        return KeyedJaggedTensor.from_flat(keys, JaggedTensor(values, offsets))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyedJaggedTensor):
            return NotImplemented
        return self.keys == other.keys and self._flat == other._flat

    def __hash__(self):
        raise TypeError("KeyedJaggedTensor is unhashable")

    def __repr__(self) -> str:
        return (
            f"KeyedJaggedTensor(keys={len(self._index)}, "
            f"batch_size={self._batch_size}, total_values={self.total_values})"
        )
