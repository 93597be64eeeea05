"""RowBlock — a run of rows held as columns, the one row shape past the
trace generator.

Storage is columnar (one stream per flattened feature, §2.1) and the
reader's output tensors are columnar (``values`` / ``offsets``), so no
row object is needed in between: the ETL job lands a block, the DWRF
writer encodes a block, a decoded stripe *is* a block, a batch is a
slice (or a concatenation of slices) of blocks, and feature conversion
wraps the block's columns as jagged tensors.  The generator's row
objects (:class:`~repro.datagen.session.Sample`) become columns once,
through :meth:`RowBlock.from_samples`; iterating or integer-indexing a
block materializes them again for the cold callers that want rows
(scribe logging, feature characterization, tests).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..core.jagged import JaggedTensor
from ..core.jagged_ops import gather_ranges
from ..core.kjt import KeyedJaggedTensor, pack
from ..datagen.session import Sample

__all__ = ["RowBlock", "require_block"]


def require_block(rows, where: str) -> None:
    """Raise ``TypeError`` unless ``rows`` is a :class:`RowBlock` — the
    only row shape ``where`` (a write, land or convert entry point)
    takes."""
    if not isinstance(rows, RowBlock):
        raise TypeError(
            f"{where} takes a RowBlock, got {type(rows).__name__}; "
            "columnarise row objects once with RowBlock.from_samples"
        )


class RowBlock:
    """``N`` rows as columns: metadata arrays plus per-feature columns.

    ``sparse`` maps feature name -> ``(offsets, values)`` in the N+1
    offsets convention of :class:`~repro.core.jagged.JaggedTensor`
    (``offsets[0] == 0``, ``offsets[-1] == len(values)``, int64 both);
    ``dense`` maps feature name -> float64 column.  Every column covers
    the same ``N`` rows; :meth:`from_samples`, :meth:`concat`, slicing
    and :meth:`DwrfReader.read_stripe
    <repro.storage.dwrf.DwrfReader.read_stripe>` all guarantee it.

    ``block[lo:hi]`` is another block over *views* of this one's arrays
    (offset arithmetic only — no per-row work, no value copy) that keeps
    its root block and first row there: it rebases the root's sparse
    columns only once its :attr:`sparse` is read, and :meth:`keyed` cuts
    from the root's packed columns instead.  ``block[i]`` and iteration
    materialize :class:`Sample` rows whose sparse arrays are likewise
    views.
    """

    def __init__(
        self,
        sample_id: np.ndarray,
        session_id: np.ndarray,
        timestamp: np.ndarray,
        label: np.ndarray,
        sparse: dict[str, tuple[np.ndarray, np.ndarray]] | None,
        dense: dict[str, np.ndarray],
    ) -> None:
        self.sample_id, self.session_id = sample_id, session_id
        self.timestamp, self.label, self.dense = timestamp, label, dense
        # a slice's root (None: a root) and first row; a root's packed
        # columns per key tuple (:meth:`keyed`)
        self._sparse, self._root, self._lo, self._packed = sparse, None, 0, {}

    @property
    def sparse(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Feature name -> ``(offsets, values)``; a slice rebases its
        root's columns on the first read."""
        if self._sparse is None:
            lo, hi = self._lo, self._lo + len(self)
            self._sparse = {}
            for name, (offsets, values) in self._root.sparse.items():
                cut = offsets[lo : hi + 1]
                self._sparse[name] = (cut - cut[0], values[cut[0] : cut[-1]])
        return self._sparse

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        rows: Iterable[Sample],
        sparse_keys: Sequence[str] | None = None,
        dense_keys: Sequence[str] | None = None,
    ) -> "RowBlock":
        """Columnarise row objects (the one per-row pass cold callers pay).

        ``sparse_keys`` / ``dense_keys`` pick and order the feature
        columns; by default every key any row carries, in first-seen
        order.  A row missing a key contributes an empty list / ``0.0``,
        matching how feature conversion treats absent features.
        """
        rows = list(rows)
        if sparse_keys is None:
            sparse_keys = list(dict.fromkeys(k for r in rows for k in r.sparse))
        if dense_keys is None:
            dense_keys = list(dict.fromkeys(k for r in rows for k in r.dense))
        sparse = {}
        for key in sparse_keys:
            jt = JaggedTensor.from_lists([r.sparse.get(key, ()) for r in rows])
            sparse[key] = (jt.offsets, jt.values)
        return cls(
            sample_id=np.array([r.sample_id for r in rows], dtype=np.int64),
            session_id=np.array([r.session_id for r in rows], dtype=np.int64),
            timestamp=np.array([r.timestamp for r in rows], dtype=np.float64),
            label=np.array([r.label for r in rows], dtype=np.int64),
            sparse=sparse,
            dense={
                key: np.array(
                    [r.dense.get(key, 0.0) for r in rows], dtype=np.float64
                )
                for key in dense_keys
            },
        )

    @classmethod
    def concat(cls, blocks: Iterable["RowBlock"]) -> "RowBlock":
        """The blocks' rows back to back, as one block owning fresh
        arrays (a single block is returned as is).  All blocks must
        carry the same feature columns."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("cannot concat zero blocks")
        first = blocks[0]
        if len(blocks) == 1:
            return first
        for b in blocks[1:]:
            if (
                b.sparse.keys() != first.sparse.keys()
                or b.dense.keys() != first.dense.keys()
            ):
                raise ValueError("blocks disagree on their feature columns")
        sparse = {}
        for name in first.sparse:
            shifted = [np.zeros(1, dtype=np.int64)]
            base = 0
            for b in blocks:
                offsets, values = b.sparse[name]
                shifted.append(offsets[1:] + base)
                base += values.size
            sparse[name] = (
                np.concatenate(shifted),
                np.concatenate([b.sparse[name][1] for b in blocks]),
            )
        return cls(
            sample_id=np.concatenate([b.sample_id for b in blocks]),
            session_id=np.concatenate([b.session_id for b in blocks]),
            timestamp=np.concatenate([b.timestamp for b in blocks]),
            label=np.concatenate([b.label for b in blocks]),
            sparse=sparse,
            dense={
                name: np.concatenate([b.dense[name] for b in blocks])
                for name in first.dense
            },
        )

    def take(self, order: np.ndarray) -> "RowBlock":
        """The rows at ``order`` (any permutation, subset or repetition
        of row indices), in that order, as a block owning fresh arrays —
        how ETL applies its sort, join, downsample and ``CLUSTER BY`` as
        one gather per column."""
        order = np.asarray(order, dtype=np.int64)
        sparse = {}
        for name, (offsets, values) in self.sparse.items():
            taken, cut = gather_ranges(values, offsets, order)
            sparse[name] = (cut, taken)
        return RowBlock(
            sample_id=self.sample_id[order],
            session_id=self.session_id[order],
            timestamp=self.timestamp[order],
            label=self.label[order],
            sparse=sparse,
            dense={name: col[order] for name, col in self.dense.items()},
        )

    # -- container protocol -----------------------------------------------

    def __len__(self) -> int:
        return self.sample_id.size

    def __getitem__(self, index: int | slice) -> "RowBlock | Sample":
        """``block[lo:hi]`` -> a block of views; ``block[i]`` -> one
        materialized :class:`Sample`."""
        if not isinstance(index, slice):
            i = range(len(self))[index]  # normalizes negatives, IndexError
            return next(iter(self[i : i + 1]))
        lo, hi, step = index.indices(len(self))
        if step != 1:
            raise ValueError("RowBlock slices must be contiguous (step 1)")
        hi = max(hi, lo)
        view = RowBlock(
            self.sample_id[lo:hi],
            self.session_id[lo:hi],
            self.timestamp[lo:hi],
            self.label[lo:hi],
            None,
            {name: col[lo:hi] for name, col in self.dense.items()},
        )
        view._root = self if self._root is None else self._root
        view._lo = self._lo + lo
        return view

    def keyed(self, keys: Sequence[str]) -> KeyedJaggedTensor:
        """``KeyedJaggedTensor.from_columns`` of ``keys`` over :attr:`sparse`
        (a key the block lacks is empty in every row), in fresh arrays:
        the root packs its columns for ``keys`` once, every
        :func:`~repro.core.kjt.pack` check included, and each block cut
        from it gathers its rows out of them."""
        root = self if self._root is None else self._root
        keys = tuple(keys)
        packed = root._packed.get(keys)
        if packed is None:
            n = len(root)
            absent = (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
            flat = pack([root.sparse.get(key, absent) for key in keys])
            # key k's offsets are rows k·N … (k+1)·N of the packed buffer
            rows = np.arange(len(keys))[:, None] * n + np.arange(n + 1)
            packed = root._packed[keys] = flat.values, flat.offsets[rows]
        return KeyedJaggedTensor.from_window(
            keys, *packed, self._lo, self._lo + len(self)
        )

    def __iter__(self) -> Iterator[Sample]:
        """Materialize the rows one :class:`Sample` at a time."""
        sparse = [
            (name, offsets.tolist(), values)
            for name, (offsets, values) in self.sparse.items()
        ]
        dense = [(name, col.tolist()) for name, col in self.dense.items()]
        meta = zip(
            self.sample_id.tolist(),
            self.session_id.tolist(),
            self.timestamp.tolist(),
            self.label.tolist(),
        )
        for i, (sample_id, session_id, timestamp, label) in enumerate(meta):
            yield Sample(
                sample_id=sample_id,
                session_id=session_id,
                timestamp=timestamp,
                label=label,
                sparse={
                    name: values[offsets[i] : offsets[i + 1]]
                    for name, offsets, values in sparse
                },
                dense={name: col[i] for name, col in dense},
            )
