"""InverseKeyedJaggedTensor (IKJT) — RecD's deduplicated batch format.

An IKJT (§4.2, Figure 5) stores, for the feature keys of one *group*:

* ``values`` / ``offsets`` — the jagged slices of only the **unique**
  rows, in the :class:`~repro.core.kjt.KeyedJaggedTensor` layout: one
  jagged tensor over ``K·U`` rows for ``K`` keys and ``U`` unique rows,
  key ``k`` owning rows ``k·U … (k+1)·U``, with one value dtype;

plus one ``inverse_lookup`` slice shared by the whole group, where
``inverse_lookup[i]`` points at the deduplicated row backing batch row
``i``.  A single-feature IKJT is simply a group of size one.
``ikjt[key]`` is a zero-copy view of the key's unique rows, and
:attr:`InverseKeyedJaggedTensor.flat` the whole ``K·U``-row tensor;
:meth:`~InverseKeyedJaggedTensor.gather_groups` puts a batch's groups
in one buffer, each group's IKJT a view of its row range.  Byte
accounting is per key as it always was:
:attr:`~InverseKeyedJaggedTensor.wire_nbytes` is
``values.nbytes + K·(U+1)·8`` and
:attr:`~InverseKeyedJaggedTensor.expanded_nbytes` the expanded values
plus ``K·(B+1)·8``.

Grouped IKJTs cover features that are updated synchronously across
samples (the paper's cart item-ID / seller-ID example): they share one
``inverse_lookup``, which is what lets deduplicated *compute* (O7) run a
pooling module once per unique row and fan the result out.  Rows whose
group members were not synchronously updated are left un-deduplicated by
construction (the group dedup hashes all features jointly), maintaining
the invariant.

The format is lossless: :meth:`InverseKeyedJaggedTensor.to_kjt` expands
back to the exact original :class:`~repro.core.kjt.KeyedJaggedTensor`
with one :func:`~repro.core.jagged_ops.gather_ranges` (O6's kernel).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .dedup import dedup_flat
from .jagged import JaggedTensor
from .jagged_ops import gather_indices, gather_ranges
from .kjt import _OFFSET, KeyedJaggedTensor

__all__ = ["InverseKeyedJaggedTensor"]


class InverseKeyedJaggedTensor:
    """Deduplicated sparse features for one feature group in one batch."""

    __slots__ = ("_unique", "_inverse_lookup")

    def __init__(
        self,
        tensors: Mapping[str, JaggedTensor],
        inverse_lookup: np.ndarray,
    ) -> None:
        """Pack ``key -> JaggedTensor`` of the unique rows (one row
        count, one dtype) once."""
        self._adopt(KeyedJaggedTensor(tensors), inverse_lookup)

    def _adopt(self, unique: KeyedJaggedTensor, inverse_lookup) -> None:
        inverse_lookup = np.asarray(inverse_lookup)
        # casting would truncate a float index instead of rejecting it
        if inverse_lookup.size and inverse_lookup.dtype.kind not in "iu":
            raise ValueError(
                "inverse_lookup must be an integer array, got "
                f"{inverse_lookup.dtype}"
            )
        inverse_lookup = inverse_lookup.astype(np.int64, copy=False)
        if inverse_lookup.ndim != 1:
            raise ValueError("inverse_lookup must be 1-D")
        num_unique = unique.batch_size
        # one pass: as unsigned, a negative index is a huge one
        if inverse_lookup.size and inverse_lookup.view(np.uint64).max() >= num_unique:
            raise ValueError(
                f"inverse_lookup must index [0, {num_unique}); got range "
                f"[{inverse_lookup.min()}, {inverse_lookup.max()}]"
            )
        self._unique = unique
        self._inverse_lookup = inverse_lookup

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_flat(
        cls, keys: Sequence[str], flat: JaggedTensor, inverse_lookup: np.ndarray
    ) -> "InverseKeyedJaggedTensor":
        """Wrap a ``K·U``-row tensor of unique rows (key ``k`` owns rows
        ``k·U … (k+1)·U``) without copying it."""
        ikjt = cls.__new__(cls)
        ikjt._adopt(KeyedJaggedTensor.from_flat(keys, flat), inverse_lookup)
        return ikjt

    @classmethod
    def from_kjt(
        cls, kjt: KeyedJaggedTensor, keys: Sequence[str] | None = None
    ) -> "InverseKeyedJaggedTensor":
        """Deduplicate ``keys`` of ``kjt`` into one (grouped) IKJT: the
        one-group case of :meth:`from_groups`."""
        return cls.from_groups(kjt, [kjt.keys if keys is None else keys])[0]

    @classmethod
    def from_groups(
        cls, kjt: KeyedJaggedTensor, groups: Sequence[Sequence[str]]
    ) -> "list[InverseKeyedJaggedTensor]":
        """Deduplicate each group of ``kjt``'s keys into its own IKJT,
        all groups in one pass; IKJTs come back in ``groups`` order, as
        views of :meth:`gather_groups`' one buffer."""
        return cls.split(*cls.gather_groups(kjt, groups))

    @staticmethod
    def gather_groups(
        kjt: KeyedJaggedTensor, groups: Sequence[Sequence[str]]
    ) -> "tuple[JaggedTensor, list[tuple[list[str], int, np.ndarray]]]":
        """The unique rows of every group of ``kjt``'s keys, group after
        group in one buffer the call allocates (never ``kjt``'s), and its
        layout: each group's ``(keys, num_unique, inverse_lookup)``, as
        :meth:`split` cuts it into IKJTs.

        This is the feature-conversion step of O3: duplicate rows are
        detected by hashing (:func:`~repro.core.dedup.dedup_flat` keys
        every group straight from ``kjt``'s buffer) and only the first
        occurrence's values are gathered, by one index computation.  A
        key may appear once across all groups; groups that are not
        ``kjt``'s keys in order are :meth:`KeyedJaggedTensor.select`-ed
        first.
        """
        groups = [list(group) for group in groups]
        if not all(groups):
            raise ValueError("need at least one key to deduplicate")
        keys = [key for group in groups for key in group]
        for key in keys:
            if key not in kjt:
                raise ValueError(f"key {key!r} is not in the KJT")
        if len(set(keys)) < len(keys):
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise ValueError(f"key {repeated!r} is named more than once")
        if not groups:
            return JaggedTensor.empty(), []
        if keys != kjt.keys:
            kjt = kjt.select(keys)
        flat, sizes = kjt.flat, [len(group) for group in groups]
        deduped = dedup_flat(flat, sizes)
        # key k's unique row i is row k·B + i of the buffer
        first_row = np.split(np.arange(len(keys)) * kjt.batch_size, np.cumsum(sizes)[:-1])
        rows = [(f[:, None] + u).ravel() for f, (u, _) in zip(first_row, deduped)]
        src, offsets = gather_indices(flat.offsets, np.concatenate(rows))
        layout = [(g, u.size, inverse) for g, (u, inverse) in zip(groups, deduped)]
        return JaggedTensor(flat.values[src], offsets), layout

    @classmethod
    def split(
        cls, flat: JaggedTensor, layout: Sequence[tuple]
    ) -> "list[InverseKeyedJaggedTensor]":
        """One IKJT per ``(keys, num_unique, inverse_lookup)`` of
        ``layout``, each a view of the next ``len(keys)·num_unique``
        rows of ``flat``."""
        out, start = [], 0
        for keys, num_unique, inverse in layout:
            stop = start + len(keys) * num_unique
            out.append(cls.from_flat(keys, flat.slice_rows(start, stop), inverse))
            start = stop
        return out

    # -- accessors --------------------------------------------------------

    @property
    def keys(self) -> list[str]:
        return self._unique.keys

    @property
    def batch_size(self) -> int:
        return int(self._inverse_lookup.size)

    @property
    def num_unique(self) -> int:
        return self._unique.batch_size

    @property
    def inverse_lookup(self) -> np.ndarray:
        return self._inverse_lookup

    @property
    def flat(self) -> JaggedTensor:
        """The ``K·U``-row tensor of unique rows behind every key's view."""
        return self._unique.flat

    def __getitem__(self, key: str) -> JaggedTensor:
        """The deduplicated jagged tensor for one feature key (a view)."""
        return self._unique[key]

    def __contains__(self, key: str) -> bool:
        return key in self._unique

    def items(self):
        """``(key, view)`` pairs in key order."""
        return self._unique.items()

    @property
    def total_values(self) -> int:
        """Total deduplicated value count across the group."""
        return self._unique.total_values

    @property
    def nbytes(self) -> int:
        """Bytes of all slices including ``inverse_lookup``."""
        return self._unique.nbytes + self._inverse_lookup.nbytes

    @property
    def wire_nbytes(self) -> int:
        """Bytes sent over the network during SDD (§5).

        Only ``values`` and ``offsets`` travel; ``inverse_lookup`` stays
        local to each GPU — which is why IKJTs *strictly* shrink
        over-the-network tensor sizes (§4.2).
        """
        return self._unique.nbytes

    def _expanded_values(self) -> int:
        """Values of the fully-materialized KJT, from lengths alone."""
        lengths = self.flat.lengths.reshape(len(self.keys), self.num_unique)
        return int(lengths[:, self._inverse_lookup].sum())

    @property
    def expanded_nbytes(self) -> int:
        """Bytes the fully-materialized (non-dedup) KJT would carry.

        Computed analytically from lengths — no expansion happens —
        so bytes-decoded vs bytes-expanded savings are reportable
        without paying for the expansion.
        """
        return (
            self._expanded_values() * self.flat.values.itemsize
            + len(self.keys) * (self.batch_size + 1) * _OFFSET
        )

    def dedupe_factor(self, key: str | None = None) -> float:
        """Realized dedupe factor: original values length / dedup length.

        With ``key=None``, aggregated over the whole group.
        """
        if key is None:
            dedup, orig = self.total_values, self._expanded_values()
        else:
            jt = self[key]
            dedup = jt.total_values
            orig = int(jt.lengths[self._inverse_lookup].sum())
        if dedup == 0:
            return 1.0
        return orig / dedup

    # -- conversion ---------------------------------------------------------

    def to_kjt(self) -> KeyedJaggedTensor:
        """Expand back to the duplicate-bearing KJT: one jagged index
        select of every key's rows."""
        flat = self.flat
        first_row = np.arange(len(self.keys)) * self.num_unique
        rows = (first_row[:, None] + self._inverse_lookup).ravel()
        values, offsets = gather_ranges(flat.values, flat.offsets, rows)
        return KeyedJaggedTensor.from_flat(self.keys, JaggedTensor(values, offsets))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InverseKeyedJaggedTensor):
            return NotImplemented
        return self._unique == other._unique and np.array_equal(
            self._inverse_lookup, other._inverse_lookup
        )

    def __hash__(self):
        raise TypeError("InverseKeyedJaggedTensor is unhashable")

    def __repr__(self) -> str:
        return (
            f"InverseKeyedJaggedTensor(keys={self.keys}, "
            f"batch_size={self.batch_size}, num_unique={self.num_unique}, "
            f"dedupe_factor={self.dedupe_factor():.2f})"
        )
