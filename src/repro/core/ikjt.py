"""InverseKeyedJaggedTensor (IKJT) — RecD's deduplicated batch format.

An IKJT (§4.2, Figure 5) stores, for each feature key in a *group*:

* ``values`` / ``offsets`` — the jagged slices of only the **unique** rows;

plus one ``inverse_lookup`` slice shared by the whole group, where
``inverse_lookup[i]`` points at the deduplicated row backing batch row
``i``.  A single-feature IKJT is simply a group of size one.

Grouped IKJTs cover features that are updated synchronously across
samples (the paper's cart item-ID / seller-ID example): they share one
``inverse_lookup``, which is what lets deduplicated *compute* (O7) run a
pooling module once per unique row and fan the result out.  Rows whose
group members were not synchronously updated are left un-deduplicated by
construction (the group dedup hashes all features jointly), maintaining
the invariant.

The format is lossless: :meth:`InverseKeyedJaggedTensor.to_kjt` expands
back to the exact original :class:`~repro.core.kjt.KeyedJaggedTensor`
using :func:`~repro.core.jagged_ops.jagged_index_select` (O6).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import accumulate

import numpy as np

from .dedup import dedup_groups
from .jagged import JaggedTensor
from .jagged_ops import gather_indices, gather_ranges
from .kjt import KeyedJaggedTensor

__all__ = ["InverseKeyedJaggedTensor"]


def _gather_members(
    members: Sequence[JaggedTensor], rows: Sequence[np.ndarray]
) -> list[JaggedTensor]:
    """Rows ``rows[m]`` of every ``members[m]`` (one batch size).

    Members of one value dtype are selected by a single gather over
    their values laid back to back, and come back as slices of that
    gather's output."""
    dtypes = {jt.values.dtype for jt in members}
    if len(dtypes) > 1:
        out: list[JaggedTensor] = [None] * len(members)
        for dtype in dtypes:
            which = [m for m, jt in enumerate(members) if jt.values.dtype == dtype]
            gathered = _gather_members(
                [members[m] for m in which], [rows[m] for m in which]
            )
            for m, jt in zip(which, gathered):
                out[m] = jt
        return out
    values, offsets, indices = members[0].values, members[0].offsets, rows[0]
    counts = [picked.size for picked in rows]
    if len(members) > 1:  # one member joined is that member: no copies
        # member m's row i is row ``m * stride + i`` of the joined offsets:
        # a member's last entry doubles as an empty row before the next's
        stride = offsets.size
        first_value = [0, *accumulate(jt.values.size for jt in members[:-1])]
        values = np.concatenate([jt.values for jt in members])
        offsets = np.array([jt.offsets for jt in members])
        offsets += np.array(first_value)[:, None]
        offsets = offsets.ravel()
        indices = np.concatenate(rows)
        indices += np.repeat(
            np.arange(0, len(members) * stride, stride), counts
        )
    src, out_offsets = gather_indices(offsets, indices)
    values = values[src]
    cuts = [0, *accumulate(counts)]
    ends = [int(out_offsets[row]) for row in cuts]
    return [
        JaggedTensor(values[a:b], out_offsets[lo : hi + 1] - a)
        for lo, hi, a, b in zip(cuts, cuts[1:], ends, ends[1:])
    ]


class InverseKeyedJaggedTensor:
    """Deduplicated sparse features for one feature group in one batch."""

    __slots__ = ("_tensors", "_inverse_lookup", "_batch_size")

    def __init__(
        self,
        tensors: Mapping[str, JaggedTensor],
        inverse_lookup: np.ndarray,
    ) -> None:
        if not tensors:
            raise ValueError("IKJT requires at least one key")
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
        uniq_sizes = {jt.num_rows for jt in tensors.values()}
        if len(uniq_sizes) != 1:
            raise ValueError(
                "all group members must have the same deduplicated row count, "
                f"got {sorted(uniq_sizes)}"
            )
        num_unique = uniq_sizes.pop()
        if inverse_lookup.size and (
            inverse_lookup.min() < 0 or inverse_lookup.max() >= num_unique
        ):
            raise ValueError(
                f"inverse_lookup must index [0, {num_unique}); got range "
                f"[{inverse_lookup.min()}, {inverse_lookup.max()}]"
            )
        self._tensors: dict[str, JaggedTensor] = dict(tensors)
        self._inverse_lookup = inverse_lookup
        self._batch_size = int(inverse_lookup.size)

    # -- constructors -----------------------------------------------------

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
        all groups in one pass; IKJTs come back in ``groups`` order.

        This is the feature-conversion step of O3: duplicate rows are
        detected by hashing (:func:`~repro.core.dedup.dedup_groups`) and
        only the first occurrence's values are kept.  The unique rows of
        every member of every group are gathered by one index
        computation per value dtype, so the tensors of one call are
        slices of shared buffers — buffers the call allocates, never
        ``kjt``'s.  A key may appear once across all groups.
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
            return []
        members = [[kjt[key] for key in group] for group in groups]
        deduped = dedup_groups(members)
        tensors = iter(
            _gather_members(
                [jt for group in members for jt in group],
                [
                    unique
                    for group, (unique, _) in zip(groups, deduped)
                    for _ in group
                ],
            )
        )
        return [
            cls({key: next(tensors) for key in group}, inverse)
            for group, (_, inverse) in zip(groups, deduped)
        ]

    # -- accessors --------------------------------------------------------

    @property
    def keys(self) -> list[str]:
        return list(self._tensors)

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def num_unique(self) -> int:
        return next(iter(self._tensors.values())).num_rows

    @property
    def inverse_lookup(self) -> np.ndarray:
        return self._inverse_lookup

    def __getitem__(self, key: str) -> JaggedTensor:
        """The deduplicated jagged tensor for one feature key."""
        return self._tensors[key]

    def __contains__(self, key: str) -> bool:
        return key in self._tensors

    def items(self):
        return self._tensors.items()

    @property
    def total_values(self) -> int:
        """Total deduplicated value count across the group."""
        return sum(jt.total_values for jt in self._tensors.values())

    @property
    def nbytes(self) -> int:
        """Bytes of all slices including ``inverse_lookup``."""
        return (
            sum(jt.nbytes for jt in self._tensors.values())
            + self._inverse_lookup.nbytes
        )

    @property
    def wire_nbytes(self) -> int:
        """Bytes sent over the network during SDD (§5).

        Only ``values`` and ``offsets`` travel; ``inverse_lookup`` stays
        local to each GPU — which is why IKJTs *strictly* shrink
        over-the-network tensor sizes (§4.2).
        """
        return sum(jt.nbytes for jt in self._tensors.values())

    @property
    def expanded_nbytes(self) -> int:
        """Bytes the fully-materialized (non-dedup) KJT would carry.

        Computed analytically from lengths — no expansion happens —
        so bytes-decoded vs bytes-expanded savings are reportable
        without paying for the expansion.
        """
        total = 0
        offsets_nbytes = (self._batch_size + 1) * np.dtype(np.int64).itemsize
        for jt in self._tensors.values():
            expanded_values = int(jt.lengths[self._inverse_lookup].sum())
            total += expanded_values * jt.values.itemsize + offsets_nbytes
        return total

    def dedupe_factor(self, key: str | None = None) -> float:
        """Realized dedupe factor: original values length / dedup length.

        With ``key=None``, aggregated over the whole group.
        """
        if key is not None:
            items = [(key, self._tensors[key])]
        else:
            items = list(self._tensors.items())
        orig = 0
        dedup = 0
        for _, jt in items:
            dedup += jt.total_values
            orig += int(jt.lengths[self._inverse_lookup].sum())
        if dedup == 0:
            return 1.0
        return orig / dedup

    # -- conversion ---------------------------------------------------------

    def to_kjt(self) -> KeyedJaggedTensor:
        """Expand back to the duplicate-bearing KJT via jagged index select."""
        tensors = {}
        for k, jt in self._tensors.items():
            values, offsets = gather_ranges(
                jt.values, jt.offsets, self._inverse_lookup
            )
            tensors[k] = JaggedTensor(values, offsets)
        return KeyedJaggedTensor(tensors)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InverseKeyedJaggedTensor):
            return NotImplemented
        return (
            self.keys == other.keys
            and np.array_equal(self._inverse_lookup, other._inverse_lookup)
            and all(self._tensors[k] == other._tensors[k] for k in self._tensors)
        )

    def __hash__(self):
        raise TypeError("InverseKeyedJaggedTensor is unhashable")

    def __repr__(self) -> str:
        return (
            f"InverseKeyedJaggedTensor(keys={self.keys}, "
            f"batch_size={self._batch_size}, num_unique={self.num_unique}, "
            f"dedupe_factor={self.dedupe_factor():.2f})"
        )
