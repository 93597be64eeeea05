"""Duplicate detection for sparse feature batches.

Readers detect duplicate feature values "via hashing" during feature
conversion (§6.3).  This module implements that detection for a single
feature and for *grouped* features (which must match on every feature in
the group simultaneously — the shared ``inverse_lookup`` invariant of §4.2).

The canonical output is a pair ``(unique_indices, inverse_lookup)``:

* ``unique_indices`` — batch-row indices of the first occurrence of each
  distinct value (in first-appearance order);
* ``inverse_lookup`` — for every batch row, the position *within
  unique_indices* of its canonical copy.

so ``rows[unique_indices][inverse_lookup] == rows`` element-wise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .jagged import JaggedTensor
from .kjt import pack

#: bytes per key column; every member's columns start on a word boundary
_WORD = 8

__all__ = [
    "dedup_rows",
    "dedup_grouped_rows",
    "dedup_groups",
    "dedup_flat",
    "exact_duplicate_fraction",
    "partial_duplicate_fraction",
    "measured_dedupe_factor",
]


def dedup_rows(jt: JaggedTensor) -> tuple[np.ndarray, np.ndarray]:
    """Find duplicate rows of one jagged tensor via content hashing:
    the one-member case of :func:`dedup_grouped_rows`."""
    return dedup_grouped_rows([jt])


def dedup_grouped_rows(
    tensors: Sequence[JaggedTensor],
) -> tuple[np.ndarray, np.ndarray]:
    """Dedup rows across a *group* of features updated synchronously.

    Two batch rows collapse only when **every** feature in the group has
    identical values for both rows.  Rows whose group members were not
    synchronously updated therefore stay un-deduplicated, preserving the
    shared-``inverse_lookup`` invariant (§4.2, Grouped IKJTs).

    The one-group case of :func:`dedup_groups`, which states the
    equality rule.
    """
    return dedup_groups([tensors])[0]


def dedup_groups(
    groups: Sequence[Sequence[JaggedTensor]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dedup every group of one batch at once: one
    ``(unique_indices, inverse_lookup)`` pair per group, in order.

    Equality is exact and bytewise, never probabilistic: two rows are
    equal iff, in every member of the group, they have the same length
    and the same value *bytes* — so ``0.0`` and ``-0.0`` are distinct,
    two ``NaN`` rows with the same bits are equal, and members may be of
    any (and of different) value dtypes.

    The members are packed into one buffer and keyed by
    :func:`dedup_flat`; members of mixed dtypes go in as their bytes.
    """
    if not all(groups):
        raise ValueError("need at least one tensor in the group")
    if not groups:
        return []
    members = [t for group in groups for t in group]
    n = members[0].num_rows
    for t in members:
        if t.num_rows != n:
            raise ValueError("group members must share a batch size")
    columns = [(t.offsets, t.values) for t in members]
    if len({v.dtype for _, v in columns}) > 1:
        # a row's length then counts units of a size dividing every value
        unit = math.gcd(_WORD, *(v.itemsize for _, v in columns))
        columns = [
            (o * (v.itemsize // unit), np.ascontiguousarray(v).view(f"u{unit}"))
            for o, v in columns
        ]
    return dedup_flat(pack(columns), [len(group) for group in groups])


def dedup_flat(
    flat: JaggedTensor, group_sizes: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`dedup_groups` over one ``M·n``-row buffer of ``M`` members
    (member ``m`` owns rows ``m·n … (m+1)·n``, a KJT's layout) whose
    groups come one after another, ``group_sizes[g]`` members each.

    A fixed number of array passes, none per row and none per member: a
    row's key is each member's ``[length | zero-padded value bytes]``
    side by side, the members of all groups share one key matrix (a
    group is a column range of it), one scatter writes the whole buffer,
    and one sort per group brings equal keys together.  A member is
    padded to *its own* longest row, so one very long row widens that
    member's columns and no other's.
    """
    members = sum(group_sizes)
    n = flat.num_rows // members if members else 0
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return [(empty, empty.copy()) for _ in group_sizes]
    keys, base = _key_matrix(flat, members)
    every_row = np.arange(n)
    results = []
    stop = 0
    for size in group_sizes:
        start, stop = stop, stop + size
        block = keys[:, base[start] : base[stop]]
        row_keys = block.view(f"V{block.shape[1] * _WORD}")[:, 0]
        # a stable sort keeps equal rows in batch order, so the leftmost
        # sorted copy of a row's key is its first copy in the batch
        order = row_keys.argsort(kind="stable")
        first_copy = order[row_keys.searchsorted(row_keys, sorter=order)]
        unique_indices = np.flatnonzero(first_copy == every_row)
        results.append((unique_indices, unique_indices.searchsorted(first_copy)))
    return results


def _key_matrix(flat: JaggedTensor, members: int) -> tuple[np.ndarray, list[int]]:
    """The ``(rows, words)`` int64 matrix whose row ``i`` holds, member
    after member, ``[length | zero-padded value bytes]`` of row ``i``,
    and the first column of each member (plus the total, last)."""
    values = np.ascontiguousarray(flat.values)
    # positions count units of the largest size dividing a value and a word
    unit = math.gcd(values.itemsize, _WORD)
    per_value, per_word = values.itemsize // unit, _WORD // unit
    starts = flat.offsets[:-1].reshape(members, -1)
    lengths = flat.lengths.reshape(members, -1)
    n = lengths.shape[1]
    # a member's columns: its length, then its longest row's bytes rounded
    # up to whole words (the pad bytes are zero in every row)
    base = np.zeros(members + 1, dtype=np.int64)
    np.cumsum(1 - (-lengths.max(axis=1) * values.itemsize // _WORD), out=base[1:])
    width = int(base[-1])
    keys = np.zeros((n, width), dtype=np.int64)
    keys[:, base[:-1]] = lengths.T
    # unit k of the buffer lands at k + (where its row's value columns
    # start in ``keys`` - where its row starts in the buffer)
    delta = (base[:-1, None] + 1) * per_word - starts * per_value
    delta += np.arange(0, n * width * per_word, width * per_word)
    dest = np.repeat(delta.ravel(), lengths.ravel() * per_value)
    dest += np.arange(dest.size)
    keys.reshape(-1).view(f"u{unit}")[dest] = values.view(f"u{unit}")
    return keys, base.tolist()


# ---------------------------------------------------------------------------
# Characterization helpers (Section 3 of the paper)
# ---------------------------------------------------------------------------


def exact_duplicate_fraction(
    rows: Sequence[Sequence[int]], session_ids: Sequence[int]
) -> float:
    """Fraction of samples whose feature value exactly matches another
    sample *of the same session* (Fig 4, left).

    A sample counts as a duplicate if at least one other sample in its
    session carries the identical list; with ``k`` identical copies in a
    session, ``k - 1`` of them are duplicates (the paper's 15.5/16.5
    worked example).
    """
    if len(rows) != len(session_ids):
        raise ValueError("rows and session_ids must align")
    # len(), not truthiness: ``rows`` may be a numpy array, whose bool()
    # is ambiguous for more than one row.
    if len(rows) == 0:
        return 0.0
    counts: dict[tuple[int, bytes], int] = {}
    for sid, row in zip(session_ids, rows):
        key = (sid, np.asarray(row, dtype=np.int64).tobytes())
        counts[key] = counts.get(key, 0) + 1
    dup = sum(c - 1 for c in counts.values())
    return dup / len(rows)


def partial_duplicate_fraction(
    rows: Sequence[Sequence[int]], session_ids: Sequence[int]
) -> float:
    """Fraction of individual list IDs duplicated within a session (Fig 4,
    right).

    Counted per ID value: within one session, each extra occurrence of an
    ID beyond its first is a duplicate (the paper's 99/200 = 49.5% worked
    example for an appended-and-shifted list).
    """
    if len(rows) != len(session_ids):
        raise ValueError("rows and session_ids must align")
    per_session: dict[int, dict[int, int]] = {}
    total = 0
    for sid, row in zip(session_ids, rows):
        bucket = per_session.setdefault(sid, {})
        for v in np.asarray(row, dtype=np.int64):
            bucket[int(v)] = bucket.get(int(v), 0) + 1
            total += 1
    if total == 0:
        return 0.0
    dup = sum(
        c - 1 for bucket in per_session.values() for c in bucket.values()
    )
    return dup / total


def measured_dedupe_factor(jt: JaggedTensor) -> float:
    """Observed ratio of original to deduplicated ``values`` length.

    The empirical counterpart of the analytical ``DedupeFactor(f)`` model
    in :mod:`repro.core.analytics`; returns 1.0 for an all-unique batch.
    """
    if jt.total_values == 0:
        return 1.0
    unique_indices, _ = dedup_rows(jt)
    dedup_len = int(jt.lengths[unique_indices].sum())
    if dedup_len == 0:
        return 1.0
    return jt.total_values / dedup_len
