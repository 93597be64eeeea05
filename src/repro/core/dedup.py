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

from collections.abc import Sequence

import numpy as np

from .jagged import JaggedTensor

__all__ = [
    "dedup_rows",
    "dedup_grouped_rows",
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

    Equality is exact and bytewise, never probabilistic: two rows are
    equal iff, in every member, they have the same length and the same
    value *bytes* — so ``0.0`` and ``-0.0`` are distinct, two ``NaN``
    rows with the same bits are equal, and members may be of any (and
    of different) value dtypes.

    A fixed number of array passes, none per row: each row's key is its
    lengths and zero-padded value bytes across the members, and one
    ``np.unique`` over the keys finds the duplicates.  The key matrix is
    ``num_rows`` x the members' longest rows, so one very long row
    widens every row's key.
    """
    if not tensors:
        raise ValueError("need at least one tensor in the group")
    n = tensors[0].num_rows
    for t in tensors[1:]:
        if t.num_rows != n:
            raise ValueError("group members must share a batch size")
    columns = []
    for t in tensors:
        columns.append(t.lengths.reshape(n, 1).view(np.uint8))
        columns.append(t.to_dense().view(np.uint8))
    keys = np.concatenate(columns, axis=1)
    _, first, inverse = np.unique(
        keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    # np.unique numbers the distinct rows in key order; renumber them in
    # the order their first copies appear
    unique_indices = np.sort(first)
    return unique_indices, np.searchsorted(unique_indices, first[inverse])


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
