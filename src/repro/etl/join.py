"""ETL join: raw feature logs x event logs -> labeled training samples.

Streaming/batch engines (Spark in the paper, §2.1) ingest the two Scribe
categories and join them on request ID to produce labeled samples.  A
feature record without an event (the impression never resolved) or an
event without features is dropped, as a production join would.

The join is a rule over id columns (:func:`join_rows`): the drained
feature messages as one block, the events as one structured array.
"""

from __future__ import annotations

import numpy as np

from ..storage.rowblock import RowBlock

__all__ = ["join_rows"]


def join_rows(
    features: RowBlock, events: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hash-join feature rows to events on request id.

    Args:
        features: the feature messages (``sample_id`` = request id).
        events: the event messages, a structured array with
            ``request_id`` and ``label`` fields.
        rows: the feature rows to join, in output order.

    Returns:
        ``(kept, labels)`` — the entries of ``rows`` that have an event,
        order preserved, and each one's label.  When a request id has
        several events the last one wins.
    """
    if events.size == 0:
        return rows[:0], np.empty(0, dtype=np.int64)
    # a stable sort keeps equal ids in arrival order, so the slot just
    # left of the right-hand insertion point is the last arrival
    by_id = np.argsort(events["request_id"], kind="stable")
    ids = events["request_id"][by_id]
    wanted = features.sample_id[rows]
    slot = np.searchsorted(ids, wanted, side="right") - 1
    matched = ids[slot] == wanted  # slot -1 wraps to the largest id: no match
    return rows[matched], events["label"][by_id[slot[matched]]]
