"""ETL join: raw feature logs x event logs -> labeled training samples.

Streaming/batch engines (Spark in the paper, §2.1) ingest the two Scribe
categories and join them on request ID to produce labeled samples.  A
feature record without an event (the impression never resolved) or an
event without features is dropped, as a production join would.

The join is a rule over id columns (:func:`join_rows`); the row-list
helper :func:`join_logs` applies the same rule.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..datagen.session import Sample
from ..scribe.message import EventLogRecord, FeatureLogRecord, parse_payloads
from ..storage.rowblock import RowBlock

__all__ = ["join_logs", "join_rows", "records_as_columns"]


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


def records_as_columns(
    features: Iterable[FeatureLogRecord], events: Iterable[EventLogRecord]
) -> tuple[RowBlock, np.ndarray]:
    """Record objects as the columns their wire bytes parse to
    (:func:`~repro.scribe.message.parse_payloads`), each stream in the
    order given."""
    return parse_payloads([r.serialize() for r in (*features, *events)])


def join_logs(
    features: Iterable[FeatureLogRecord],
    events: Iterable[EventLogRecord],
) -> list[Sample]:
    """Hash-join the two log streams into training samples.

    Output order follows the *feature* stream (inference-time order),
    matching the baseline pipeline's "samples ordered by inference time"
    behaviour that O2 exists to change.
    """
    block, event_columns = records_as_columns(features, events)
    kept, labels = join_rows(block, event_columns, np.arange(len(block)))
    joined = block.take(kept)
    joined.label = labels
    return list(joined)
