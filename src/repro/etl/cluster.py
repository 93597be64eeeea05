"""O2: CLUSTER BY session ID, SORT BY timestamp (§4.1).

The RecD data-generation ETL job rewrites each landed partition so that
every session's samples sit adjacently (enabling in-batch dedup) and in
log-timestamp order within the session (preserving temporal structure).
This is the ``CLUSTER BY`` clause of engines like Spark applied at
partition granularity.
"""

from __future__ import annotations

import numpy as np

from ..core.jagged_ops import scatter
from ..datagen.session import Sample

__all__ = ["cluster_by_session", "cluster_order", "is_clustered"]


def cluster_order(session_id: np.ndarray, timestamp: np.ndarray) -> np.ndarray:
    """The permutation that groups rows by session and sorts each
    session by timestamp (stable: ties keep their input order).

    Sessions appear in order of their earliest timestamp so the clustered
    partition still reads roughly chronologically (fresh partitions land
    hourly; intra-hour session order is irrelevant to training).
    """
    sessions, inverse = np.unique(session_id, return_inverse=True)
    first_ts = np.full(sessions.size, np.inf)
    scatter(np.minimum, first_ts, inverse, timestamp)
    return np.lexsort((timestamp, session_id, first_ts[inverse]))


def cluster_by_session(samples: list[Sample]) -> list[Sample]:
    """:func:`cluster_order` applied to a list of rows."""
    order = cluster_order(
        np.array([s.session_id for s in samples], dtype=np.int64),
        np.array([s.timestamp for s in samples], dtype=np.float64),
    )
    return [samples[i] for i in order.tolist()]


def is_clustered(samples: list[Sample]) -> bool:
    """True when every session's samples form one contiguous run."""
    seen: set[int] = set()
    prev: int | None = None
    for s in samples:
        if s.session_id != prev:
            if s.session_id in seen:
                return False
            seen.add(s.session_id)
            prev = s.session_id
    return True
