"""O2: CLUSTER BY session ID, SORT BY timestamp (§4.1).

The RecD data-generation ETL job rewrites each landed partition so that
every session's samples sit adjacently (enabling in-batch dedup) and in
log-timestamp order within the session (preserving temporal structure).
This is the ``CLUSTER BY`` clause of engines like Spark applied at
partition granularity, as one permutation of a block's rows
(:meth:`RowBlock.take <repro.storage.rowblock.RowBlock.take>` applies
it).
"""

from __future__ import annotations

import numpy as np

from ..core.jagged_ops import scatter

__all__ = ["cluster_order"]


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
