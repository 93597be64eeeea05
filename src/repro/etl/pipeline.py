"""The data-generation ETL job: Scribe -> join -> (cluster) -> partition.

Mirrors §2.1/§4.1: a batch engine ingests the feature and event log
categories from Scribe, joins them into labeled samples, optionally
applies RecD's CLUSTER BY session (O2), and hands the ordered rows to
storage for landing as one :class:`~repro.storage.rowblock.RowBlock`.
The §7 downsampling policies are :mod:`repro.etl.downsample`'s masks,
which the ``downsampling`` figure applies to a landed trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scribe.bus import ScribeCluster
from ..scribe.message import parse_payloads
from ..storage.rowblock import RowBlock
from .cluster import cluster_order
from .join import join_rows

__all__ = ["ETLConfig", "ETLJob", "ETLResult"]


@dataclass(frozen=True)
class ETLConfig:
    """Behaviour toggles of the landing job."""

    #: O2: rewrite the partition clustered by session, sorted by timestamp
    cluster: bool = False


@dataclass
class ETLResult:
    """The landed row set plus ingest accounting."""

    #: the landed rows, in landing order
    samples: RowBlock
    ingest_bytes: int


class ETLJob:
    """One landing job for one (hourly) partition.

    The messages become columns once (:func:`~repro.scribe.message.
    parse_payloads`); sort, join and ``CLUSTER BY`` then only ever
    re-index — each narrows or permutes one array of feature row
    numbers — and a single :meth:`RowBlock.take
    <repro.storage.rowblock.RowBlock.take>` moves the values.
    """

    def __init__(self, config: ETLConfig | None = None):
        self.config = config or ETLConfig()

    def _land(
        self,
        features: RowBlock,
        events: np.ndarray,
        rows: np.ndarray,
        ingest_bytes: int,
    ) -> ETLResult:
        """Join the feature ``rows`` (given in output order) to their
        events, then cluster as configured."""
        rows, labels = join_rows(features, events, rows)
        if self.config.cluster:
            order = cluster_order(
                features.session_id[rows], features.timestamp[rows]
            )
            rows, labels = rows[order], labels[order]
        samples = features.take(rows)
        samples.label = labels
        return ETLResult(samples=samples, ingest_bytes=ingest_bytes)

    def run_from_payloads(
        self, payloads: list[bytes], ingest_bytes: int
    ) -> ETLResult:
        """Land one batch of raw Scribe messages, both categories mixed
        (length-discriminated, see :func:`~repro.scribe.message.
        parse_payloads`)."""
        features, events = parse_payloads(payloads)
        # Restore inference-time order: Scribe shard order is arbitrary.
        by_time = np.lexsort((features.sample_id, features.timestamp))
        return self._land(features, events, by_time, ingest_bytes)

    def run_from_scribe(self, cluster: ScribeCluster) -> ETLResult:
        """Ingest everything on a Scribe cluster and land it."""
        # read before read_all(): flushing the shards' partial buffers
        # grows the cluster's compressed-byte count
        ingest_bytes = cluster.etl_ingest_bytes
        return self.run_from_payloads(cluster.read_all(), ingest_bytes)
