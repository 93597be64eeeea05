"""The data-generation ETL job: Scribe -> join -> (cluster) -> partition.

Mirrors §2.1/§4.1: a batch engine ingests the feature and event log
categories from Scribe, joins them into labeled samples, optionally
applies RecD's CLUSTER BY session (O2) and a downsampling policy (§7),
and hands the ordered row set to storage for landing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datagen.session import Sample
from ..scribe.bus import ScribeCluster
from ..scribe.message import EventLogRecord, FeatureLogRecord
from .cluster import cluster_by_session
from .downsample import downsample_per_sample, downsample_per_session
from .join import join_logs

__all__ = ["ETLConfig", "ETLJob", "ETLResult"]


@dataclass(frozen=True)
class ETLConfig:
    """Behaviour toggles of the landing job."""

    #: O2: rewrite the partition clustered by session, sorted by timestamp
    cluster: bool = False
    #: fraction of data to keep; 1.0 disables downsampling
    keep_rate: float = 1.0
    #: "session" (RecD, §7) or "sample" (baseline) downsampling granularity
    downsample_by: str = "sample"
    seed: int = 0


@dataclass
class ETLResult:
    """The landed row set plus ingest accounting."""

    samples: list[Sample]
    ingest_bytes: int
    joined_rows: int
    dropped_rows: int


class ETLJob:
    """One landing job for one (hourly) partition."""

    def __init__(self, config: ETLConfig | None = None):
        self.config = config or ETLConfig()

    def run_from_records(
        self,
        features: list[FeatureLogRecord],
        events: list[EventLogRecord],
        ingest_bytes: int = 0,
    ) -> ETLResult:
        samples = join_logs(features, events)
        joined = len(samples)
        cfg = self.config
        if cfg.keep_rate < 1.0:
            if cfg.downsample_by == "session":
                samples = downsample_per_session(samples, cfg.keep_rate, cfg.seed)
            elif cfg.downsample_by == "sample":
                samples = downsample_per_sample(samples, cfg.keep_rate, cfg.seed)
            else:
                raise ValueError(
                    f"unknown downsample_by: {cfg.downsample_by!r}"
                )
        if cfg.cluster:
            samples = cluster_by_session(samples)
        return ETLResult(
            samples=samples,
            ingest_bytes=ingest_bytes,
            joined_rows=joined,
            dropped_rows=joined - len(samples),
        )

    def run_from_payloads(
        self, payloads: list[bytes], ingest_bytes: int
    ) -> ETLResult:
        """Land one batch of raw Scribe messages, both categories mixed.

        Messages are length-discriminated: event records have a fixed
        32-byte frame; anything longer is a feature record.
        """
        features: list[FeatureLogRecord] = []
        events: list[EventLogRecord] = []
        event_size = EventLogRecord._FMT.size
        for payload in payloads:
            if len(payload) == event_size:
                events.append(EventLogRecord.deserialize(payload))
            else:
                features.append(FeatureLogRecord.deserialize(payload))
        # Restore inference-time order: Scribe shard order is arbitrary.
        features.sort(key=lambda r: (r.timestamp, r.request_id))
        return self.run_from_records(features, events, ingest_bytes)

    def run_from_scribe(self, cluster: ScribeCluster) -> ETLResult:
        """Ingest everything on a Scribe cluster and land it."""
        # read before read_all(): flushing the shards' partial buffers
        # grows the cluster's compressed-byte count
        ingest_bytes = cluster.etl_ingest_bytes
        return self.run_from_payloads(cluster.read_all(), ingest_bytes)
