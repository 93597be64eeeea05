"""Scribe substrate: sharded, buffered, compressing log transport (O1)."""

from .bus import DEFAULT_BLOCK_BYTES, ScribeCluster, ScribeShard, ScribeStats
from .message import (
    EventLogRecord,
    FeatureLogRecord,
    parse_payloads,
    split_sample,
)
from .sharding import ShardKeyPolicy, consistent_hash, route

__all__ = [
    "ScribeCluster",
    "ScribeShard",
    "ScribeStats",
    "DEFAULT_BLOCK_BYTES",
    "FeatureLogRecord",
    "EventLogRecord",
    "split_sample",
    "parse_payloads",
    "ShardKeyPolicy",
    "consistent_hash",
    "route",
]
