"""Reader tier: Fill -> Convert (O3) -> Process (O4) -> trainers."""

from .autoscale import ReaderAutoscaler, TierPlan, readers_required
from .batch import Batch
from .config import DataLoaderConfig
from .convert import ConvertStats, convert_rows
from .costmodel import ReaderCostModel
from .fill import FillStats, fill_batches
from .fleet import FleetFaults, FleetReport, ReaderFleet
from .node import ReaderNode, ReaderReport
from .preprocess import (
    TRANSFORM_REGISTRY,
    ClampValues,
    HashModulo,
    ProcessStats,
    SparseTransform,
    TruncateLength,
    apply_transforms,
)
from .shard import RowRangeShard, covering_files, plan_epoch, plan_shards
from .tier_scheduler import SharedReaderTier, TierJob, allocate_workers

__all__ = [
    "Batch",
    "DataLoaderConfig",
    "convert_rows",
    "ConvertStats",
    "ReaderCostModel",
    "fill_batches",
    "FillStats",
    "FleetFaults",
    "FleetReport",
    "ReaderAutoscaler",
    "ReaderFleet",
    "ReaderNode",
    "ReaderReport",
    "RowRangeShard",
    "covering_files",
    "plan_epoch",
    "plan_shards",
    "SparseTransform",
    "HashModulo",
    "ClampValues",
    "TruncateLength",
    "ProcessStats",
    "TRANSFORM_REGISTRY",
    "apply_transforms",
    "readers_required",
    "TierPlan",
    "SharedReaderTier",
    "TierJob",
    "allocate_workers",
]
