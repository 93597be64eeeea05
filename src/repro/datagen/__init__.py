"""Synthetic session-centric DLRM trace generation (substitute for the
paper's production inference logs; see DESIGN.md)."""

from .characterization import (
    CharacterizationReport,
    FeatureDuplication,
    batch_samples_per_session,
    characterization_schema,
    characterize_schema,
    simulate_feature_duplication,
)
from .generator import TraceConfig, TraceGenerator, generate_partition
from .schema import (
    DatasetSchema,
    DenseFeatureSpec,
    FeatureKind,
    PoolingKind,
    SparseFeatureSpec,
)
from .session import Sample, sample_session_sizes, session_size_stats
from .workloads import WORKLOADS, RMWorkload, all_workloads, rm1, rm2, rm3

__all__ = [
    "DatasetSchema",
    "DenseFeatureSpec",
    "SparseFeatureSpec",
    "FeatureKind",
    "PoolingKind",
    "Sample",
    "sample_session_sizes",
    "session_size_stats",
    "TraceConfig",
    "TraceGenerator",
    "generate_partition",
    "RMWorkload",
    "rm1",
    "rm2",
    "rm3",
    "WORKLOADS",
    "all_workloads",
    "CharacterizationReport",
    "FeatureDuplication",
    "characterize_schema",
    "characterization_schema",
    "simulate_feature_duplication",
    "batch_samples_per_session",
]
