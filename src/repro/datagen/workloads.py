"""Representative workloads: RM1, RM2, RM3 (§6.1), scaled to laptop size.

The paper evaluates three industrial DLRMs:

=====  ==========  =========  ==============================  ==========
RM     params      EMB bytes  dedup features                  batch size
=====  ==========  =========  ==============================  ==========
RM1    O(1e9)      O(10GB)    16 seq in 5 groups + ~100 ewise 2048->6144
RM2    O(100e9)    O(100GB)   6 seq in 1 group + ~100 ewise   2048
RM3    O(100e9)    O(100GB)   11 seq in 1 group + ~100 ewise  1152->2048
=====  ==========  =========  ==============================  ==========

on 48/48/64 A100s.  We keep every *structural* property — the number of
sequence features and their grouping, which model uses transformer
pooling (RM1), the batch-size growth RecD enables, the relative model
mix — and scale the magnitudes (batch, GPU count, embedding dims, feature
counts) down by ``scale`` so an experiment runs in seconds on a CPU.
DedupeFactor for deduplicated features lands in the paper's 4–15 band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .schema import (
    DatasetSchema,
    DenseFeatureSpec,
    FeatureKind,
    PoolingKind,
    SparseFeatureSpec,
)

__all__ = ["RMWorkload", "rm1", "rm2", "rm3", "WORKLOADS", "all_workloads"]


@dataclass(frozen=True)
class RMWorkload:
    """A representative model + its training configuration."""

    name: str
    schema: DatasetSchema
    #: per-iteration global batch size before RecD
    baseline_batch_size: int
    #: batch size RecD's freed GPU memory allows (§6.1)
    recd_batch_size: int
    num_gpus: int
    embedding_dim: int
    #: dense-feature MLP sizes (bottom) and prediction MLP sizes (top)
    bottom_mlp: tuple[int, ...] = (64, 32)
    top_mlp: tuple[int, ...] = (64, 32, 1)
    #: feature groups to deduplicate (List[List[key]], the DataLoader field)
    dedup_groups: tuple[tuple[str, ...], ...] = field(default_factory=tuple)

    @property
    def dedup_feature_names(self) -> list[str]:
        return [name for group in self.dedup_groups for name in group]


def _elementwise_features(
    count: int, prefix: str = "ew", avg_length: int = 8
) -> list[SparseFeatureSpec]:
    """The ~100 element-wise (sum/max) pooled features every RM dedups,
    scaled down; mostly user features with high d(f)."""
    specs = []
    for i in range(count):
        user = i % 4 != 3  # 3 of 4 are user features, matching Fig 4's mix
        specs.append(
            SparseFeatureSpec(
                name=f"{prefix}_{i}",
                kind=FeatureKind.USER if user else FeatureKind.ITEM,
                avg_length=avg_length,
                change_prob=0.06 if user else 0.9,
                cardinality=50_000,
                pooling=PoolingKind.SUM if i % 2 == 0 else PoolingKind.MAX,
            )
        )
    return specs


def _sequence_features(
    count: int,
    groups: int,
    pooling: PoolingKind,
    avg_length: int,
    prefix: str = "seq",
) -> list[SparseFeatureSpec]:
    """Long user-history sequence features, assigned round-robin to
    synchronous-update groups (grouped IKJT candidates)."""
    specs = []
    for i in range(count):
        specs.append(
            SparseFeatureSpec(
                name=f"{prefix}_{i}",
                kind=FeatureKind.USER,
                avg_length=avg_length,
                change_prob=0.05,
                cardinality=200_000,
                group=f"{prefix}_g{i % groups}",
                pooling=pooling,
            )
        )
    return specs


def _dense_features(count: int) -> list[DenseFeatureSpec]:
    return [DenseFeatureSpec(f"dense_{i}") for i in range(count)]


def _dedup_groups_from_schema(
    schema: DatasetSchema, include_solo: bool = True
) -> tuple[tuple[str, ...], ...]:
    """Dedup spec: every synchronous group, plus each highly-duplicated
    solo user feature as its own singleton group."""
    groups = [tuple(members) for members in schema.groups().values()]
    if include_solo:
        grouped = {n for g in groups for n in g}
        for f in schema.sparse:
            if f.name not in grouped and f.kind is FeatureKind.USER:
                groups.append((f.name,))
    return tuple(groups)


def _require_scale(scale: float) -> None:
    """Every magnitude below is floored (``max(floor, int(k * scale))``),
    so a non-positive scale would quietly build the floor-sized workload
    and print plausible numbers instead of failing; an infinite one has
    no ``int`` at all."""
    if not scale > 0:
        raise ValueError(f"workload scale must be positive, got {scale}")
    if not math.isfinite(scale):
        raise ValueError(f"workload scale must be finite, got {scale}")


def rm1(scale: float = 1.0) -> RMWorkload:
    """RM1: transformer pooling over 16 sequence features in 5 groups.

    The model whose heavy sequence compute makes RecD shine (2.48x).
    """
    _require_scale(scale)
    seq = _sequence_features(
        16, groups=5, pooling=PoolingKind.TRANSFORMER, avg_length=max(8, int(48 * scale))
    )
    ewise = _elementwise_features(max(4, int(24 * scale)))
    schema = DatasetSchema(
        sparse=tuple(seq + ewise), dense=tuple(_dense_features(8))
    )
    return RMWorkload(
        name="RM1",
        schema=schema,
        baseline_batch_size=max(32, int(256 * scale)),
        recd_batch_size=max(96, int(768 * scale)),  # paper: 2048 -> 6144
        num_gpus=8,
        embedding_dim=max(16, int(64 * scale)),
        dedup_groups=_dedup_groups_from_schema(schema),
    )


def rm2(scale: float = 1.0) -> RMWorkload:
    """RM2: 6 sequence features in one group, attention pooling; batch size
    could not grow past the baseline (§6.1)."""
    _require_scale(scale)
    seq = _sequence_features(
        6, groups=1, pooling=PoolingKind.ATTENTION, avg_length=max(8, int(32 * scale))
    )
    ewise = _elementwise_features(max(4, int(24 * scale)))
    schema = DatasetSchema(
        sparse=tuple(seq + ewise), dense=tuple(_dense_features(8))
    )
    return RMWorkload(
        name="RM2",
        schema=schema,
        baseline_batch_size=max(32, int(256 * scale)),
        recd_batch_size=max(32, int(256 * scale)),  # paper: stays at 2048
        num_gpus=8,
        embedding_dim=max(16, int(96 * scale)),
        dedup_groups=_dedup_groups_from_schema(schema),
    )


def rm3(scale: float = 1.0) -> RMWorkload:
    """RM3: 11 sequence features in one group, attention pooling, smaller
    baseline batch (paper: 1152 -> 2048), lower samples/session table."""
    _require_scale(scale)
    seq = _sequence_features(
        11, groups=1, pooling=PoolingKind.ATTENTION, avg_length=max(8, int(32 * scale))
    )
    ewise = _elementwise_features(max(4, int(24 * scale)))
    schema = DatasetSchema(
        sparse=tuple(seq + ewise), dense=tuple(_dense_features(8))
    )
    return RMWorkload(
        name="RM3",
        schema=schema,
        baseline_batch_size=max(32, int(144 * scale)),
        recd_batch_size=max(32, int(256 * scale)),
        num_gpus=8,
        embedding_dim=max(16, int(96 * scale)),
        dedup_groups=_dedup_groups_from_schema(schema),
    )


#: workload name -> constructor: the one map the CLI's ``--rm`` and the
#: experiment grids' ``"workload.rm"`` both resolve through
WORKLOADS = {"RM1": rm1, "RM2": rm2, "RM3": rm3}


def all_workloads(scale: float = 1.0) -> list[RMWorkload]:
    return [build(scale) for build in WORKLOADS.values()]
