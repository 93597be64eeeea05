"""Composable run specifications: the ``JobSpec`` surface.

How a job is described is decided here and nowhere else: small spec
dataclasses, each owning one concern, so data generation, cluster
shape, reader sizing, retention, and autoscaling never share one flat
namespace — and every combination composes for one job or many:

* :class:`DataSpec` — what lands: workload, toggles, sessions, time
  partitions, seed.
* :class:`ReaderSpec` — how the reader fleet scans it: width,
  executor, transport, streaming hand-off.
* :class:`TrainSpec` — what the trainers do: epochs, per-epoch batch
  cap, batch size, cluster shape, update tracking.
* :class:`ScalingSpec` — whether and how the fleet/pool width adapts:
  target stall band and width bound (declared beside the autoscaler it
  configures, :mod:`repro.reader.autoscale`, and re-exported here).
* :class:`RetentionSpec` — the rolling partition window.
* :class:`StreamSpec` — continuous ingestion: the job's partitions
  land as scribe-fed micro-partitions on the modeled clock *while* the
  job trains, instead of all up front.
Reader faults and resume state are not part of a job's description:
faults are events of a :class:`~repro.sim.faults.FaultPlan`, played by
the session it is handed to (``Session(..., plan=...)``), and a job
that plan preempts is checkpointed and resumed by that session alone.

A :class:`JobSpec` composes them (plus a scheduling ``weight`` and an
optional ``name``) into everything one training job needs, and
:class:`~repro.pipeline.session.Session` executes one or many of them.

Every ``__post_init__`` error names the spec and field it came from
(``ScalingSpec.target_stall must be in (0, 1) ...``), so a failed
construction is diagnosable without a traceback spelunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

from ..datagen.workloads import RMWorkload
from ..distributed.device import ClusterSpec
from ..reader.autoscale import ScalingSpec
from ..reader.config import DataLoaderConfig
from ..reader.costmodel import TransportSpec
from ..reader.fleet import EXECUTORS
from ..trainer.sparse_arch import TrainerOptFlags
from .config import RecDToggles

__all__ = [
    "DataSpec",
    "ReaderSpec",
    "TransportSpec",
    "TrainSpec",
    "ScalingSpec",
    "RetentionSpec",
    "StreamSpec",
    "JobSpec",
]


def _require_positive(where: str, value) -> None:
    """Raise unless ``value`` is a positive finite number, naming the
    field (NaN fails the first check, infinity the second)."""
    if not value > 0:
        raise ValueError(f"{where} must be positive, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value}")


@dataclass(frozen=True)
class DataSpec:
    """What one job's table is made of: workload, volume, landing shape.

    Attributes:
        workload: the RM workload (schema, duplication statistics,
            per-path batch-size defaults).
        toggles: which RecD optimizations (O1-O7) are active.
        num_sessions: sessions in the generated trace.
        mean_samples_per_session: S of the generated table (§6.1).
        num_partitions: time partitions the table lands as (the
            paper's day-partitioned tables).
        seed: the run's seed (trace generation and model init).
        transforms: reader-side preprocessing transform names, each a
            key of :data:`~repro.reader.preprocess.TRANSFORM_REGISTRY`.
    """

    workload: RMWorkload
    toggles: RecDToggles = field(default_factory=RecDToggles.baseline)
    num_sessions: int = 250
    mean_samples_per_session: float = 16.5
    num_partitions: int = 1
    seed: int = 0
    transforms: tuple[str, ...] = ("hash_modulo",)
    #: Scribe transport shards the lander logs through: a constant, not
    #: a setting (no run ever changed it)
    num_scribe_shards: ClassVar[int] = 8

    def __post_init__(self) -> None:
        _require_positive("DataSpec.num_sessions", self.num_sessions)
        _require_positive(
            "DataSpec.mean_samples_per_session",
            self.mean_samples_per_session,
        )
        _require_positive("DataSpec.num_partitions", self.num_partitions)
        # numpy rejects a negative seed only once generation starts
        if self.seed < 0:
            raise ValueError(
                f"DataSpec.seed must be non-negative, got {self.seed}"
            )
        # the reader's own config owns the transform-name rule
        try:
            DataLoaderConfig(batch_size=1, transforms=self.transforms)
        except ValueError as exc:
            raise ValueError(f"DataSpec.{exc}") from None


@dataclass(frozen=True)
class ReaderSpec:
    """How the reader fleet scans a job's table.

    Attributes:
        num_readers: fleet width (1 = the serial single-node path);
            under a shared tier this is the job's *solo* width — the
            pool width is the Session's.
        executor: ``"inprocess"`` (the default: a deterministic serial
            scan with no queue — wide widths in tier-1 time) or
            ``"process"`` (real multiprocessing workers behind bounded
            queues, whose waits it measures; runs only when named); the
            batch stream is bit-identical under both.
        transport: how batches cross the worker→trainer boundary —
            ``"copy"`` (modeled per-batch serialize cost,
            ``bytes.copied``) or ``"shm"`` (zero-copy,
            ``bytes.avoided``); a mode string coerces to a
            :class:`~repro.reader.costmodel.TransportSpec`.  Pure
            cost-model A/B: the stream is bit-identical either way.
        streaming: stream batches straight into the trainer
            (overlapping decode with steps) instead of materializing
            each epoch first; both paths train bit-identically.
        dedup: ship session-deduplicated IKJT batches over the
            prefetch queues (the workload's dedup groups become
            :class:`~repro.core.ikjt.InverseKeyedJaggedTensor`\\ s and
            the trainer expands inverse indices *after* the pooled
            embedding lookup).  Sugar over the toggles, read in one
            place — :attr:`JobSpec.effective_toggles` — so losses are
            identical and only bytes-decoded and modeled work shrink.
    """

    num_readers: int = 1
    executor: str = "inprocess"
    transport: TransportSpec | str = field(default_factory=TransportSpec)
    streaming: bool = True
    dedup: bool = False

    def __post_init__(self) -> None:
        _require_positive("ReaderSpec.num_readers", self.num_readers)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"ReaderSpec.executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        # a grid/CLI-provided mode string becomes a real TransportSpec
        # (frozen dataclass, hence the object.__setattr__)
        object.__setattr__(
            self, "transport", TransportSpec.coerce(self.transport)
        )


@dataclass(frozen=True)
class TrainSpec:
    """What the job's trainers run: epochs, batches, cluster shape.

    Attributes:
        train_epochs: epochs over the landed partitions.
        train_batches: per-epoch batch cap (``None`` = the whole
            window).
        batch_size: overrides the workload's per-path batch size when
            set.
        num_gpus: modeled cluster size; past one node, a multiple of
            ``gpus_per_node`` (the
            :class:`~repro.distributed.device.ClusterSpec` rule).
        gpus_per_node: modeled cluster shape.
        max_table_rows: embedding-table hash modulus cap.
        track_updates: forward per-step update tracking to the trainer
            (needed by the accuracy experiments).
    """

    train_epochs: int = 1
    train_batches: int | None = 2
    batch_size: int | None = None
    num_gpus: int = 48
    gpus_per_node: int = 8
    max_table_rows: int = 2000
    track_updates: bool = False

    def __post_init__(self) -> None:
        _require_positive("TrainSpec.train_epochs", self.train_epochs)
        if self.train_batches is not None:
            _require_positive("TrainSpec.train_batches", self.train_batches)
        if self.batch_size is not None:
            _require_positive("TrainSpec.batch_size", self.batch_size)
        _require_positive("TrainSpec.num_gpus", self.num_gpus)
        _require_positive("TrainSpec.gpus_per_node", self.gpus_per_node)
        _require_positive("TrainSpec.max_table_rows", self.max_table_rows)
        # the modeled cluster owns the shape rule
        try:
            ClusterSpec(num_gpus=self.num_gpus, gpus_per_node=self.gpus_per_node)
        except ValueError as exc:
            raise ValueError(
                f"TrainSpec.{exc}, got num_gpus={self.num_gpus} and "
                f"gpus_per_node={self.gpus_per_node}"
            ) from None


@dataclass(frozen=True)
class RetentionSpec:
    """Rolling-window partition retention: the land→train→age lifecycle.

    Attaching a ``RetentionSpec`` to a :class:`JobSpec` turns the
    landed table into a rolling window (``retention=None`` keeps every
    partition live): at most ``window`` partitions are live at once;
    between epochs the next time partition lands and the oldest is
    dropped, and each epoch scans only the live window.

    Attributes:
        window: maximum live partitions at any moment.
    """

    window: int = 1

    def __post_init__(self) -> None:
        _require_positive("RetentionSpec.window", self.window)


@dataclass(frozen=True)
class StreamSpec:
    """Continuous ingestion: land micro-partitions while the job trains.

    Attaching a ``StreamSpec`` to a :class:`JobSpec` replaces the
    land-everything-up-front table with a live one: the job's trace is
    re-stamped onto a modeled event-time axis and cut into
    ``DataSpec.num_partitions`` micro-partitions, each of which flows
    through a scribe cluster (sealed at its tick boundary — see
    :meth:`~repro.scribe.bus.ScribeShard.flush`), the ETL join, and a
    Hive landing *on the tier's cost-model clock*, so later epochs
    train on partitions that did not exist when the job was admitted.
    Epoch ``e`` scans the rolling window ending at micro-partition
    ``e`` (``RetentionSpec.window`` wide when retention is set), and a
    :class:`~repro.metrics.freshness.FreshnessReport` measures the
    event-time → trained-on lag per delivered batch.

    Every quantity is modeled seconds, so a streamed run is exactly as
    bit-reproducible as a static one: the realized partition sequence —
    and therefore every loss — is bitwise identical to landing the same
    stream up front and training over it.

    Attributes:
        interval_seconds: modeled event-time span of one
            micro-partition; partition ``i`` seals at
            ``(i + 1) * interval_seconds`` on the stream clock.
        land_latency_seconds: modeled scribe→ETL→storage delay between
            a tick sealing and its micro-partition becoming scannable.
        rows_per_file: DWRF file size for micro-partitions (small on
            purpose — landing latency beats layout).  Once the next
            micro-partition lands, the previous one is compacted back
            to the table's full file size; row order — and hence every
            loss — is untouched, only file count and layout change.
    """

    interval_seconds: float = 60.0
    land_latency_seconds: float = 5.0
    rows_per_file: int = 256

    def __post_init__(self) -> None:
        _require_positive(
            "StreamSpec.interval_seconds", self.interval_seconds
        )
        if not 0 <= self.land_latency_seconds < math.inf:
            raise ValueError(
                "StreamSpec.land_latency_seconds must be non-negative and "
                f"finite, got {self.land_latency_seconds}"
            )
        _require_positive("StreamSpec.rows_per_file", self.rows_per_file)


@dataclass(frozen=True)
class JobSpec:
    """One training job, as composed specs.

    The unit :class:`~repro.pipeline.session.Session` executes — alone
    or registered with a shared reader tier alongside other jobs.
    Every combination composes: retention and scaling work identically
    for one job or many.

    Attributes:
        data: what lands (workload, toggles, volume, partitions).
        reader: how the fleet scans it.
        train: what the trainers run.
        scaling: adaptive width when set; fixed width when ``None``.
        retention: rolling partition window when set; keep-everything
            when ``None``.
        stream: continuous ingestion when set — partitions land as
            scribe-fed micro-partitions on the modeled clock while the
            job trains; ``None`` lands everything up front.
        weight: scheduling weight under a shared tier — the
            stall-weighted allocator scales this job's observed reader
            demand by it, so a weight-2 job pulls roughly twice the
            surplus workers of an equal-demand weight-1 job.
        name: report name under a shared tier (default ``job{i}``).
    """

    data: DataSpec
    reader: ReaderSpec = ReaderSpec()
    train: TrainSpec = TrainSpec()
    scaling: ScalingSpec | None = None
    retention: RetentionSpec | None = None
    stream: StreamSpec | None = None
    weight: float = 1.0
    name: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < math.inf:
            raise ValueError(
                f"JobSpec.weight must be positive and finite, got "
                f"{self.weight}"
            )
        if self.name is not None and not self.name:
            raise ValueError("JobSpec.name must be non-empty when set")
        if (
            self.scaling is not None
            and self.scaling.max_readers < self.reader.num_readers
        ):
            raise ValueError(
                f"ScalingSpec.max_readers ({self.scaling.max_readers}) "
                f"must be >= ReaderSpec.num_readers "
                f"({self.reader.num_readers}): the autoscaler never "
                "starts above its own bound"
            )

    # -- derived -------------------------------------------------------------

    @property
    def effective_batch_size(self) -> int:
        """The job's batch size: the override, else the workload's
        per-path (baseline vs RecD) default."""
        if self.train.batch_size is not None:
            return self.train.batch_size
        w = self.data.workload
        return (
            w.recd_batch_size
            if self.data.toggles.o3_ikjt
            else w.baseline_batch_size
        )

    @property
    def effective_toggles(self) -> RecDToggles:
        """The toggles the reader and trainer run under — the one place
        ``ReaderSpec.dedup`` is read.

        ``dedup`` is sugar for the IKJT stack (O3 transport, O5–O7
        trainer) at the *baseline's* batch size and layout:
        :attr:`effective_batch_size` and landing keep reading
        ``data.toggles``, which is what makes a dedup-on/off pair a
        bit-identity A/B.
        """
        if not self.reader.dedup:
            return self.data.toggles
        return self.data.toggles.with_(
            o3_ikjt=True,
            o5_dedup_emb=True,
            o6_jagged_index_select=True,
            o7_dedup_compute=True,
        )

    @property
    def trainer_flags(self) -> "TrainerOptFlags":
        """The trainer-side (O5–O7) flags this job's trainer runs under."""
        return self.effective_toggles.trainer_flags

    def dataloader_config(self) -> DataLoaderConfig:
        """The job's DataLoader spec: the workload's dedup groups ship
        as IKJTs under (effective) O3, every feature as a KJT otherwise."""
        w = self.data.workload
        groups = w.dedup_groups if self.effective_toggles.o3_ikjt else ()
        grouped = {name for group in groups for name in group}
        return DataLoaderConfig(
            batch_size=self.effective_batch_size,
            sparse_features=tuple(
                n for n in w.schema.sparse_names if n not in grouped
            ),
            dedup_sparse_features=groups,
            dense_features=tuple(w.schema.dense_names),
            transforms=self.data.transforms,
        )

    def with_(self, **kwargs) -> "JobSpec":
        """A copy with the given top-level fields replaced."""
        return replace(self, **kwargs)


def spec_field_names() -> dict[str, list[str]]:
    """Field names per spec dataclass — the public-surface manifest the
    API snapshot test (``tests/docs/test_api_surface.py``) diffs."""
    return {
        cls.__name__: [f.name for f in fields(cls)]
        for cls in (
            DataSpec,
            ReaderSpec,
            TransportSpec,
            TrainSpec,
            ScalingSpec,
            RetentionSpec,
            StreamSpec,
            JobSpec,
        )
    }
