"""End-to-end pipeline orchestration: the one run surface.

Compose a :class:`~repro.pipeline.spec.JobSpec` from small spec
dataclasses (:class:`DataSpec`, :class:`ReaderSpec`, :class:`TrainSpec`,
:class:`ScalingSpec`, :class:`RetentionSpec`, :class:`StreamSpec`) and
execute one or many with :class:`~repro.pipeline.session.Session` (see
``docs/api.md``).  The paper-figure drivers built on it live in
:mod:`repro.experiments.figures`.
"""

from .config import RecDToggles
from .session import (
    JobRuntime,
    MultiJobResult,
    PipelineResult,
    Session,
    build_trainer,
    land_table,
)
from .spec import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RetentionSpec,
    ScalingSpec,
    StreamSpec,
    TrainSpec,
    TransportSpec,
)

__all__ = [
    "RecDToggles",
    "DataSpec",
    "ReaderSpec",
    "TrainSpec",
    "ScalingSpec",
    "RetentionSpec",
    "StreamSpec",
    "TransportSpec",
    "JobSpec",
    "JobRuntime",
    "Session",
    "PipelineResult",
    "build_trainer",
    "land_table",
    "MultiJobResult",
]
