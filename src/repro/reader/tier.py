"""Reader-tier provisioning (§2.1, §6.3).

The number of readers per job is scaled to meet the trainers' ingestion
bandwidth; faster readers therefore directly reduce fleet size ("reducing
the number of readers needed for each training job by the same amount",
§6.1).  :func:`readers_required` is that sizing formula; the fleet that
actually runs the readers is :class:`~repro.reader.fleet.ReaderFleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["readers_required", "TierPlan"]


@dataclass(frozen=True)
class TierPlan:
    """Provisioning outcome for one training job."""

    trainer_samples_per_s: float
    reader_samples_per_s: float
    num_readers: int


def readers_required(
    trainer_samples_per_s: float,
    reader_samples_per_s: float,
    headroom: float = 1.1,
) -> TierPlan:
    """Readers needed so trainers never data-stall.

    ``headroom`` over-provisions slightly, as the deployed system does to
    "avoid data stalls in all configurations" (§6.1).
    """
    if trainer_samples_per_s < 0 or reader_samples_per_s <= 0:
        raise ValueError("throughputs must be positive")
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1.0")
    n = math.ceil(trainer_samples_per_s * headroom / reader_samples_per_s)
    return TierPlan(
        trainer_samples_per_s=trainer_samples_per_s,
        reader_samples_per_s=reader_samples_per_s,
        num_readers=max(n, 1),
    )
