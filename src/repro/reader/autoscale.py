"""Adaptive reader-fleet sizing from each round's modeled times (§2.1).

The deployed platform sizes its reader tier so trainer steps never stall
on decode: too few readers and the trainers starve (reader-stall), too
many and reader machines idle against the trainers' bounded ingestion
(trainer-stall upstream).  :func:`rescale` is the control law, one
round at a time: it takes the round's modeled reader wall and trainer
time (:attr:`~repro.metrics.tier.TierRound.reader_wall_seconds` and
:attr:`~repro.metrics.tier.TierRound.trainer_busy_seconds`), attributes
them with :meth:`~repro.metrics.OverlapReport.modeled`, and acts:

* **grow** while ``reader_stall_fraction`` exceeds the target band —
  proportionally, sizing the next width so the modeled reader wall
  matches the trainer's step time;
* **shrink** when ``trainer_stall_fraction`` dominates and the
  proportional width is below the current one (the readers idle), but
  only after ``_SHRINK_PATIENCE`` consecutive such observations — the
  hysteresis that keeps one noisy epoch from flapping the fleet;
* **hold** inside the band, and at the bounds: the caller's
  per-decision floor (the shared tier's fairness floor) and
  ``max_readers``.

:func:`rescale` is pure: the width, the floor and the shrink streak come
in as arguments, and the decision and the next streak go out.  The
:class:`~repro.reader.tier_scheduler.SharedReaderTier` keeps the spec
and the streak in its one :class:`~repro.reader.tier_scheduler.TierState`
and logs each decision as a ``scale`` event, which
:class:`~repro.metrics.scaling.ScalingTrace` folds.  Both times come
from the reader cost model and the trainer's modeled step times, so the
decisions are bit-reproducible across runs — which is how a
``Session`` with a ``ScalingSpec`` stays deterministic under the
in-process executor.

:func:`readers_required` is the static counterpart: the one-shot sizing
formula (§2.1, §6.1) for a job whose reader and trainer rates are known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..metrics.overlap import OverlapReport
from ..metrics.scaling import ScalingDecision

__all__ = ["rescale", "ScalingSpec", "readers_required", "TierPlan"]

#: consecutive shrink-worthy observations before the fleet shrinks
_SHRINK_PATIENCE = 2
#: ``trainer_stall_fraction`` at or above which an epoch is
#: shrink-worthy (the trainer held the pipeline and readers idled)
_SHRINK_TRAINER_STALL = 0.75


@dataclass(frozen=True)
class ScalingSpec:
    """Adaptive width: the autoscaler's set-point and bound.

    Attaching a ``ScalingSpec`` to a
    :class:`~repro.pipeline.spec.JobSpec` — or handing one to a
    :class:`~repro.reader.tier_scheduler.SharedReaderTier` — turns
    autoscaling *on* (``scaling=None`` runs at fixed width): the tier
    applies :func:`rescale` to its pool between rounds.

    Attributes:
        target_stall: grow the width while the observed reader-stall
            fraction exceeds this band.
        max_readers: upper bound on the width.
    """

    target_stall: float = 0.10
    max_readers: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.target_stall < 1.0:
            raise ValueError(
                "ScalingSpec.target_stall must be in (0, 1), got "
                f"{self.target_stall}"
            )
        # NaN, infinity and 2.5 pass ``<= 0`` but are no reader count
        if not (
            math.isfinite(self.max_readers)
            and float(self.max_readers).is_integer()
        ):
            raise ValueError(
                "ScalingSpec.max_readers must be a whole number, got "
                f"{self.max_readers}"
            )
        if self.max_readers <= 0:
            raise ValueError(
                "ScalingSpec.max_readers must be positive, got "
                f"{self.max_readers}"
            )


def rescale(
    spec: ScalingSpec,
    reader_wall_seconds: float,
    trainer_busy_seconds: float,
    index: int,
    width: int,
    floor: int,
    streak: int,
) -> tuple[ScalingDecision, int]:
    """The control law: round ``index``'s modeled reader wall and
    trainer time at ``width`` in, the
    :class:`~repro.metrics.scaling.ScalingDecision` out (its
    ``width_after``, never under ``floor``, is the next round's width),
    with the shrink ``streak`` the next decision starts from — non-zero
    only after a hysteresis ``hold``.

    The shrink guard ``tsf >= _SHRINK_TRAINER_STALL`` binds only when
    ``width > max_readers``: up to the cap, a round proposes a narrower
    width only when its reader wall is under the trainer time, and then
    ``tsf`` is exactly 1.0; above it, ``max_readers`` caps the proposal
    whatever the stall."""
    overlap = OverlapReport.modeled(reader_wall_seconds, trainer_busy_seconds)
    rsf = overlap.reader_stall_fraction
    tsf = overlap.trainer_stall_fraction

    def decided(action: str, after: int, reason: str, streak: int = 0):
        return (
            ScalingDecision(index, rsf, tsf, width, action, after, reason),
            streak,
        )

    if trainer_busy_seconds <= 0.0:
        return decided("hold", width, "no trainer signal this epoch")

    # Proportional set-point: reader work scales ~1/width, so this
    # is the width at which reader wall ~= trainer step time (capped
    # before rounding: a vanishing trainer time makes the ratio inf).
    ratio = width * reader_wall_seconds / trainer_busy_seconds
    proposed = math.ceil(min(ratio, spec.max_readers))
    proposed = min(max(proposed, floor), spec.max_readers)

    if rsf > spec.target_stall:
        new_width = min(max(width + 1, proposed), spec.max_readers)
        if new_width <= width:
            return decided(
                "hold",
                width,
                f"reader-stall {rsf:.2f} > target {spec.target_stall:.2f} "
                f"but already at max_readers={spec.max_readers}",
            )
        return decided(
            "grow",
            new_width,
            f"reader-stall {rsf:.2f} > target {spec.target_stall:.2f}",
        )

    if tsf >= _SHRINK_TRAINER_STALL and proposed < width:
        streak += 1
        if streak >= _SHRINK_PATIENCE:
            return decided(
                "shrink",
                max(proposed, floor),
                f"trainer-stall {tsf:.2f} dominated for "
                f"{_SHRINK_PATIENCE} consecutive epochs",
            )
        return decided(
            "hold",
            width,
            f"trainer-stall {tsf:.2f} dominates; waiting out "
            f"hysteresis ({streak}/{_SHRINK_PATIENCE})",
            streak,
        )

    return decided(
        "hold",
        width,
        f"reader-stall {rsf:.2f} within target {spec.target_stall:.2f}",
    )


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
