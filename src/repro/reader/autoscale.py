"""Adaptive reader-fleet sizing from observed overlap reports (§2.1).

The deployed platform sizes its reader tier so trainer steps never stall
on decode: too few readers and the trainers starve (reader-stall), too
many and reader machines idle against the trainers' bounded ingestion
(trainer-stall upstream).  PR 2 gave the pipeline the *measurement* —
per-epoch :class:`~repro.metrics.OverlapReport`\\ s attribute wall-clock
to reader-stall vs trainer-stall — and :class:`ReaderAutoscaler` is the
feedback controller that *acts* on it, resizing the fleet between
epochs:

* **grow** while ``reader_stall_fraction`` exceeds the target band —
  proportionally, sizing the next width so the modeled reader wall
  matches the trainer's step time;
* **shrink** when ``trainer_stall_fraction`` dominates and the readers
  provably idle (producer-side queue wait), but only after
  ``_SHRINK_PATIENCE`` consecutive such observations — the hysteresis
  that keeps one noisy epoch from flapping the fleet;
* **hold** inside the band, and at the bounds: the caller's
  per-decision floor (a shared tier's fairness floor, else one reader)
  and ``max_readers``.

Every step is recorded in a
:class:`~repro.metrics.scaling.ScalingTrace` (observed fractions ->
action -> new width) for figure-style reproduction.  Fed *modeled*
overlap reports (:meth:`~repro.metrics.OverlapReport.modeled`, built
from the reader cost model and the trainer's modeled step times), the
controller's decisions are bit-reproducible across runs — which is how
a ``Session`` with a ``ScalingSpec`` stays deterministic under the
in-process executor.

:func:`readers_required` is the static counterpart: the one-shot sizing
formula (§2.1, §6.1) for a job whose reader and trainer rates are known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..metrics.overlap import OverlapReport
from ..metrics.scaling import ScalingDecision, ScalingTrace

__all__ = ["ReaderAutoscaler", "ScalingSpec", "readers_required", "TierPlan"]

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
    autoscaling *on* (``scaling=None`` runs at fixed width): a
    :class:`ReaderAutoscaler` resizes the fleet — or, under a shared
    tier, the pool — between epochs.

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


class ReaderAutoscaler:
    """Feedback controller that resizes a reader fleet between epochs.

    One instance tracks one training run: call :meth:`observe` with each
    epoch's :class:`~repro.metrics.OverlapReport` and run the next epoch
    at the returned width.  The full decision history is in
    :attr:`trace`.
    """

    def __init__(
        self,
        num_readers: int,
        target_stall: float = 0.10,
        max_readers: int = 32,
    ):
        """Configure the controller.

        Args:
            num_readers: initial fleet width (capped at
                ``max_readers``).
            target_stall: upper edge of the acceptable
                ``reader_stall_fraction`` band; the controller grows the
                fleet while observations exceed it.
            max_readers: largest width the controller will set.

        Raises:
            ValueError: if ``num_readers`` is not positive, or the
                set-point or bound breaks :class:`ScalingSpec`'s rules.
        """
        if num_readers <= 0:
            raise ValueError(
                f"num_readers must be positive, got {num_readers}"
            )
        # the set-point and bound obey the spec's own rules
        ScalingSpec(target_stall, max_readers)
        self.target_stall = target_stall
        self.max_readers = max_readers
        self.num_readers = min(num_readers, max_readers)
        self.trace = ScalingTrace(target_stall=target_stall)
        self._shrink_streak = 0

    # -- controller ---------------------------------------------------------

    def observe(
        self,
        overlap: OverlapReport,
        epoch: int | None = None,
        width: int | None = None,
        min_readers: int | None = None,
    ) -> int:
        """Consume one epoch's overlap report; return the next width.

        Args:
            overlap: the epoch's wall-clock attribution (measured or,
                for reproducible decisions, modeled via
                :meth:`~repro.metrics.OverlapReport.modeled`).
            epoch: 0-based epoch index for the trace; defaults to the
                number of decisions already recorded.
            width: the width the epoch ran at, when the caller lifted
                the last returned one (a shared tier's fairness floor);
                defaults to :attr:`num_readers`.
            min_readers: this decision's lower bound (a shared tier's
                fairness floor); defaults to one reader.

        Returns:
            The fleet width (``num_readers``) the next epoch should run
            with.
        """
        if epoch is None:
            epoch = len(self.trace.decisions)
        width = self.num_readers if width is None else width
        floor = 1 if min_readers is None else min_readers
        rsf = overlap.reader_stall_fraction
        tsf = overlap.trainer_stall_fraction

        action, new_width, reason = self._decide(
            overlap, width, floor, rsf, tsf
        )
        self.num_readers = new_width
        self.trace.record(
            ScalingDecision(
                epoch=epoch,
                reader_stall_fraction=rsf,
                trainer_stall_fraction=tsf,
                width_before=width,
                action=action,
                width_after=new_width,
                reason=reason,
            )
        )
        return new_width

    def _decide(
        self,
        overlap: OverlapReport,
        width: int,
        floor: int,
        rsf: float,
        tsf: float,
    ) -> tuple[str, int, str]:
        """The control law: (action, new_width, reason) for one epoch."""
        trainer_busy = overlap.trainer_busy_seconds
        if overlap.wall_seconds <= 0.0 or trainer_busy <= 0.0:
            self._shrink_streak = 0
            return "hold", width, "no trainer signal this epoch"

        # Reconstruct the reader tier's wall time from the attribution:
        # reader-bound epochs expose it as trainer_busy + reader_stall;
        # trainer-bound epochs hide it behind producer-side queue wait.
        reader_wall = max(
            0.0,
            trainer_busy
            + overlap.reader_stall_seconds
            - overlap.queue.put_wait,
        )
        # Proportional set-point: reader work scales ~1/width, so this
        # is the width at which reader wall ~= trainer step time.
        proposed = math.ceil(width * reader_wall / trainer_busy)
        proposed = min(max(proposed, floor), self.max_readers)

        if rsf > self.target_stall:
            self._shrink_streak = 0
            new_width = min(max(width + 1, proposed), self.max_readers)
            if new_width <= width:
                return (
                    "hold",
                    width,
                    f"reader-stall {rsf:.2f} > target "
                    f"{self.target_stall:.2f} but already at "
                    f"max_readers={self.max_readers}",
                )
            return (
                "grow",
                new_width,
                f"reader-stall {rsf:.2f} > target {self.target_stall:.2f}",
            )

        if tsf >= _SHRINK_TRAINER_STALL and proposed < width:
            self._shrink_streak += 1
            if self._shrink_streak >= _SHRINK_PATIENCE:
                self._shrink_streak = 0
                return (
                    "shrink",
                    max(proposed, floor),
                    f"trainer-stall {tsf:.2f} dominated for "
                    f"{_SHRINK_PATIENCE} consecutive epochs",
                )
            return (
                "hold",
                width,
                f"trainer-stall {tsf:.2f} dominates; waiting out "
                f"hysteresis ({self._shrink_streak}/{_SHRINK_PATIENCE})",
            )

        self._shrink_streak = 0
        return (
            "hold",
            width,
            f"reader-stall {rsf:.2f} within target "
            f"{self.target_stall:.2f}",
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
