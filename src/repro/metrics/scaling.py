"""Scaling-decision records for the adaptive reader-pool controller.

The control law (:func:`~repro.reader.autoscale.rescale`) resizes the
pool between rounds from observed
:class:`~repro.metrics.OverlapReport` stall fractions.  Each decision —
what was observed, what action was taken, what width resulted — is a
:class:`ScalingDecision`, logged by the tier as a ``scale`` event; a
:class:`ScalingTrace` is those decisions in round order, folded from
the log at the end of the run, so a run's convergence behaviour can be
replayed, asserted in tests, and plotted figure-style
(``examples/autoscale_convergence.py``).

All fields are plain numbers; :meth:`ScalingTrace.as_rows` serializes
the trace into the same row-dict shape the benchmark harness writes to
``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["ScalingDecision", "ScalingTrace"]

#: the three actions a controller step can take
ACTIONS = ("grow", "shrink", "hold")


@dataclass(frozen=True)
class ScalingDecision:
    """One controller step: observed stall fractions -> action -> width.

    Attributes:
        epoch: 0-based epoch index the observation came from.
        reader_stall_fraction: observed fraction of epoch wall-clock the
            trainer spent starved on the reader tier (dimensionless,
            0..1).
        trainer_stall_fraction: observed fraction of epoch wall-clock
            the trainer held the pipeline (dimensionless, 0..1).
        width_before: fleet width (``num_readers``) the epoch ran with.
        action: ``"grow"``, ``"shrink"`` or ``"hold"``.
        width_after: fleet width the *next* epoch will run with.
        reason: one-line human-readable explanation of the action.
    """

    epoch: int
    reader_stall_fraction: float
    trainer_stall_fraction: float
    width_before: int
    action: str
    width_after: int
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"action must be one of {ACTIONS}, got {self.action!r}"
            )
        if self.width_before <= 0 or self.width_after <= 0:
            raise ValueError("fleet widths must be positive")


@dataclass
class ScalingTrace:
    """Every decision an autoscaler made over one run, in epoch order.

    Attributes:
        target_stall: upper edge of the acceptable
            ``reader_stall_fraction`` band the controller steered for.
        decisions: the recorded :class:`ScalingDecision` steps.
    """

    target_stall: float = 0.0
    decisions: list[ScalingDecision] = field(default_factory=list)

    @property
    def widths(self) -> list[int]:
        """Fleet width each recorded epoch ran with."""
        return [d.width_before for d in self.decisions]

    @property
    def final_width(self) -> int | None:
        """Width the controller left the fleet at (None if no decisions)."""
        if not self.decisions:
            return None
        return self.decisions[-1].width_after

    def in_band(self, reader_stall_fraction: float) -> bool:
        """Whether an observed reader-stall fraction meets the target."""
        return reader_stall_fraction <= self.target_stall

    @property
    def converged_epoch(self) -> int | None:
        """First epoch from which every observation stayed in band.

        Returns the epoch index of the first decision whose observed
        ``reader_stall_fraction`` is within the target band *and* whose
        successors all stayed in band, or ``None`` if the run never
        settled.
        """
        settled: int | None = None
        for d in self.decisions:
            if self.in_band(d.reader_stall_fraction):
                if settled is None:
                    settled = d.epoch
            else:
                settled = None
        return settled

    def as_dict(self) -> dict:
        """Serialize to a plain JSON-ready dict (the run-store form).

        Hand-written as a policy: the stored form leads with the two
        derived headlines (final width, convergence epoch).
        """
        return {
            "target_stall": self.target_stall,
            "final_width": self.final_width,
            "converged_epoch": self.converged_epoch,
            "decisions": self.as_rows(),
        }

    def as_rows(self) -> list[dict]:
        """Serialize the trace into figure-style row dicts."""
        return [asdict(d) for d in self.decisions]
