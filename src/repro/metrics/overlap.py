"""Reader→trainer overlap accounting for the streaming pipeline.

When a ``Session`` streams a reader fleet's batches straight into the
trainers (instead of materializing them first), the end-to-end loop's
wall-clock belongs to whichever tier was the bottleneck at each moment.
:class:`OverlapReport` attributes it from the trainer's ingestion-loop
timing (``ingest_wait_seconds`` — blocked pulling the next batch — vs
``step_wall_seconds`` — computing), or, under a shared tier, from the
modeled reader and trainer times of each round.

This is the §2.1 provisioning signal at pipeline granularity: a large
``reader_stall_fraction`` means the reader tier is under-provisioned for
these trainers (add readers / enable O3–O4); a large
``trainer_stall_fraction`` means the readers outrun the trainers
(shrink the fleet or grow the trainer job).  The fleet's queue waits
that corroborate it (measured under the ``process`` executor) are
``FleetReport.queue``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import Folded

__all__ = ["OverlapReport"]


@dataclass
class OverlapReport(Folded):
    """Wall-clock attribution for one streamed (or materialized) run.

    ``reader_stall_seconds + trainer_busy_seconds + other_seconds``
    equals ``wall_seconds`` by construction, so the three fractions sum
    to 1 whenever any wall-clock elapsed.  It attributes time only:
    the run's bytes are on ``ReaderReport.bytes``.
    """

    #: end-to-end ingestion-loop wall time (across every epoch)
    wall_seconds: float = 0.0
    #: trainer blocked waiting on the next batch — the readers are the
    #: bottleneck during this slice (reader-stall)
    reader_stall_seconds: float = 0.0
    #: trainer busy inside steps — upstream readers can only prefetch
    #: into bounded queues during this slice (trainer-stall upstream)
    trainer_busy_seconds: float = 0.0

    derived = ("other_seconds", "fractions")
    derived_after = "trainer_busy_seconds"

    @property
    def other_seconds(self) -> float:
        """Wall-clock outside the trainer's ingestion loop: loop
        overhead, and — in the materialized A/B mode — the serialized
        reader scan that streaming would have overlapped away."""
        return max(
            0.0,
            self.wall_seconds
            - self.reader_stall_seconds
            - self.trainer_busy_seconds,
        )

    @property
    def reader_stall_fraction(self) -> float:
        """Fraction of wall-clock spent starved on the reader tier."""
        if self.wall_seconds == 0:
            return 0.0
        return self.reader_stall_seconds / self.wall_seconds

    @property
    def trainer_stall_fraction(self) -> float:
        """Fraction of wall-clock the trainer held the pipeline."""
        if self.wall_seconds == 0:
            return 0.0
        return self.trainer_busy_seconds / self.wall_seconds

    @property
    def other_fraction(self) -> float:
        """Fraction of wall-clock outside the ingestion loop."""
        if self.wall_seconds == 0:
            return 0.0
        return self.other_seconds / self.wall_seconds

    @property
    def fractions(self) -> dict[str, float]:
        """The attribution summands (sum to 1 when wall-clock elapsed)."""
        return {
            "reader_stall": self.reader_stall_fraction,
            "trainer_stall": self.trainer_stall_fraction,
            "other": self.other_fraction,
        }

    @classmethod
    def modeled(
        cls,
        reader_wall_seconds: float,
        trainer_busy_seconds: float,
    ) -> "OverlapReport":
        """Build a *deterministic* report from modeled tier times.

        In a perfectly pipelined epoch the wall-clock is the slower
        tier's time: ``max(reader_wall_seconds, trainer_busy_seconds)``.
        The excess of the reader tier over the trainer is reader-stall
        (the trainer starved).  Because both inputs come from the cost
        models — not ``time.perf_counter`` — the result is
        bit-reproducible across runs, which is what lets the fleet
        autoscaler make reproducible decisions under the deterministic
        executor.

        Args:
            reader_wall_seconds: modeled wall-clock of the reader tier
                for the epoch (e.g. aggregate reader CPU spread across
                the fleet width).
            trainer_busy_seconds: modeled time the trainer spent inside
                steps (summed ``iteration_seconds``).

        Returns:
            An :class:`OverlapReport` whose fractions sum to 1.
        """
        if reader_wall_seconds < 0 or trainer_busy_seconds < 0:
            raise ValueError("modeled tier times must be non-negative")
        return cls(
            wall_seconds=max(reader_wall_seconds, trainer_busy_seconds),
            reader_stall_seconds=max(
                0.0, reader_wall_seconds - trainer_busy_seconds
            ),
            trainer_busy_seconds=trainer_busy_seconds,
        )

    @classmethod
    def from_run(
        cls, training, wall_seconds: float | None = None
    ) -> "OverlapReport":
        """Build from a ``TrainingReport``'s measured ingestion-loop
        timing.

        Args:
            training: the trainer's ``TrainingReport``.
            wall_seconds: override the loop wall-clock.
        """
        return cls(
            wall_seconds=(
                training.run_wall_seconds
                if wall_seconds is None
                else wall_seconds
            ),
            reader_stall_seconds=training.ingest_wait_seconds,
            trainer_busy_seconds=training.step_wall_seconds,
        )
