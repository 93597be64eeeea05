"""The live-loop driver: landing ticks interleaved with tier rounds.

A static session runs its tier to completion and never looks back at
storage.  A streaming session cannot: epochs near the end of a job's
plan scan micro-partitions that have not landed yet, so the scheduling
loop must alternate between *pumping* every job's
:class:`~repro.streaming.lander.StreamLander` (landing whatever the
modeled clock has made due) and *stepping* the shared tier (training
whatever is runnable).  When no job is runnable — everyone is waiting
on data — the loop advances the tier's clock straight to the next
landing time instead of spinning, which is the modeled equivalent of
the platform sitting idle until the next scribe tick seals.

The interleaving only moves modeled time around.  Batch content is a
pure function of landed row values and order, both of which the lander
fixes from the spec's seed, so a live run's per-step losses are
bit-identical to :meth:`~repro.pipeline.session.Session.
land_all_streams` followed by a plain closed-loop run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..metrics.tier import TierReport
    from ..pipeline.session import Session

__all__ = ["LiveLoop"]


class LiveLoop:
    """Drive one prepared streaming session to completion.

    The loop invariant: before every tier round, every stream is
    pumped up to the tier's current clock, so a round only ever trains
    over partitions that were live at the modeled moment it started.
    """

    def __init__(self, session: "Session") -> None:
        """Wrap a session whose tier is built (``prepare()`` ran).

        Raises:
            RuntimeError: if the session was never prepared.
        """
        if session.tier is None:
            raise RuntimeError(
                "LiveLoop needs a prepared session: call "
                "Session.prepare() first"
            )
        self.session = session

    def tick(self) -> bool:
        """Run one iteration of the live loop.

        The only place landing, scheduling, and idle time are
        sequenced: pump all streams at the current clock, then try one
        tier round.  A round that cannot run means every remaining job
        is either finished or gated on data; if a stream still has
        ticks pending, the clock jumps to the next landing time.
        Open-loop drivers (the scenario simulator) inject their events
        between calls instead of re-implementing this sequence.

        Returns:
            ``True`` if the loop moved (a round ran or the clock
            jumped) and should be ticked again; ``False`` when nothing
            is runnable and no landing is pending — the run is
            complete, or, if the tier still has epochs remaining,
            stuck.
        """
        session = self.session
        tier = session.tier
        session.pump_streams()
        if tier.step():
            return True
        nxt = session.next_stream_event() if tier.epochs_remaining else None
        if nxt is None:
            return False
        tier.advance_clock(nxt)
        return True

    def drive(self) -> "TierReport":
        """Run landing ticks and scheduling rounds until both drain.

        Returns:
            The finished tier's
            :class:`~repro.metrics.tier.TierReport`.

        Raises:
            RuntimeError: if jobs are still waiting on data once every
                stream is exhausted (a deadlock).
        """
        tier = self.session.tier
        tier.start()
        while self.tick():
            pass
        if tier.epochs_remaining:
            # Every lander is drained yet some job is still gated: its
            # ready hook can never satisfy.  Admission validates plans
            # against the declared stream, so this is a driver bug
            # worth failing loudly on, not a state to spin in.
            raise RuntimeError(
                "live loop deadlocked: jobs are waiting on data "
                "but every stream is exhausted"
            )
        return tier.finish()
