"""Data-freshness accounting: event-time → trained-on lag.

Continuous training is only worth its complexity if the model actually
sees recent events, so the streaming subsystem measures, per delivered
batch, how stale its newest row was at the moment the trainer consumed
it: ``lag = trained_at - event_time`` on the modeled clock.  A
:class:`FreshnessReport` is just the multiset of those lags with
nearest-rank percentiles over it — the same :func:`~repro.metrics.slo.
percentile` every other SLO headline uses — and it merges by
concatenation, so per-round reports fold into per-job and tier-wide
views in any grouping (merge is associative and commutative).

Because both sides of the subtraction are modeled seconds, every lag —
and therefore every percentile — is bit-reproducible across machines,
which is what lets ``freshness_p99_seconds`` be regression-gated in CI
against committed baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ledger import Folded
from .stats import percentile

__all__ = ["FreshnessReport"]


@dataclass
class FreshnessReport(Folded):
    """Per-batch event-time → trained-on lags, with percentile views.

    Attributes:
        lags: one modeled-seconds lag per delivered batch, in delivery
            order.  Always non-negative: a batch cannot train before
            its rows' events happened, and :meth:`from_batches` clamps
            defensively so a cost-model retune can never push a lag
            below zero.
    """

    lags: list = field(default_factory=list)

    #: the serialized form is the percentile view, not the lags
    derived = (
        "batches",
        "p50_lag_seconds",
        "p99_lag_seconds",
        "max_lag_seconds",
    )

    @classmethod
    def from_batches(
        cls, event_times: list, trained_at: float
    ) -> "FreshnessReport":
        """Lags for one consumed round of batches.

        Args:
            event_times: per-batch newest-row event times (the
                :attr:`~repro.reader.node.ReaderReport.
                batch_event_times` a fleet collected this round).
            trained_at: the modeled clock when the trainer finished
                consuming the round.
        """
        return cls(
            lags=[max(0.0, trained_at - t) for t in event_times]
        )

    @property
    def batches(self) -> int:
        """How many delivered batches the report covers."""
        return len(self.lags)

    @property
    def p50_lag_seconds(self) -> float:
        """Median event-time → trained-on lag (modeled seconds)."""
        return percentile(self.lags, 50.0)

    @property
    def p99_lag_seconds(self) -> float:
        """Tail event-time → trained-on lag (modeled seconds)."""
        return percentile(self.lags, 99.0)

    @property
    def max_lag_seconds(self) -> float:
        """The single stalest delivered batch (0.0 when empty)."""
        return max(self.lags, default=0.0)
