"""Resource counters and phase breakdowns (the currency of all results)."""

from .breakdown import (
    IterationBreakdown,
    QueueWaitBreakdown,
    ReaderCpuBreakdown,
)
from .counters import Counters
from .freshness import FreshnessReport
from .ledger import ByteLedger
from .overlap import OverlapReport
from .scaling import ScalingDecision, ScalingTrace
from .slo import JobSLO, SLOReport, percentile
from .tier import JobRoundStat, TierReport, TierRound

__all__ = [
    "ByteLedger",
    "Counters",
    "FreshnessReport",
    "IterationBreakdown",
    "JobRoundStat",
    "JobSLO",
    "OverlapReport",
    "percentile",
    "QueueWaitBreakdown",
    "ReaderCpuBreakdown",
    "ScalingDecision",
    "ScalingTrace",
    "SLOReport",
    "TierReport",
    "TierRound",
]
