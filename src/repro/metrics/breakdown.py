"""Phase-level time breakdowns for readers and trainers.

These mirror the two breakdown figures of the paper: Fig 10 (reader CPU
time split across Fill / Convert / Process) and Fig 8 (trainer iteration
latency split across EMB / GEMM / A2A / Other).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import Folded

__all__ = ["ReaderCpuBreakdown", "IterationBreakdown", "QueueWaitBreakdown"]


class _PhaseBreakdown(Folded):
    """Per-phase seconds whose serialized form ends with their total."""

    derived = ("total",)

    def normalized_to(self, baseline) -> dict[str, float]:
        """Each phase (and the total) as a fraction of the *baseline
        total* — the exact normalization Figs 8 and 10 plot."""
        denom = baseline.total or 1.0
        return {key: value / denom for key, value in self.as_dict().items()}


@dataclass
class ReaderCpuBreakdown(_PhaseBreakdown):
    """Modeled reader CPU seconds per pipeline phase (Fig 10)."""

    fill: float = 0.0
    convert: float = 0.0
    process: float = 0.0

    @property
    def total(self) -> float:
        """Summed reader CPU seconds across the three phases."""
        return self.fill + self.convert + self.process


@dataclass
class QueueWaitBreakdown(Folded):
    """Seconds a fleet's batches spent at its queues.

    ``put_wait`` and ``get_wait`` are *measured* by the ``process``
    executor, the only one with queues; the ``inprocess`` scan has none
    and leaves both 0.  ``put_wait`` is producer-side blocking: a
    worker finished a batch but its bounded queue was full, i.e. that
    worker ran *ahead* of the in-order drain.  Because the merge loop
    empties shards in order, a later shard's put_wait mixes genuine
    consumer slowness with simply waiting for its merge turn — so large
    put_wait means "readers are over-provisioned relative to downstream
    consumption", not specifically "the consumer is slow".
    ``get_wait`` is unambiguous consumer-side starvation: the merge loop
    waited for the next batch, so the readers are the bottleneck — the
    §2.1 under-provisioning signal the reader tier is sized to
    eliminate.  ``transport`` is the modeled per-batch handoff cost at
    the worker→trainer boundary under every executor: serialize/copy
    seconds charged by the ``copy`` transport (zero under ``shm``) — the
    serial consumer-side term that bends wide-fleet scaling once decode
    is sharded far enough.
    """

    put_wait: float = 0.0
    get_wait: float = 0.0
    transport: float = 0.0

    derived = ("total",)

    @property
    def total(self) -> float:
        """Summed queue-blocked wall-clock: both sides plus transport."""
        return self.put_wait + self.get_wait + self.transport


@dataclass
class IterationBreakdown(_PhaseBreakdown):
    """Modeled exposed (non-overlapped) trainer latency per phase (Fig 8)."""

    emb_lookup: float = 0.0
    gemm: float = 0.0
    a2a: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        """Summed exposed iteration latency across the four phases."""
        return self.emb_lookup + self.gemm + self.a2a + self.other
