"""Resource counters shared across the pipeline simulation.

Every RecD result is a resource story — bytes over a network, embedding
lookups against HBM, FLOPs in a pooling module, GPU memory held by
activations.  These counters are the single currency the reader and
trainer cost models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counters", "MemoryTracker"]


@dataclass
class Counters:
    """A named bag of additive counters."""

    values: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        """Accumulate ``amount`` into the named counter."""
        self.values[name] = self.values.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """The counter's value (0.0 if never touched)."""
        return self.values.get(name, 0.0)

    def merge(self, other: "Counters") -> None:
        """Fold another bag's counters in, name by name (hand-written:
        the bag is keyed by runtime names, ``Folded`` folds fields)."""
        for name, amount in other.values.items():
            self.add(name, amount)

    def reset(self) -> None:
        """Zero every counter."""
        self.values.clear()

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def as_dict(self) -> dict[str, float]:
        """A snapshot copy of every counter (hand-written: a copy of
        the name-keyed bag, there are no fields to derive from)."""
        return dict(self.values)


class MemoryTracker:
    """Tracks current and peak allocation of a simulated device memory."""

    def __init__(self, capacity_bytes: int | None = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.current_bytes = 0
        self.peak_bytes = 0

    def alloc(self, nbytes: int) -> None:
        """Claim bytes; raises ``MemoryError`` past a bounded capacity."""
        if nbytes < 0:
            raise ValueError("cannot allocate negative bytes")
        new = self.current_bytes + nbytes
        if self.capacity_bytes is not None and new > self.capacity_bytes:
            raise MemoryError(
                f"allocation of {nbytes} exceeds capacity "
                f"({new} > {self.capacity_bytes})"
            )
        self.current_bytes = new
        self.peak_bytes = max(self.peak_bytes, new)

    def free(self, nbytes: int) -> None:
        """Release previously claimed bytes (peak is unaffected)."""
        if nbytes < 0:
            raise ValueError("cannot free negative bytes")
        if nbytes > self.current_bytes:
            raise ValueError(
                f"freeing {nbytes} but only {self.current_bytes} allocated"
            )
        self.current_bytes -= nbytes

    def reset_peak(self) -> None:
        """Restart peak tracking from the current allocation."""
        self.peak_bytes = self.current_bytes

    @property
    def utilization(self) -> float:
        """Current utilization in [0, 1]; 0 when capacity is unbounded."""
        if not self.capacity_bytes:
            return 0.0
        return self.current_bytes / self.capacity_bytes

    @property
    def peak_utilization(self) -> float:
        """Peak utilization in [0, 1]; 0 when capacity is unbounded."""
        if not self.capacity_bytes:
            return 0.0
        return self.peak_bytes / self.capacity_bytes
