"""Resource counters shared across the pipeline simulation.

Every RecD result is a resource story — bytes over a network, embedding
lookups against HBM, FLOPs in a pooling module, GPU memory held by
activations.  These counters are the single currency the reader and
trainer cost models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counters"]


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

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def as_dict(self) -> dict[str, float]:
        """A snapshot copy of every counter (hand-written: a copy of
        the name-keyed bag, there are no fields to derive from)."""
        return dict(self.values)
