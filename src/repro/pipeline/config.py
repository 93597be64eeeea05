"""End-to-end experiment configuration: the O1–O7 toggle surface.

A :class:`RecDToggles` instance selects which of Table 1's optimizations
are active; :func:`RecDToggles.baseline` and :func:`RecDToggles.full`
are the two Fig 7 endpoints, and intermediate combinations drive the
Fig 9 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..trainer.sparse_arch import TrainerOptFlags

__all__ = ["RecDToggles"]


@dataclass(frozen=True)
class RecDToggles:
    """Which RecD optimizations (Table 1) are enabled."""

    o1_shard_by_session: bool = False
    o2_cluster_table: bool = False
    o3_ikjt: bool = False  # readers emit IKJTs (implies O4's wrapper)
    o5_dedup_emb: bool = False
    o6_jagged_index_select: bool = False
    o7_dedup_compute: bool = False

    def __post_init__(self) -> None:
        if (self.o5_dedup_emb or self.o7_dedup_compute) and not self.o3_ikjt:
            raise ValueError("trainer dedup (O5/O7) requires IKJT input (O3)")
        if self.o7_dedup_compute and not self.o5_dedup_emb:
            raise ValueError("O7 builds on O5's deduplicated lookups")

    @classmethod
    def baseline(cls) -> "RecDToggles":
        """No optimizations: the Fig 7 baseline endpoint."""
        return cls()

    @classmethod
    def full(cls) -> "RecDToggles":
        """All of O1-O7: the Fig 7 RecD endpoint."""
        return cls(
            o1_shard_by_session=True,
            o2_cluster_table=True,
            o3_ikjt=True,
            o5_dedup_emb=True,
            o6_jagged_index_select=True,
            o7_dedup_compute=True,
        )

    def with_(self, **kwargs) -> "RecDToggles":
        """A copy with the given toggles flipped (ablation sweeps)."""
        return replace(self, **kwargs)

    @property
    def trainer_flags(self) -> TrainerOptFlags:
        """The trainer-side (O5-O7) subset, in the trainer's terms."""
        return TrainerOptFlags(
            dedup_emb=self.o5_dedup_emb,
            jagged_index_select=self.o6_jagged_index_select,
            dedup_compute=self.o7_dedup_compute,
        )
