"""DataLoader configuration — how a training job describes its input.

§4.2: ML engineers add a ``dedup_sparse_features`` field, a
``List[List[featureKey]]`` of feature groups to deduplicate, next to the
usual ``sparse_features`` list.  Features named in neither list are not
materialized (the job does not use them).  A feature is a plain KJT key
or a member of one IKJT group; there is no third form.  Every name list
and every transform name is checked at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import TRANSFORM_REGISTRY

__all__ = ["DataLoaderConfig"]


@dataclass(frozen=True)
class DataLoaderConfig:
    """One training job's reading/preprocessing specification."""

    batch_size: int
    #: feature keys converted to plain KJTs
    sparse_features: tuple[str, ...] = ()
    #: feature groups converted to (grouped) IKJTs — O3
    dedup_sparse_features: tuple[tuple[str, ...], ...] = ()
    dense_features: tuple[str, ...] = ()
    #: names of preprocessing transforms to apply, in order (O4)
    transforms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        # a bare string iterates as its characters, each a name
        for name in (
            "sparse_features",
            "dedup_sparse_features",
            "dense_features",
            "transforms",
        ):
            if isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a sequence of names, not a str")
        for transform in self.transforms:
            if transform not in TRANSFORM_REGISTRY:
                raise ValueError(
                    f"transforms names an unknown transform {transform!r}; "
                    f"known: {sorted(TRANSFORM_REGISTRY)}"
                )
        for group in self.dedup_sparse_features:
            if isinstance(group, str):
                raise ValueError(
                    "dedup_sparse_features groups must be sequences of "
                    f"names, got the str {group!r}"
                )
        flat = [k for group in self.dedup_sparse_features for k in group]
        if len(flat) != len(set(flat)):
            raise ValueError("a feature may appear in only one dedup group")
        claimed = [*self.sparse_features, *flat]
        if len(claimed) != len(set(claimed)):
            raise ValueError(
                "a feature may be plain or exact-dedup — not both at once"
            )
        for group in self.dedup_sparse_features:
            if not group:
                raise ValueError("empty dedup group")

    @property
    def dedup_feature_names(self) -> list[str]:
        """Flat list of the features in every exact-dedup group."""
        return [k for group in self.dedup_sparse_features for k in group]

    @property
    def all_sparse_names(self) -> list[str]:
        """Every sparse feature the loader emits, dedup'd or not."""
        return list(self.sparse_features) + self.dedup_feature_names

    def without_dedup(self) -> "DataLoaderConfig":
        """The baseline config: same features, all as plain KJTs."""
        return DataLoaderConfig(
            batch_size=self.batch_size,
            sparse_features=tuple(self.all_sparse_names),
            dedup_sparse_features=(),
            dense_features=self.dense_features,
            transforms=self.transforms,
        )
