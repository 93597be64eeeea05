"""The DLRM model: bottom MLP + sparse arch + interaction + top MLP (§2.2).

Assembled from a :class:`~repro.datagen.workloads.RMWorkload` so the three
representative models (RM1–RM3) instantiate directly.  The model runs
real NumPy math end to end — forward, loss, backward, optimizer — while
the :class:`~repro.metrics.counters.Counters` it accumulates feed the
distributed latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datagen.schema import PoolingKind, SparseFeatureSpec
from ..datagen.workloads import RMWorkload
from ..reader.batch import Batch
from .attention import AttentionPooling, TransformerPooling
from .embedding import EmbeddingTable
from .interaction import DotInteraction
from .loss import bce_with_logits
from .mlp import MLP
from .optimizer import SGD
from .pooling import MaxPooling, MeanPooling, PoolingModule, SumPooling
from .sparse_arch import SparseArch, SparseFeature, TrainerOptFlags

__all__ = ["DLRMConfig", "DLRM", "make_pooling"]


def make_pooling(
    spec: SparseFeatureSpec, dim: int, rng: np.random.Generator
) -> PoolingModule:
    """Instantiate the pooling module a feature spec asks for."""
    kind = spec.pooling
    if kind is PoolingKind.SUM:
        return SumPooling()
    if kind is PoolingKind.MEAN:
        return MeanPooling()
    if kind is PoolingKind.MAX:
        return MaxPooling()
    if kind is PoolingKind.ATTENTION:
        return AttentionPooling(dim, rng=rng)
    if kind is PoolingKind.TRANSFORMER:
        return TransformerPooling(dim, rng=rng)
    raise ValueError(f"unknown pooling kind {kind}")


@dataclass(frozen=True)
class DLRMConfig:
    """Model hyperparameters independent of the workload schema."""

    embedding_dim: int
    bottom_mlp: tuple[int, ...]
    top_mlp: tuple[int, ...]
    num_dense: int
    #: embedding rows per table (hash-capped; production tables are
    #: sharded across GPUs, §2.2)
    max_table_rows: int = 5000
    lr: float = 0.05
    seed: int = 0

    @classmethod
    def from_workload(
        cls, workload: RMWorkload, max_table_rows: int = 5000, seed: int = 0
    ) -> "DLRMConfig":
        dim = workload.embedding_dim
        # bottom MLP must end at the embedding dim for dot interaction
        bottom = tuple(workload.bottom_mlp) + (dim,)
        return cls(
            embedding_dim=dim,
            bottom_mlp=bottom,
            top_mlp=tuple(workload.top_mlp),
            num_dense=len(workload.schema.dense),
            max_table_rows=max_table_rows,
            seed=seed,
        )


class DLRM:
    """A trainable DLRM over Batch inputs (KJT and/or IKJT sparse parts)."""

    def __init__(
        self,
        sparse_specs: list[SparseFeatureSpec],
        config: DLRMConfig,
        flags: TrainerOptFlags | None = None,
    ):
        if not sparse_specs:
            raise ValueError("DLRM needs at least one sparse feature")
        rng = np.random.default_rng(config.seed)
        self.config = config
        dim = config.embedding_dim
        self.specs = {s.name: s for s in sparse_specs}
        features = {}
        for spec in sparse_specs:
            table = EmbeddingTable(
                min(spec.cardinality, config.max_table_rows),
                dim,
                rng,
                name=spec.name,
            )
            features[spec.name] = SparseFeature(
                spec.name, table, make_pooling(spec, dim, rng)
            )
        self.sparse_arch = SparseArch(features, flags or TrainerOptFlags.baseline())
        self.bottom_mlp = MLP(max(config.num_dense, 1), config.bottom_mlp, rng)
        if self.bottom_mlp.out_dim != dim:
            raise ValueError(
                "bottom MLP must end at embedding_dim for dot interaction"
            )
        self.interaction = DotInteraction()
        num_vectors = 1 + len(sparse_specs)
        inter_dim = self.interaction.output_dim(num_vectors, dim)
        self.top_mlp = MLP(inter_dim, config.top_mlp, rng)
        if self.top_mlp.out_dim != 1:
            raise ValueError("top MLP must end with a single logit")
        self.optimizer = SGD(self.dense_params(), lr=config.lr)
        self._cache: dict | None = None

    # -- parameters -----------------------------------------------------------

    def dense_params(self):
        return (
            self.bottom_mlp.params()
            + self.top_mlp.params()
            + self.sparse_arch.params()
        )

    @property
    def counters(self):
        return self.sparse_arch.counters

    @property
    def flags(self) -> TrainerOptFlags:
        return self.sparse_arch.flags

    def embedding_nbytes(self) -> int:
        return sum(t.nbytes for t in self.sparse_arch.tables())

    # -- forward / backward ---------------------------------------------------

    def forward(self, batch: Batch) -> np.ndarray:
        """Logits (B,) for one batch."""
        dense_in = (
            batch.dense.astype(np.float64)
            if batch.dense.size
            else np.zeros((batch.batch_size, 1))
        )
        dense_repr = self.bottom_mlp.forward(dense_in)
        self.counters.add(
            "mlp_flops", self.bottom_mlp.flops(batch.batch_size)
        )
        pooled = self.sparse_arch.forward(batch.kjt, batch.ikjts)
        vectors = [dense_repr] + pooled
        inter = self.interaction.forward(vectors)
        self.counters.add(
            "mlp_flops",
            self.interaction.flops(
                batch.batch_size, len(vectors), self.config.embedding_dim
            ),
        )
        logits = self.top_mlp.forward(inter).ravel()
        self.counters.add("mlp_flops", self.top_mlp.flops(batch.batch_size))
        self._cache = {"num_vectors": len(vectors)}
        return logits

    def backward(self, dlogits: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        d_inter = self.top_mlp.backward(dlogits[:, None])
        d_vectors = self.interaction.backward(d_inter)
        self.bottom_mlp.backward(d_vectors[0])
        self.sparse_arch.backward(d_vectors[1:])

    def train_step(self, batch: Batch, track_updates: bool = False) -> float:
        """One synchronous iteration: forward, BCE, backward, update."""
        self.optimizer.zero_grad()
        logits = self.forward(batch)
        loss, dlogits = bce_with_logits(logits, batch.labels)
        self.backward(dlogits)
        self.optimizer.step()
        for feature in self.sparse_arch.features.values():
            feature.table.apply_sgd(
                self.config.lr, track_updates=track_updates
            )
        return loss
