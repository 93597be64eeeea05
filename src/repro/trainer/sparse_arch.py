"""Sparse feature architecture: EMB lookup + pooling over KJTs or IKJTs.

This is where RecD's trainer-side optimizations (Table 1, O5–O7) live:

* **O5 Deduplicated EMB** — look up only the IKJT's unique rows, cutting
  EMB lookups (HBM bandwidth) and activation memory by DedupeFactor(f).
* **O6 JaggedIndexSelect** — when an IKJT must be expanded back to
  per-batch-row form, gather jagged rows directly instead of padding to
  dense first (the memory-overhead path it replaces is also implemented,
  for the ablation).
* **O7 Deduplicated Compute** — run the pooling module (attention /
  transformer included) on unique rows only, then expand the *pooled*
  output with the shared ``inverse_lookup``.

Every combination of flags is functionally identical — asserted by the
test suite — because IKJTs encode the same logical data (§6.2).

A feature arrives in one of two forms, a KJT key or a member of an IKJT
group: :meth:`SparseArch.forward` takes exactly the batch's KJT and its
IKJTs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ikjt import InverseKeyedJaggedTensor
from ..core.jagged import JaggedTensor
from ..core.jagged_ops import (
    dense_index_select,
    expand_pooled,
    gather_indices,
    jagged_index_select,
)
from ..metrics.counters import Counters
from .embedding import EmbeddingActivations, EmbeddingTable
from .params import Parameter
from .pooling import PoolingModule

__all__ = ["TrainerOptFlags", "SparseFeature", "SparseArch"]


@dataclass(frozen=True)
class TrainerOptFlags:
    """RecD trainer optimization toggles (for the Fig 9 ablation)."""

    dedup_emb: bool = True  # O5
    jagged_index_select: bool = True  # O6
    dedup_compute: bool = True  # O7

    @classmethod
    def baseline(cls) -> "TrainerOptFlags":
        return cls(False, False, False)

    @classmethod
    def full(cls) -> "TrainerOptFlags":
        return cls(True, True, True)


class SparseFeature:
    """One feature's table + pooling pair with KJT and IKJT paths."""

    def __init__(
        self, name: str, table: EmbeddingTable, pooling: PoolingModule
    ):
        self.name = name
        self.table = table
        self.pooling = pooling
        self._acts: EmbeddingActivations | None = None
        self._inverse: np.ndarray | None = None
        self._mode: str = "kjt"

    # -- forward ------------------------------------------------------------

    def forward_kjt(self, jt: JaggedTensor, counters: Counters) -> np.ndarray:
        """Baseline path: lookup + pool every (duplicate) batch row."""
        acts = self.table.lookup(jt)
        self._acts, self._inverse, self._mode = acts, None, "kjt"
        counters.add("emb_lookups", jt.total_values)
        counters.add("activation_bytes", acts.nbytes)
        counters.add(
            "pooling_flops",
            self.pooling.flops(jt.total_values, self.table.dim, acts.num_rows),
        )
        return self.pooling.forward(acts)

    def forward_ikjt(
        self,
        jt: JaggedTensor,
        inverse_lookup: np.ndarray,
        flags: TrainerOptFlags,
        counters: Counters,
    ) -> np.ndarray:
        """IKJT path under the given optimization flags.

        ``jt`` holds the *deduplicated* rows; ``inverse_lookup`` maps the
        batch onto them.
        """
        if not flags.dedup_emb:
            # expand the jagged IDs back to batch rows first (O6 decides how)
            if flags.jagged_index_select:
                expanded = jagged_index_select(jt, inverse_lookup)
            else:
                expanded = dense_index_select(jt, inverse_lookup)
                # the dense detour allocates batch x max_len temporarily
                lengths = jt.lengths
                max_len = int(lengths.max()) if lengths.size else 0
                counters.add(
                    "densify_bytes", inverse_lookup.size * max_len * 8
                )
            return self.forward_kjt(expanded, counters)

        acts = self.table.lookup(jt)  # unique rows only (O5)
        counters.add("emb_lookups", jt.total_values)
        counters.add("activation_bytes", acts.nbytes)
        if flags.dedup_compute:
            # O7: pool unique rows, expand pooled output
            counters.add(
                "pooling_flops",
                self.pooling.flops(
                    jt.total_values, self.table.dim, acts.num_rows
                ),
            )
            pooled_unique = self.pooling.forward(acts)
            self._acts, self._inverse, self._mode = acts, inverse_lookup, "dedup"
            counters.add(
                "index_select_bytes", inverse_lookup.size * self.table.dim * 8
            )
            return expand_pooled(pooled_unique, inverse_lookup)

        # O5 without O7: expand *activations* to batch rows, pool those.
        if flags.jagged_index_select:
            batch_values, batch_offsets = _expand_activations_jagged(
                acts, inverse_lookup
            )
        else:
            batch_values, batch_offsets = _expand_activations_dense(
                acts, inverse_lookup, counters
            )
        batch_acts = EmbeddingActivations(
            batch_values, batch_offsets, acts.ids
        )
        counters.add("activation_bytes", batch_acts.nbytes)
        counters.add(
            "pooling_flops",
            self.pooling.flops(
                batch_values.shape[0], self.table.dim, inverse_lookup.size
            ),
        )
        self._acts, self._inverse, self._mode = acts, inverse_lookup, "expanded"
        return self.pooling.forward(batch_acts)

    # -- backward -----------------------------------------------------------

    def backward(self, dpooled: np.ndarray) -> None:
        """Route pooled gradients back to the embedding table.

        Saved in measured wall: forward compute on duplicates.  Under
        O7 the pooling module ran on unique rows only and is never run
        again; ``expand_cache`` re-indexes its intermediates to batch
        shape by ``inverse_lookup`` — gathers, no float math.

        Per-copy by contract: the backward itself.  Gradients flow per
        batch row and accumulate per copy, exactly as ``forward_kjt``'s
        backward would, so pooling-parameter gradients, the embedding
        gradient order and every loss are bitwise the KJT path's.

        Excluded: folding per-copy ``dpooled`` onto unique rows first
        (the paper's O7 backward).  It regroups float additions
        (``w - lr*(g1+g2) != (w - lr*g1) - lr*g2``) and drifts the loss
        trajectory by ULPs from step 2 on, breaking the repo's
        bit-identity contract.
        """
        if self._acts is None:
            raise RuntimeError("backward before forward")
        acts, inverse = self._acts, self._inverse
        if self._mode == "kjt":
            dacts = self.pooling.backward(dpooled)
            self.table.accumulate_grad(acts.ids, dacts)
            return
        src, batch_offsets = gather_indices(acts.offsets, inverse)
        if self._mode == "dedup":
            # pooling ran on unique rows; make its cache batch-shaped, once
            self.pooling.expand_cache(inverse, src, batch_offsets)
            self._mode = "expanded"
        # "expanded" mode pooled batch rows already; its cache is live
        d_batch_values = self.pooling.backward(dpooled)
        self.table.accumulate_grad(acts.ids[src], d_batch_values)

    def params(self) -> list[Parameter]:
        return self.pooling.params()


def _expand_activations_jagged(
    acts: EmbeddingActivations, inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather unique activation rows into batch order (O6 path, 2-D)."""
    src, offsets = gather_indices(acts.offsets, inverse)
    return acts.values[src], offsets


def _expand_activations_dense(
    acts: EmbeddingActivations, inverse: np.ndarray, counters: Counters
) -> tuple[np.ndarray, np.ndarray]:
    """The pre-O6 path: pad unique activations dense, index_select, re-jag."""
    lengths = np.diff(acts.offsets)
    max_len = int(lengths.max()) if lengths.size else 0
    num_unique = lengths.size
    dim = acts.values.shape[1]
    dense = np.zeros((num_unique, max_len, dim))
    if max_len:
        mask = np.arange(max_len)[None, :] < lengths[:, None]
        dense[mask] = acts.values
    picked = dense[inverse]  # (B, max_len, D) — the memory overhead
    counters.add("densify_bytes", picked.nbytes + dense.nbytes)
    sel = lengths[inverse]
    offsets = np.zeros(inverse.size + 1, dtype=np.int64)
    np.cumsum(sel, out=offsets[1:])
    if max_len:
        mask_b = np.arange(max_len)[None, :] < sel[:, None]
        values = picked[mask_b]
    else:
        values = np.zeros((0, dim))
    return values, offsets


class SparseArch:
    """All sparse features of one model, split into KJT and IKJT groups."""

    def __init__(
        self,
        features: dict[str, SparseFeature],
        flags: TrainerOptFlags | None = None,
    ):
        if not features:
            raise ValueError("need at least one sparse feature")
        self.features = features
        self.flags = flags or TrainerOptFlags.baseline()
        self.counters = Counters()
        self._order: list[str] = []

    def forward(
        self, kjt, ikjts: list[InverseKeyedJaggedTensor]
    ) -> list[np.ndarray]:
        """Pooled (B, D) vectors in *model* feature order.

        Ordering by the model's declared feature order (not batch arrival
        order) keeps the interaction layer's input layout identical
        whether a feature arrived as KJT or IKJT — a requirement for the
        bit-equivalence the paper claims in §6.2.
        """
        by_key: dict[str, np.ndarray] = {}
        if kjt is not None:
            for key in kjt.keys:
                feature = self._feature(key)
                by_key[key] = feature.forward_kjt(kjt[key], self.counters)
        for ikjt in ikjts:
            for key in ikjt.keys:
                feature = self._feature(key)
                by_key[key] = feature.forward_ikjt(
                    ikjt[key],
                    ikjt.inverse_lookup,
                    self.flags,
                    self.counters,
                )
        if not by_key:
            raise ValueError("batch carried no sparse features")
        self._order = [k for k in self.features if k in by_key]
        return [by_key[k] for k in self._order]

    def backward(self, dpooled: list[np.ndarray]) -> None:
        if len(dpooled) != len(self._order):
            raise ValueError("gradient count mismatch")
        for key, grad in zip(self._order, dpooled):
            self.features[key].backward(grad)

    def _feature(self, key: str) -> SparseFeature:
        try:
            return self.features[key]
        except KeyError:
            raise KeyError(f"model has no sparse feature {key!r}") from None

    @property
    def order(self) -> list[str]:
        return list(self._order)

    def params(self) -> list[Parameter]:
        return [p for f in self.features.values() for p in f.params()]

    def tables(self) -> list[EmbeddingTable]:
        return [f.table for f in self.features.values()]
