"""Functional-equivalence tests for the O5–O7 sparse paths.

The paper's correctness claim (§6.2): "IKJTs encode the exact same
logical data as KJTs and thus trainers can train on the exact same
batches."  Every flag combination must produce identical pooled outputs
AND identical embedding-table gradients.
"""

import itertools

import numpy as np
import pytest

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.datagen.schema import PoolingKind, SparseFeatureSpec
from repro.reader.batch import Batch
from repro.trainer import (
    DLRM,
    AttentionPooling,
    DLRMConfig,
    EmbeddingTable,
    SparseArch,
    SparseFeature,
    SumPooling,
    TransformerPooling,
    TrainerOptFlags,
)


def make_batch_kjt(rng, batch=12, dup_factor=3):
    """A KJT whose rows repeat in blocks (session-like duplication)."""
    rows = []
    current = {}
    for i in range(batch):
        if i % dup_factor == 0:
            current = {
                "f1": rng.integers(0, 50, size=rng.integers(1, 6)).tolist(),
                "f2": rng.integers(0, 50, size=rng.integers(1, 4)).tolist(),
            }
        rows.append(dict(current))
    return KeyedJaggedTensor.from_rows(rows, keys=["f1", "f2"])


def build_arch(flags, pooling_cls, seed=0):
    rng = np.random.default_rng(seed)
    dim = 4
    features = {}
    for name in ("f1", "f2"):
        table = EmbeddingTable(64, dim, np.random.default_rng(seed + hash(name) % 97), name=name)
        pool = (
            pooling_cls(dim, rng=np.random.default_rng(5))
            if pooling_cls is not SumPooling
            else SumPooling()
        )
        features[name] = SparseFeature(name, table, pool)
    return SparseArch(features, flags)


ALL_FLAG_COMBOS = [
    TrainerOptFlags(dedup_emb=a, jagged_index_select=b, dedup_compute=c)
    for a, b, c in itertools.product([False, True], repeat=3)
    if not (c and not a)  # dedup compute requires dedup emb lookups
]


@pytest.mark.parametrize("pooling_cls", [SumPooling, AttentionPooling, TransformerPooling])
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS)
def test_ikjt_path_matches_kjt_path(pooling_cls, flags):
    rng = np.random.default_rng(3)
    kjt = make_batch_kjt(rng)
    ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])

    base = build_arch(TrainerOptFlags.baseline(), pooling_cls)
    recd = build_arch(flags, pooling_cls)
    # identical initial tables by construction (same seeds)
    for t_base, t_recd in zip(base.tables(), recd.tables()):
        np.testing.assert_array_equal(t_base.weight, t_recd.weight)

    pooled_base = base.forward(kjt, [])
    pooled_recd = recd.forward(None, [ikjt])
    for a, b in zip(pooled_base, pooled_recd):
        np.testing.assert_allclose(a, b, atol=1e-10)

    # gradients must also match after backward + sparse apply
    grads = [np.random.default_rng(9).normal(size=p.shape) for p in pooled_base]
    base.backward(grads)
    recd.backward(grads)
    for t_base, t_recd in zip(base.tables(), recd.tables()):
        t_base.apply_sgd(0.1)
        t_recd.apply_sgd(0.1)
        np.testing.assert_allclose(t_base.weight, t_recd.weight, atol=1e-10)


@pytest.mark.parametrize("pooling_cls", [SumPooling, AttentionPooling, TransformerPooling])
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS)
def test_backward_never_runs_the_forward(pooling_cls, flags, monkeypatch):
    """The unique-row forward holds every intermediate the backward
    needs: under no flag combination does backward pool again."""
    kjt = make_batch_kjt(np.random.default_rng(3))
    ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])
    arch = build_arch(flags, pooling_cls)
    pooled = arch.forward(None, [ikjt])
    calls = []
    for feature in arch.features.values():
        monkeypatch.setattr(
            feature.pooling, "forward", lambda acts: calls.append(acts)
        )
    arch.backward([np.ones_like(p) for p in pooled])
    assert calls == []


@pytest.mark.parametrize("kind", list(PoolingKind))
def test_kjt_and_ikjt_steps_lose_the_same_bits(kind):
    """A KJT step and an IKJT step over the same logical batch give
    bitwise equal losses, step after step, for every pooling kind."""
    specs = [
        SparseFeatureSpec(name, cardinality=64, pooling=kind)
        for name in ("f1", "f2")
    ]
    config = DLRMConfig(
        embedding_dim=4, bottom_mlp=(8, 4), top_mlp=(8, 1), num_dense=3
    )
    base = DLRM(specs, config, TrainerOptFlags.baseline())
    recd = DLRM(specs, config, TrainerOptFlags.full())
    rng = np.random.default_rng(7)
    for _ in range(6):
        kjt = make_batch_kjt(rng, batch=24, dup_factor=4)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])
        dense = rng.normal(size=(24, 3)).astype(np.float32)
        labels = rng.integers(0, 2, size=24).astype(np.float32)
        loss_kjt = base.train_step(Batch(dense, labels, kjt=kjt))
        loss_ikjt = recd.train_step(Batch(dense, labels, ikjts=[ikjt]))
        assert loss_kjt == loss_ikjt
    for t_base, t_recd in zip(
        base.sparse_arch.tables(), recd.sparse_arch.tables()
    ):
        assert t_base.weight.tobytes() == t_recd.weight.tobytes()


class TestResourceCounters:
    def test_dedup_reduces_lookups_and_activation_bytes(self):
        """O5's claim: lookups and activation memory drop by the dedupe
        factor."""
        rng = np.random.default_rng(4)
        kjt = make_batch_kjt(rng, batch=30, dup_factor=5)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])

        base = build_arch(TrainerOptFlags.baseline(), SumPooling)
        recd = build_arch(TrainerOptFlags.full(), SumPooling)
        base.forward(kjt, [])
        recd.forward(None, [ikjt])
        factor = ikjt.dedupe_factor()
        assert factor > 2
        assert base.counters["emb_lookups"] == pytest.approx(
            recd.counters["emb_lookups"] * factor, rel=0.01
        )
        assert recd.counters["activation_bytes"] < base.counters[
            "activation_bytes"
        ]

    def test_dedup_compute_reduces_pooling_flops(self):
        """O7's claim: pooling FLOPs drop by the dedupe factor."""
        rng = np.random.default_rng(5)
        kjt = make_batch_kjt(rng, batch=30, dup_factor=5)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])
        with_dc = build_arch(TrainerOptFlags.full(), TransformerPooling)
        without_dc = build_arch(
            TrainerOptFlags(dedup_emb=True, jagged_index_select=True,
                            dedup_compute=False),
            TransformerPooling,
        )
        with_dc.forward(None, [ikjt])
        without_dc.forward(None, [ikjt])
        assert (
            with_dc.counters["pooling_flops"]
            < without_dc.counters["pooling_flops"] / 2
        )

    def test_dense_index_select_pays_densify_bytes(self):
        """Without O6, IKJT expansion allocates dense intermediates."""
        rng = np.random.default_rng(6)
        kjt = make_batch_kjt(rng, batch=20, dup_factor=4)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])
        no_jis = build_arch(
            TrainerOptFlags(dedup_emb=True, jagged_index_select=False,
                            dedup_compute=False),
            SumPooling,
        )
        jis = build_arch(
            TrainerOptFlags(dedup_emb=True, jagged_index_select=True,
                            dedup_compute=False),
            SumPooling,
        )
        no_jis.forward(None, [ikjt])
        jis.forward(None, [ikjt])
        assert no_jis.counters["densify_bytes"] > 0
        assert jis.counters["densify_bytes"] == 0


class TestValidation:
    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            SparseArch({}, TrainerOptFlags.baseline())

    def test_unknown_feature_key(self):
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        kjt = KeyedJaggedTensor.from_rows([{"zzz": [1]}])
        with pytest.raises(KeyError):
            arch.forward(kjt, [])

    def test_no_sparse_features_in_batch(self):
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        with pytest.raises(ValueError):
            arch.forward(None, [])

    def test_gradient_count_mismatch(self):
        rng = np.random.default_rng(0)
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        kjt = make_batch_kjt(rng)
        arch.forward(kjt, [])
        with pytest.raises(ValueError):
            arch.backward([np.zeros((12, 4))])

    def test_backward_before_forward(self):
        arch = build_arch(TrainerOptFlags.baseline(), SumPooling)
        feature = arch.features["f1"]
        with pytest.raises(RuntimeError):
            feature.backward(np.zeros((1, 4)))
