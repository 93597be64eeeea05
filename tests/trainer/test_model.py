"""End-to-end DLRM tests: training works and KJT==IKJT batches train
identically."""

import numpy as np
import pytest

from repro.datagen import rm1
from repro.reader import DataLoaderConfig, convert_rows
from repro.trainer import DLRM, DLRMConfig, TrainerOptFlags
from repro.trainer.embedding import EmbeddingTable
from tests.conftest import make_trace


def small_workload():
    return rm1(scale=0.1)


def make_batches(workload, dedup: bool, n_batches=2, batch_size=32, seed=0):
    samples = make_trace(workload.schema, sessions=30, seed=seed, clustered=True)
    if dedup:
        cfg = DataLoaderConfig(
            batch_size=batch_size,
            sparse_features=tuple(
                f.name
                for f in workload.schema.sparse
                if f.name not in workload.dedup_feature_names
            ),
            dedup_sparse_features=workload.dedup_groups,
            dense_features=tuple(workload.schema.dense_names),
        )
    else:
        cfg = DataLoaderConfig(
            batch_size=batch_size,
            sparse_features=tuple(workload.schema.sparse_names),
            dense_features=tuple(workload.schema.dense_names),
        )
    batches = []
    for i in range(n_batches):
        rows = samples[i * batch_size : (i + 1) * batch_size]
        batch, _ = convert_rows(rows, cfg)
        batches.append(batch)
    return batches


def make_model(workload, flags, seed=1):
    cfg = DLRMConfig.from_workload(workload, max_table_rows=500, seed=seed)
    return DLRM(list(workload.schema.sparse), cfg, flags)


class TestConstruction:
    def test_requires_sparse_features(self):
        w = small_workload()
        with pytest.raises(ValueError):
            DLRM([], DLRMConfig.from_workload(w))

    def test_bottom_mlp_dim_validation(self):
        w = small_workload()
        cfg = DLRMConfig(
            embedding_dim=16,
            bottom_mlp=(8, 4),  # doesn't end at 16
            top_mlp=(8, 1),
            num_dense=4,
        )
        with pytest.raises(ValueError):
            DLRM(list(w.schema.sparse), cfg)

    def test_top_mlp_must_output_logit(self):
        w = small_workload()
        cfg = DLRMConfig(
            embedding_dim=16,
            bottom_mlp=(8, 16),
            top_mlp=(8, 2),
            num_dense=4,
        )
        with pytest.raises(ValueError):
            DLRM(list(w.schema.sparse), cfg)

    def test_table_rows_capped(self):
        w = small_workload()
        model = make_model(w, TrainerOptFlags.baseline())
        for table in model.sparse_arch.tables():
            assert table.num_rows <= 500
        assert model.embedding_nbytes() > 0


class TestTraining:
    def test_forward_shapes(self):
        w = small_workload()
        model = make_model(w, TrainerOptFlags.baseline())
        (batch,) = make_batches(w, dedup=False, n_batches=1)
        logits = model.forward(batch)
        assert logits.shape == (batch.batch_size,)

    def test_loss_decreases_on_repeated_batch(self):
        w = small_workload()
        model = make_model(w, TrainerOptFlags.baseline())
        (batch,) = make_batches(w, dedup=False, n_batches=1)
        losses = [model.train_step(batch) for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_backward_before_forward(self):
        w = small_workload()
        model = make_model(w, TrainerOptFlags.baseline())
        with pytest.raises(RuntimeError):
            model.backward(np.zeros(4))


class TestKjtIkjtTrainingEquivalence:
    def test_identical_training_trajectory(self):
        """Training on IKJT batches with full RecD flags must follow the
        exact same loss trajectory as KJT batches on the baseline."""
        w = small_workload()
        base_model = make_model(w, TrainerOptFlags.baseline(), seed=3)
        recd_model = make_model(w, TrainerOptFlags.full(), seed=3)
        base_batches = make_batches(w, dedup=False, n_batches=3, seed=11)
        recd_batches = make_batches(w, dedup=True, n_batches=3, seed=11)
        for bb, rb in zip(base_batches, recd_batches):
            lb = base_model.train_step(bb)
            lr_ = recd_model.train_step(rb)
            assert lb == pytest.approx(lr_, rel=1e-9)
        # weights end up identical too
        for tb, tr in zip(
            base_model.sparse_arch.tables(), recd_model.sparse_arch.tables()
        ):
            np.testing.assert_allclose(tb.weight, tr.weight, atol=1e-9)

    def test_recd_uses_fewer_resources(self):
        w = small_workload()
        base_model = make_model(w, TrainerOptFlags.baseline(), seed=3)
        recd_model = make_model(w, TrainerOptFlags.full(), seed=3)
        (bb,) = make_batches(w, dedup=False, n_batches=1, seed=12)
        (rb,) = make_batches(w, dedup=True, n_batches=1, seed=12)
        base_model.train_step(bb)
        recd_model.train_step(rb)
        assert (
            recd_model.counters["emb_lookups"]
            < base_model.counters["emb_lookups"]
        )
        assert (
            recd_model.counters["pooling_flops"]
            < base_model.counters["pooling_flops"]
        )


class TestSparseSGD:
    def test_train_step_moves_only_looked_up_rows(self, monkeypatch):
        """Embeddings train by sparse SGD: a step changes exactly the
        rows its batch looked up, each by ``-lr`` times its summed
        gradient."""
        w = small_workload()
        model = make_model(w, TrainerOptFlags.baseline())
        (batch,) = make_batches(w, dedup=False, n_batches=1, seed=4)
        tables = [f.table for f in model.sparse_arch.features.values()]
        before = [t.weight.copy() for t in tables]
        seen = {}
        apply_sgd = EmbeddingTable.apply_sgd

        def spy(table, lr, track_updates=False):
            total = np.zeros_like(table.weight)
            for ids, g in zip(table._grad_ids, table._grad_values):
                np.add.at(total, ids, g)
            touched = np.unique(np.concatenate(table._grad_ids))
            seen[id(table)] = (touched, total, lr)
            apply_sgd(table, lr, track_updates)

        monkeypatch.setattr(EmbeddingTable, "apply_sgd", spy)
        model.train_step(batch)
        assert seen.keys() == {id(t) for t in tables}
        for table, old in zip(tables, before):
            touched, total, lr = seen[id(table)]
            assert lr == model.config.lr
            untouched = np.setdiff1d(np.arange(table.num_rows), touched)
            assert untouched.size and np.abs(total[touched]).max() > 0
            np.testing.assert_array_equal(
                table.weight[untouched], old[untouched]
            )
            np.testing.assert_allclose(
                table.weight[touched],
                old[touched] - lr * total[touched],
                rtol=1e-12,
                atol=1e-15,
            )

    def test_apply_sgd_with_no_gradient_is_a_no_op(self):
        table = EmbeddingTable(8, 2, np.random.default_rng(0))
        before = table.weight.copy()
        table.accumulate_grad(np.array([], dtype=np.int64), np.zeros((0, 2)))
        table.apply_sgd(0.1, track_updates=True)
        np.testing.assert_array_equal(table.weight, before)
        assert table.update_events == {}


class TestUpdateTracking:
    def test_repeat_update_counting(self):
        table = EmbeddingTable(16, 2, np.random.default_rng(0))
        table.accumulate_grad(np.array([1, 1, 2]), np.ones((3, 2)))
        table.apply_sgd(0.1, track_updates=True)
        table.accumulate_grad(np.array([1]), np.ones((1, 2)))
        table.apply_sgd(0.1, track_updates=True)
        assert table.update_events[1] == 2
        assert table.update_events[2] == 1
