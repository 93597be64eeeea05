"""Integration tests for the §7 partial-IKJT path through the reader and
trainer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.distributed import DistributedTrainer, sim_cluster
from repro.reader import DataLoaderConfig, apply_transforms, convert_rows
from repro.trainer import DLRM, DLRMConfig, TrainerOptFlags

from tests.conftest import make_reader_schema, make_trace


def _schema():
    # hist shifts often here (change_prob 0.3): the regime where partial
    # dedup wins over exact dedup
    return make_reader_schema(hist_avg_length=12, hist_change_prob=0.3)


def _rows(n=48, seed=0):
    samples = make_trace(_schema(), sessions=20, seed=seed, clustered=True)
    return samples[:n]


def _partial_cfg(transforms=()):
    return DataLoaderConfig(
        batch_size=48,
        sparse_features=("item",),
        partial_dedup_sparse_features=("hist",),
        dense_features=("d",),
        transforms=transforms,
    )


class TestConfig:
    def test_feature_in_partial_and_plain_rejected(self):
        with pytest.raises(ValueError):
            DataLoaderConfig(
                batch_size=1,
                sparse_features=("a",),
                partial_dedup_sparse_features=("a",),
            )

    def test_feature_in_partial_and_exact_rejected(self):
        with pytest.raises(ValueError):
            DataLoaderConfig(
                batch_size=1,
                dedup_sparse_features=(("a",),),
                partial_dedup_sparse_features=("a",),
            )

    def test_all_sparse_names_includes_partial(self):
        cfg = _partial_cfg()
        assert set(cfg.all_sparse_names) == {"item", "hist"}

    def test_without_dedup_flattens(self):
        base = _partial_cfg().without_dedup()
        assert base.partial_dedup_sparse_features == ()
        assert set(base.sparse_features) == {"item", "hist"}


class TestConvert:
    def test_partial_batch_lossless(self):
        rows = _rows()
        batch, stats = convert_rows(rows, _partial_cfg())
        assert batch.partial is not None
        assert stats.values_hashed > 0
        expanded = batch.to_kjt_only()
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(
                expanded.kjt["hist"].row(i), r.sparse["hist"]
            )

    def test_partial_shrinks_wire_bytes(self):
        rows = _rows()
        partial_batch, _ = convert_rows(rows, _partial_cfg())
        plain_batch, _ = convert_rows(
            rows, _partial_cfg().without_dedup()
        )
        assert partial_batch.wire_nbytes < plain_batch.wire_nbytes

    def test_partial_beats_exact_on_shifted_feature(self):
        """hist shifts often (change_prob 0.3): partial captures the
        shifted lists exact dedup cannot."""
        rows = _rows()
        partial_batch, _ = convert_rows(rows, _partial_cfg())
        exact_cfg = DataLoaderConfig(
            batch_size=48,
            sparse_features=("item",),
            dedup_sparse_features=(("hist",),),
            dense_features=("d",),
        )
        exact_batch, _ = convert_rows(rows, exact_cfg)
        partial_values = partial_batch.partial["hist"].total_values
        exact_values = exact_batch.ikjts[0]["hist"].total_values
        assert partial_values < exact_values


class TestTransforms:
    def test_elementwise_transform_over_partial(self):
        rows = _rows()
        batch, _ = convert_rows(rows, _partial_cfg(("hash_modulo",)))
        out, stats = apply_transforms(batch, ("hash_modulo",))
        assert stats.values_processed > 0
        # equivalence with the plain path
        plain, _ = convert_rows(rows, _partial_cfg().without_dedup())
        plain_out, _ = apply_transforms(plain, ("hash_modulo",))
        expanded = out.to_kjt_only()
        assert expanded.kjt["hist"] == plain_out.kjt["hist"]

    def test_structural_transform_rejected(self):
        rows = _rows()
        batch, _ = convert_rows(rows, _partial_cfg())
        with pytest.raises(ValueError):
            apply_transforms(batch, ("truncate_length",))


class TestThroughReaderNode:
    def test_partial_config_through_landed_table(self):
        """The §7 path must work over real stored data, not just in-memory
        rows: land a partition, read it with a partial config, verify
        losslessness and the wire saving."""
        from repro.reader import ReaderNode

        from tests.conftest import land_samples

        schema = _schema()
        samples = _rows(n=96, seed=6)
        table = land_samples(
            schema, samples, rows_per_file=256, stripe_rows=32
        )

        cfg = DataLoaderConfig(
            batch_size=48,
            sparse_features=("item",),
            partial_dedup_sparse_features=("hist",),
            dense_features=("d",),
            transforms=("hash_modulo",),
        )
        node = ReaderNode(cfg)
        batches = node.run_all(table.open_readers("p"))
        assert batches and all(b.partial is not None for b in batches)

        plain_node = ReaderNode(cfg.without_dedup())
        plain_batches = plain_node.run_all(table.open_readers("p"))
        assert node.report.bytes.decoded < plain_node.report.bytes.decoded
        for pb, qb in zip(plain_batches, batches):
            expanded = qb.to_kjt_only()
            assert expanded.kjt["hist"] == pb.kjt["hist"]


def _dlrm_cfg():
    return DLRMConfig(
        embedding_dim=8,
        bottom_mlp=(8, 8),
        top_mlp=(8, 1),
        num_dense=1,
        max_table_rows=200,
        seed=2,
    )


class TestTraining:
    def test_partial_training_matches_plain(self):
        schema = _schema()
        cfg = _dlrm_cfg()
        plain_model = DLRM(list(schema.sparse), cfg, TrainerOptFlags.baseline())
        partial_model = DLRM(list(schema.sparse), cfg, TrainerOptFlags.baseline())
        rows = _rows(seed=4)
        plain_batch, _ = convert_rows(rows, _partial_cfg().without_dedup())
        partial_batch, _ = convert_rows(rows, _partial_cfg())
        lp = plain_model.train_step(plain_batch)
        lq = partial_model.train_step(partial_batch)
        assert lp == pytest.approx(lq, rel=1e-9)
        for a, b in zip(
            plain_model.sparse_arch.tables(),
            partial_model.sparse_arch.tables(),
        ):
            np.testing.assert_allclose(a.weight, b.weight, atol=1e-10)

    def test_logical_flops_count_partial_features(self):
        """Table 2's compute efficiency is logical (baseline-path) work
        per GPU-second: a partial batch pools ``hist`` through the same
        module as its expanded twin, so both report the same FLOPs."""
        schema = _schema()
        cfg = _dlrm_cfg()
        trainer = DistributedTrainer(
            DLRM(list(schema.sparse), cfg, TrainerOptFlags.baseline()),
            sim_cluster(),
        )
        batch, _ = convert_rows(_rows(seed=4), _partial_cfg())
        twin = batch.to_kjt_only()
        assert batch.partial is not None and twin.partial is None
        got = trainer._logical_fwd_flops({}, batch)
        assert got == trainer._logical_fwd_flops({}, twin)
        item_only = trainer._logical_fwd_flops({}, replace(batch, partial=None))
        assert got > item_only > 0
