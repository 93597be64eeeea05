"""Tests for toggles, derived job config, and the end-to-end run."""

import pytest

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    RecDToggles,
    Session,
    TrainSpec,
)


class TestRecDToggles:
    def test_baseline_all_off(self):
        t = RecDToggles.baseline()
        assert not any(
            (
                t.o1_shard_by_session,
                t.o2_cluster_table,
                t.o3_ikjt,
                t.o5_dedup_emb,
                t.o6_jagged_index_select,
                t.o7_dedup_compute,
            )
        )

    def test_full_all_on(self):
        t = RecDToggles.full()
        assert t.o1_shard_by_session and t.o7_dedup_compute

    def test_dependency_validation(self):
        with pytest.raises(ValueError):
            RecDToggles(o5_dedup_emb=True)  # needs o3
        with pytest.raises(ValueError):
            RecDToggles(o3_ikjt=True, o7_dedup_compute=True)  # needs o5

    def test_with_override(self):
        t = RecDToggles.full().with_(o7_dedup_compute=False)
        assert t.o5_dedup_emb and not t.o7_dedup_compute

    def test_trainer_flags_mapping(self):
        flags = RecDToggles.full().trainer_flags
        assert flags.dedup_emb and flags.jagged_index_select and flags.dedup_compute


class TestDerivedConfig:
    def test_effective_batch_size_follows_toggles(self, rm1_half):
        w = rm1_half
        base = JobSpec(data=DataSpec(w, toggles=RecDToggles.baseline()))
        full = JobSpec(data=DataSpec(w, toggles=RecDToggles.full()))
        assert base.effective_batch_size == w.baseline_batch_size
        assert full.effective_batch_size == w.recd_batch_size

    def test_batch_override(self, rm1_half):
        spec = JobSpec(
            data=DataSpec(rm1_half, toggles=RecDToggles.full()),
            train=TrainSpec(batch_size=99),
        )
        assert spec.effective_batch_size == 99

    def test_dataloader_config_dedup(self, rm1_half):
        w = rm1_half
        dl = JobSpec(
            data=DataSpec(w, toggles=RecDToggles.full())
        ).dataloader_config()
        assert dl.dedup_sparse_features == w.dedup_groups
        assert set(dl.all_sparse_names) == set(w.schema.sparse_names)

    def test_dataloader_config_baseline(self, rm1_half):
        w = rm1_half
        dl = JobSpec(
            data=DataSpec(w, toggles=RecDToggles.baseline())
        ).dataloader_config()
        assert dl.dedup_sparse_features == ()
        assert set(dl.sparse_features) == set(w.schema.sparse_names)


class TestRunner:
    @pytest.fixture(scope="class")
    def results(self):
        w = rm1(scale=0.25)
        out = {}
        for name, toggles in [
            ("baseline", RecDToggles.baseline()),
            ("full", RecDToggles.full()),
        ]:
            out[name] = Session(
                JobSpec(
                    data=DataSpec(
                        workload=w,
                        toggles=toggles,
                        num_sessions=120,
                        seed=3,
                    ),
                    train=TrainSpec(train_batches=2),
                )
            ).run()
        return out

    def test_all_stages_reported(self, results):
        for res in results.values():
            assert res.samples_landed > 0
            assert res.scribe.num_messages == 2 * res.samples_landed
            assert res.partition.num_rows == res.samples_landed
            assert res.reader.batches == 2
            assert len(res.training.iterations) == 2

    def test_same_rows_both_configs(self, results):
        assert (
            results["baseline"].samples_landed
            == results["full"].samples_landed
        )

    def test_recd_wins_everywhere(self, results):
        """Fig 7's qualitative claim on every axis."""
        base, full = results["baseline"], results["full"]
        assert full.trainer_qps > base.trainer_qps
        assert full.reader_qps > base.reader_qps
        assert full.storage_compression > base.storage_compression
        assert full.scribe_compression > base.scribe_compression

    def test_partition_too_small_raises(self):
        w = rm1(scale=0.25)
        with pytest.raises(ValueError):
            Session(
                JobSpec(
                    data=DataSpec(workload=w, num_sessions=1),
                    train=TrainSpec(batch_size=100_000),
                )
            ).run()
