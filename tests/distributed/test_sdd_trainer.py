"""Tests for SDD volumes and the distributed-training latency model."""

import numpy as np
import pytest

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.datagen import rm1
from repro.distributed import (
    DistributedTrainer,
    plan_sharding,
    sdd_volume,
    sim_cluster,
)
from repro.reader import Batch, DataLoaderConfig, convert_rows
from repro.trainer import DLRM, DLRMConfig, TrainerOptFlags
from tests.conftest import make_trace


def dup_kjt(batch=12, values_per_row=6):
    rows = [{"f": list(range(values_per_row))} for _ in range(batch)]
    return KeyedJaggedTensor.from_rows(rows)


def make_batch(kjt=None, ikjts=None, batch=12):
    return Batch(
        dense=np.zeros((batch, 1), dtype=np.float32),
        labels=np.zeros(batch, dtype=np.float32),
        kjt=kjt,
        ikjts=ikjts or [],
    )


class TestShardingPlan:
    def test_round_robin(self):
        plan = plan_sharding(["a", "b", "c"], 2)
        assert plan.owner == {"a": 0, "b": 1, "c": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_sharding([], 2)
        with pytest.raises(ValueError):
            plan_sharding(["a"], 0)


class TestSDDVolume:
    def test_kjt_volume(self):
        kjt = dup_kjt(batch=12, values_per_row=6)
        vol = sdd_volume(make_batch(kjt=kjt))
        assert vol.input_bytes == 12 * 6 * 8 + 13 * 8
        assert vol.output_rows == 12
        assert vol.output_bytes(16) == 12 * 16 * 4

    def test_ikjt_volume_deduplicated(self):
        kjt = dup_kjt(batch=12, values_per_row=6)  # all rows identical
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        vol = sdd_volume(make_batch(ikjts=[ikjt]))
        assert vol.input_bytes == 6 * 8 + 2 * 8  # one unique row
        assert vol.output_rows == 1

    def test_ikjt_without_dedup_output(self):
        kjt = dup_kjt(batch=12)
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        vol = sdd_volume(make_batch(ikjts=[ikjt]), dedup_output=False)
        assert vol.output_rows == 12

    def test_recd_strictly_smaller_on_wire(self):
        """§4.2: IKJTs strictly decrease over-the-network tensor sizes."""
        kjt = dup_kjt(batch=20)
        base = sdd_volume(make_batch(kjt=kjt, batch=20))
        recd = sdd_volume(
            make_batch(ikjts=[InverseKeyedJaggedTensor.from_kjt(kjt)], batch=20)
        )
        assert recd.input_bytes < base.input_bytes


def _batches(w, dedup, batch_size, n=2, seed=0):
    samples = make_trace(w.schema, sessions=150, seed=seed, clustered=True)
    if dedup:
        cfg = DataLoaderConfig(
            batch_size=batch_size,
            sparse_features=tuple(
                f.name for f in w.schema.sparse
                if f.name not in w.dedup_feature_names
            ),
            dedup_sparse_features=w.dedup_groups,
            dense_features=tuple(w.schema.dense_names),
        )
    else:
        cfg = DataLoaderConfig(
            batch_size=batch_size,
            sparse_features=tuple(w.schema.sparse_names),
            dense_features=tuple(w.schema.dense_names),
        )
    return [
        convert_rows(samples[i * batch_size : (i + 1) * batch_size], cfg)[0]
        for i in range(n)
    ]


class TestDistributedTrainer:
    @pytest.fixture(scope="class")
    def reports(self):
        w = rm1(scale=0.5)
        cluster = sim_cluster(num_gpus=48)
        out = {}
        for name, flags, dedup in [
            ("baseline", TrainerOptFlags.baseline(), False),
            ("recd", TrainerOptFlags.full(), True),
        ]:
            model = DLRM(
                list(w.schema.sparse),
                DLRMConfig.from_workload(w, max_table_rows=1000, seed=1),
                flags,
            )
            trainer = DistributedTrainer(model, cluster)
            out[name] = trainer.run(
                _batches(w, dedup, w.baseline_batch_size)
            )
        return out

    def test_breakdown_positive(self, reports):
        for rep in reports.values():
            bd = rep.mean_breakdown
            assert bd.emb_lookup > 0
            assert bd.gemm > 0
            assert bd.a2a > 0
            assert bd.other > 0

    def test_recd_faster_at_same_batch(self, reports):
        assert (
            reports["recd"].mean_samples_per_second
            > reports["baseline"].mean_samples_per_second
        )

    def test_a2a_at_least_halved(self, reports):
        """Fig 8: RecD halves exposed A2A across all RMs."""
        assert (
            reports["recd"].mean_breakdown.a2a
            <= 0.55 * reports["baseline"].mean_breakdown.a2a
        )

    def test_emb_lookup_reduced(self, reports):
        assert (
            reports["recd"].mean_breakdown.emb_lookup
            < reports["baseline"].mean_breakdown.emb_lookup
        )

    def test_memory_reduced(self, reports):
        base_peak = max(
            r.max_mem_bytes for r in reports["baseline"].iterations
        )
        recd_peak = max(r.max_mem_bytes for r in reports["recd"].iterations)
        assert recd_peak < base_peak

    def test_other_roughly_constant(self, reports):
        """All-reduce and fixed overheads don't change with dedup."""
        b = reports["baseline"].mean_breakdown.other
        r = reports["recd"].mean_breakdown.other
        assert r == pytest.approx(b, rel=0.05)

    def test_losses_recorded(self, reports):
        for rep in reports.values():
            assert all(np.isfinite(r.loss) for r in rep.iterations)

    def test_single_node_still_benefits(self):
        """§6.2: RecD helps on one NVLink node too (compute/memory)."""
        w = rm1(scale=0.5)
        cluster = sim_cluster(num_gpus=8, gpus_per_node=8)
        qps = {}
        for name, flags, dedup in [
            ("baseline", TrainerOptFlags.baseline(), False),
            ("recd", TrainerOptFlags.full(), True),
        ]:
            model = DLRM(
                list(w.schema.sparse),
                DLRMConfig.from_workload(w, max_table_rows=1000, seed=2),
                flags,
            )
            trainer = DistributedTrainer(model, cluster)
            rep = trainer.run(_batches(w, dedup, w.baseline_batch_size, n=1))
            qps[name] = rep.mean_samples_per_second
        assert qps["recd"] > qps["baseline"]

    def test_overlap_reduces_exposed_a2a(self):
        """comm_overlap_fraction hides A2A under GEMM, shrinking only the
        a2a phase."""
        from repro.distributed import TrainerCostConstants

        w = rm1(scale=0.5)
        batches = _batches(w, False, w.baseline_batch_size, n=1, seed=3)
        results = {}
        for overlap in (0.0, 0.5):
            model = DLRM(
                list(w.schema.sparse),
                DLRMConfig.from_workload(w, max_table_rows=500, seed=4),
                TrainerOptFlags.baseline(),
            )
            trainer = DistributedTrainer(
                model,
                sim_cluster(num_gpus=48),
                TrainerCostConstants(comm_overlap_fraction=overlap),
            )
            results[overlap] = trainer.run(list(batches)).mean_breakdown
        assert results[0.5].a2a < results[0.0].a2a
        assert results[0.5].gemm == pytest.approx(results[0.0].gemm)
        assert results[0.5].other == pytest.approx(results[0.0].other)

    def test_full_overlap_clamps_at_zero(self):
        from repro.distributed import TrainerCostConstants

        w = rm1(scale=0.5)
        batches = _batches(w, False, w.baseline_batch_size, n=1, seed=5)
        model = DLRM(
            list(w.schema.sparse),
            DLRMConfig.from_workload(w, max_table_rows=500, seed=6),
            TrainerOptFlags.baseline(),
        )
        trainer = DistributedTrainer(
            model,
            sim_cluster(num_gpus=48),
            TrainerCostConstants(comm_overlap_fraction=1e9),
        )
        rep = trainer.run(list(batches))
        assert rep.mean_breakdown.a2a == 0.0

    def test_empty_report(self):
        w = rm1(scale=0.5)
        model = DLRM(
            list(w.schema.sparse),
            DLRMConfig.from_workload(w, max_table_rows=500),
            TrainerOptFlags.baseline(),
        )
        trainer = DistributedTrainer(model, sim_cluster())
        assert trainer.report.mean_samples_per_second == 0.0
        assert trainer.report.max_mem_util == 0.0


class TestStreamingIngestion:
    """run() over any iterator must equal run() over the same list."""

    def _trainer(self, w, seed=7):
        model = DLRM(
            list(w.schema.sparse),
            DLRMConfig.from_workload(w, max_table_rows=500, seed=seed),
            TrainerOptFlags.baseline(),
        )
        return DistributedTrainer(model, sim_cluster(num_gpus=48))

    def test_iterator_matches_list(self):
        w = rm1(scale=0.5)
        batches = _batches(w, False, w.baseline_batch_size, n=3, seed=8)
        over_list = self._trainer(w).run(batches)
        over_iter = self._trainer(w).run(iter(batches))
        assert over_iter.losses == over_list.losses
        assert (
            over_iter.mean_samples_per_second
            == over_list.mean_samples_per_second
        )
        assert len(over_iter.iterations) == len(over_list.iterations) == 3

    def test_generator_source(self):
        w = rm1(scale=0.5)
        batches = _batches(w, False, w.baseline_batch_size, n=2, seed=9)
        over_list = self._trainer(w).run(batches)
        over_gen = self._trainer(w).run(b for b in batches)
        assert over_gen.losses == over_list.losses

    def test_ingestion_timing_recorded(self):
        w = rm1(scale=0.5)
        batches = _batches(w, False, w.baseline_batch_size, n=2, seed=10)
        rep = self._trainer(w).run(iter(batches))
        assert rep.step_wall_seconds > 0.0
        assert rep.ingest_wait_seconds >= 0.0
        assert (
            rep.run_wall_seconds
            >= rep.ingest_wait_seconds + rep.step_wall_seconds
        )

    def test_timing_accumulates_across_runs(self):
        """Epoch loops call run() once per epoch on one trainer."""
        w = rm1(scale=0.5)
        batches = _batches(w, False, w.baseline_batch_size, n=1, seed=11)
        trainer = self._trainer(w)
        trainer.run(batches)
        first_wall = trainer.report.run_wall_seconds
        trainer.run(batches)
        assert len(trainer.report.iterations) == 2
        assert trainer.report.run_wall_seconds > first_wall
