"""Tests for SDD volumes and the distributed-training latency model."""

import numpy as np
import pytest

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.datagen import rm1
from repro.distributed import (
    DistributedTrainer,
    TrainerCostConstants,
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

    def test_inverse_lookup_stays_local(self):
        """§5: only the IKJT's values/offsets slices enter the SDD; the
        inverse_lookup the reader shipped stays on the trainer."""
        kjt = KeyedJaggedTensor.from_rows(
            [{"f": [1, 2, 3]}, {"f": [1, 2, 3]}, {"f": [4]}]
        )
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt)
        vol = sdd_volume(make_batch(ikjts=[ikjt], batch=3))
        jt = ikjt["f"]
        assert vol.input_bytes == 8 * (jt.total_values + jt.offsets.size)
        assert vol.input_bytes == ikjt.nbytes - ikjt.inverse_lookup.nbytes

    def test_volume_adds_over_kjt_and_groups(self):
        """A batch's volume is the sum of its KJT's and each IKJT group's:
        no feature is placed, so nothing depends on which GPU owns it."""
        rows = [
            {"a": [i % 3], "b": [1, 2], "c": [7, 8, 9], "d": [i % 2]}
            for i in range(10)
        ]
        kjt = KeyedJaggedTensor.from_rows(rows)
        plain = kjt.select(["a"])
        g1 = InverseKeyedJaggedTensor.from_kjt(kjt, ["b", "c"])
        g2 = InverseKeyedJaggedTensor.from_kjt(kjt, ["d"])
        parts = [
            sdd_volume(make_batch(kjt=plain, batch=10)),
            sdd_volume(make_batch(ikjts=[g1], batch=10)),
            sdd_volume(make_batch(ikjts=[g2], batch=10)),
        ]
        whole = sdd_volume(make_batch(kjt=plain, ikjts=[g1, g2], batch=10))
        assert whole.input_bytes == sum(p.input_bytes for p in parts)
        assert whole.output_rows == sum(p.output_rows for p in parts)
        # b and c share one unique row; d has two
        assert whole.output_rows == 10 + 2 * 1 + 2

    def test_batch_without_sparse_features_ships_nothing(self):
        vol = sdd_volume(make_batch(batch=4))
        assert vol.input_bytes == 0
        assert vol.output_rows == 0
        assert vol.output_bytes(16) == 0

    def test_output_bytes_scale_with_dim_and_dtype(self):
        vol = sdd_volume(make_batch(kjt=dup_kjt(batch=12)))
        assert vol.output_bytes(16, 2) == 12 * 16 * 2
        assert vol.output_bytes(32, 2) == 2 * vol.output_bytes(16, 2)


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


class TestMemoryModel:
    """The trainer's per-GPU memory is the one memory model: EMB tables
    shard over the GPUs, dense parameters replicate, and activations plus
    input buffers split over the GPUs, all against ``GPUSpec.memory_bytes``.
    """

    @staticmethod
    def _run(w, batches, **cluster_kw):
        model = DLRM(
            list(w.schema.sparse),
            DLRMConfig.from_workload(w, max_table_rows=500, seed=12),
            TrainerOptFlags.full(),
        )
        trainer = DistributedTrainer(model, sim_cluster(**cluster_kw))
        return model, trainer.run(batches)

    @pytest.fixture(scope="class")
    def runs(self):
        w = rm1(scale=0.5)
        batches = _batches(w, True, w.baseline_batch_size, n=2, seed=13)
        out = {
            (n, mem): self._run(w, batches, num_gpus=n, memory_bytes=mem)
            for n, mem in [(16, 48 * 2**20), (32, 48 * 2**20), (16, 24 * 2**20)]
        }
        return batches, out

    def test_peak_is_static_plus_dynamic(self, runs):
        _, out = runs
        for _, rep in out.values():
            for r in rep.iterations:
                assert r.static_mem_bytes > 0 and r.dynamic_mem_bytes > 0
                assert r.max_mem_bytes == r.static_mem_bytes + r.dynamic_mem_bytes

    def test_utilization_is_against_gpu_capacity(self, runs):
        _, out = runs
        frac = TrainerCostConstants().avg_dynamic_fraction
        for (_, mem), (_, rep) in out.items():
            for r in rep.iterations:
                assert r.max_mem_util == r.max_mem_bytes / mem
                assert r.avg_mem_util == pytest.approx(
                    (r.static_mem_bytes + frac * r.dynamic_mem_bytes) / mem
                )
                assert r.avg_mem_util < r.max_mem_util

    def test_halving_capacity_doubles_utilization(self, runs):
        _, out = runs
        full, half = out[16, 48 * 2**20][1], out[16, 24 * 2**20][1]
        for a, b in zip(full.iterations, half.iterations):
            assert b.max_mem_bytes == a.max_mem_bytes
            assert b.max_mem_util == pytest.approx(2 * a.max_mem_util)

    def test_embedding_tables_shard_dense_params_replicate(self, runs):
        """static(n) = EMB / n + dense: doubling the GPUs halves the EMB
        shard and leaves the replicated dense parameters as they are."""
        _, out = runs
        model, rep16 = out[16, 48 * 2**20]
        rep32 = out[32, 48 * 2**20][1]
        s16 = rep16.iterations[0].static_mem_bytes
        s32 = rep32.iterations[0].static_mem_bytes
        emb = model.embedding_nbytes() / 2  # fp64 simulation -> fp32
        assert s16 - s32 == pytest.approx(emb / 32)
        assert 2 * s32 - s16 == pytest.approx(
            TrainerCostConstants().param_mem_scale
            * sum(p.nbytes for p in model.dense_params())
            / 2
        )

    def test_dynamic_bytes_split_over_gpus(self, runs):
        _, out = runs
        rep16, rep32 = out[16, 48 * 2**20][1], out[32, 48 * 2**20][1]
        for a, b in zip(rep16.iterations, rep32.iterations):
            assert a.dynamic_mem_bytes == pytest.approx(2 * b.dynamic_mem_bytes)

    def test_input_buffers_count_the_wire_bytes(self, runs):
        """Each GPU holds its share of the batch the readers shipped, on
        top of its activations."""
        batches, out = runs
        for (n, _), (_, rep) in out.items():
            for batch, r in zip(batches, rep.iterations):
                assert r.dynamic_mem_bytes * n > batch.wire_nbytes

    def test_report_peak_is_max_over_iterations(self, runs):
        _, out = runs
        for _, rep in out.values():
            assert rep.max_mem_util == max(
                r.max_mem_util for r in rep.iterations
            )
            assert rep.as_dict()["max_mem_util"] == rep.max_mem_util


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
