"""Tests for the per-figure experiment drivers (small scales)."""

import numpy as np
import pytest

from repro.pipeline import (
    accuracy_clustering,
    dedupe_factor_model_sweep,
    fig3_session_histogram,
    fig4_duplication,
    fig9_ablation,
    partial_vs_exact,
    scribe_sharding_compression,
    single_node_speedup,
    table2_resource_util,
    table3_reader_bytes,
)


class TestFig3:
    def test_partition_and_batch_stats(self):
        res = fig3_session_histogram(num_sessions=30_000, seed=1)
        assert res.partition_stats["mean"] == pytest.approx(16.5, rel=0.1)
        assert res.partition_stats["max"] > 500  # heavy tail
        assert res.batch_mean_interleaved < 2.0  # paper: 1.15
        assert res.batch_mean_clustered > 8.0  # paper: ~16.5
        assert res.histogram_counts.sum() == 30_000


class TestFig4:
    def test_duplication_bands(self):
        rep = fig4_duplication(num_features=150, num_sessions=4000)
        assert 0.70 < rep.mean_exact < 0.90  # paper: 80.0%
        assert rep.byte_weighted_partial > rep.byte_weighted_exact
        # user features dominate the high-duplication plateau
        top = rep.sorted_exact()[:30]
        assert sum(f.kind.value == "user" for f in top) >= 28


class TestFig9:
    def test_ablation_monotone_stages(self):
        stages = fig9_ablation(scale=0.25, num_sessions=150, seed=2)
        assert [s.label for s in stages][0] == "Baseline B1x"
        norm = [s.normalized for s in stages]
        assert norm[0] == pytest.approx(1.0)
        # CT alone provides no trainer benefit (§6.2 ablation)
        assert norm[1] == pytest.approx(1.0, abs=0.3)
        # each RecD stage improves on CT
        assert norm[2] > norm[1]
        assert norm[3] > norm[2]
        assert norm[4] >= norm[3] * 0.95  # batch growth helps or holds


class TestTable2:
    def test_resource_rows(self):
        rows = table2_resource_util(scale=0.25, num_sessions=150, seed=3)
        by_name = {r.config: r for r in rows}
        base = by_name["Baseline"]
        recd = by_name["RecD"]
        assert base.norm_qps == pytest.approx(1.0)
        assert base.max_mem_util == pytest.approx(0.999, abs=0.01)
        # RecD frees memory and improves throughput + efficiency
        assert recd.max_mem_util < base.max_mem_util * 0.8
        assert recd.norm_qps > 1.2
        assert by_name["RecD + B3x"].norm_qps >= recd.norm_qps
        # bigger embeddings fit in the freed memory
        dbig = by_name["RecD + EMB D1.5x"]
        assert recd.max_mem_util < dbig.max_mem_util <= 1.0
        # bigger dims do more useful work per GPU-second (paper: 1.92x)
        assert dbig.norm_compute_efficiency > recd.norm_compute_efficiency


class TestTable3:
    def test_byte_staircase(self):
        rows = table3_reader_bytes(scale=0.25, num_sessions=150, seed=4)
        by_name = {r.config: r for r in rows}
        base = by_name["Baseline"]
        clus = by_name["with Cluster"]
        ikjt = by_name["with IKJT"]
        # clustering cuts read bytes, leaves send bytes
        assert clus.bytes.read < base.bytes.read * 0.8
        assert clus.bytes.decoded == pytest.approx(base.bytes.decoded, rel=0.01)
        # IKJT cuts send bytes, read unchanged vs cluster
        assert ikjt.bytes.read == pytest.approx(clus.bytes.read, rel=0.01)
        assert ikjt.bytes.decoded < clus.bytes.decoded


class TestScribe:
    def test_session_sharding_wins(self):
        res = scribe_sharding_compression(scale=0.25, num_sessions=200)
        assert res["session"] > res["random"] * 1.2  # paper: 1.5x relative


class TestSingleNode:
    def test_speedup_positive(self):
        res = single_node_speedup(scale=0.25, num_sessions=150)
        assert res["speedup"] > 1.3  # paper: 2.18x


class TestAccuracy:
    def test_clustering_reduces_repeat_updates(self):
        res = accuracy_clustering(scale=0.25, num_sessions=120, train_batches=4)
        assert (
            res.clustered_repeat_fraction
            < res.interleaved_repeat_fraction
        )
        assert np.isfinite(res.clustered_loss)
        assert np.isfinite(res.interleaved_loss)


class TestDedupeModel:
    def test_model_tracks_measurement(self):
        points = dedupe_factor_model_sweep(seed=5)
        for p in points:
            assert p.measured == pytest.approx(p.modeled, rel=0.25), (
                p.samples_per_session,
                p.d,
            )

    def test_factor_grows_with_s_and_d(self):
        points = dedupe_factor_model_sweep(seed=5)
        get = {
            (p.samples_per_session, p.d): p.modeled for p in points
        }
        assert get[(16, 0.95)] > get[(2, 0.95)]
        assert get[(16, 0.95)] > get[(16, 0.5)]


class TestPartial:
    def test_partial_captures_more(self):
        res = partial_vs_exact(num_sessions=100)
        assert res.partial_factor > res.exact_factor
        assert res.partial_captured_fraction > res.exact_captured_fraction
