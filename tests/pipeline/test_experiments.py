"""Tests for the per-figure experiment drivers (small scales).

The Session-backed cases and the stdout golden share one set of runs:
``small(name)`` (``tests/conftest.py``) is the ``FIGURES`` entry's rows
at the golden's flags, computed once per session, so a figure asserted
on twice — here or in ``tests/experiments/test_figures.py`` — still
runs once.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.figures import FIGURES, fig3_session_histogram, render

#: stdout of the figure subcommands whose numbers do not depend on the
#: zlib build (no compressed byte count reaches a printed digit) —
#: which leaves out fig7, fig10, table3, table4, scribe, accuracy and
#: freshness (fill cost reads compressed bytes); recorded at
#: ``tests.conftest.SMALL``
GOLDEN = json.loads(
    Path(__file__).with_name("golden_figures.json").read_text()
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_parent_golden(name, small):
    lines = render(FIGURES[name], small(name))
    assert "\n".join(lines) + "\n" == GOLDEN[name]


class TestFig3:
    def test_partition_and_batch_stats(self):
        # interleaving needs partition scale: stays at its own size
        res = fig3_session_histogram(num_sessions=30_000, seed=1)
        assert res.partition_stats["mean"] == pytest.approx(16.5, rel=0.1)
        assert res.partition_stats["max"] > 500  # heavy tail
        assert res.batch_mean_interleaved < 2.0  # paper: 1.15
        assert res.batch_mean_clustered > 8.0  # paper: ~16.5
        assert res.histogram_counts.sum() == 30_000


class TestFig4:
    def test_duplication_bands(self, small):
        rep = small("fig4")
        assert 0.70 < rep.mean_exact < 0.90  # paper: 80.0%
        assert rep.byte_weighted_partial > rep.byte_weighted_exact
        # user features dominate the high-duplication plateau
        top = rep.sorted_exact()[:30]
        assert sum(f.kind.value == "user" for f in top) >= 28


class TestFig9:
    def test_ablation_monotone_stages(self, small):
        stages = small("ablation")
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
    def test_resource_rows(self, small):
        by_name = {r.config: r for r in small("table2")}
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
    def test_byte_staircase(self, small):
        by_name = {r.config: r for r in small("table3")}
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
    def test_session_sharding_wins(self, small):
        res = small("scribe")
        assert res["session"] > res["random"] * 1.2  # paper: 1.5x relative


class TestSingleNode:
    def test_speedup_positive(self, small):
        assert small("single-node")["speedup"] > 1.3  # paper: 2.18x


class TestAccuracy:
    def test_clustering_reduces_repeat_updates(self, small):
        res = small("accuracy")
        assert (
            res.clustered_repeat_fraction
            < res.interleaved_repeat_fraction
        )
        assert np.isfinite(res.clustered_loss)
        assert np.isfinite(res.interleaved_loss)


class TestDedupeModel:
    def test_model_tracks_measurement(self, small):
        for p in small("dedupe-model"):
            assert p.measured == pytest.approx(p.modeled, rel=0.25), (
                p.samples_per_session,
                p.d,
            )

    def test_factor_grows_with_s_and_d(self, small):
        get = {
            (p.samples_per_session, p.d): p.modeled
            for p in small("dedupe-model")
        }
        assert get[(16, 0.95)] > get[(2, 0.95)]
        assert get[(16, 0.95)] > get[(16, 0.5)]


class TestPartial:
    def test_partial_captures_more(self, small):
        res = small("partial")
        assert res.partial_factor > res.exact_factor
        assert res.partial_captured_fraction > res.exact_captured_fraction
