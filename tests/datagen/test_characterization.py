"""Tests for the Section 3 characterization estimators."""

import numpy as np
import pytest

from repro.core import exact_duplicate_fraction, partial_duplicate_fraction
from repro.datagen import (
    FeatureKind,
    SparseFeatureSpec,
    TraceConfig,
    batch_samples_per_session,
    characterization_schema,
    characterize_schema,
    generate_partition,
    simulate_feature_duplication,
)
from repro.datagen.schema import DatasetSchema


class TestSimulatedDuplication:
    def test_exact_matches_analytical_expectation(self):
        """exact fraction -> d * (S-1)/S as sessions grow (the paper's
        15.5/16.5 = 93.9% maximum argument with d = 1)."""
        spec = SparseFeatureSpec("f", change_prob=0.0)
        rng = np.random.default_rng(0)
        sizes = np.full(1000, 16, dtype=np.int64)
        dup = simulate_feature_duplication(spec, sizes, rng)
        assert dup.exact_fraction == pytest.approx(15 / 16)

    def test_exact_fraction_with_changes(self):
        spec = SparseFeatureSpec("f", change_prob=0.5)
        rng = np.random.default_rng(1)
        sizes = np.full(5000, 11, dtype=np.int64)
        dup = simulate_feature_duplication(spec, sizes, rng)
        # runs = 1 + Binomial(10, .5) -> mean 6; dups = 11-6 = 5 -> 5/11
        assert dup.exact_fraction == pytest.approx(5 / 11, rel=0.05)

    def test_partial_at_least_exact_for_user_features(self):
        spec = SparseFeatureSpec(
            "f", kind=FeatureKind.USER, avg_length=50, change_prob=0.3
        )
        rng = np.random.default_rng(2)
        sizes = np.full(2000, 16, dtype=np.int64)
        dup = simulate_feature_duplication(spec, sizes, rng)
        assert dup.partial_fraction >= dup.exact_fraction

    def test_item_partial_equals_exact(self):
        spec = SparseFeatureSpec(
            "f", kind=FeatureKind.ITEM, avg_length=3, change_prob=0.9
        )
        rng = np.random.default_rng(3)
        sizes = np.full(2000, 16, dtype=np.int64)
        dup = simulate_feature_duplication(spec, sizes, rng)
        assert dup.partial_fraction == pytest.approx(dup.exact_fraction)

    def test_empty_sessions(self):
        spec = SparseFeatureSpec("f")
        dup = simulate_feature_duplication(
            spec, np.array([], dtype=np.int64), np.random.default_rng(0)
        )
        assert dup.exact_fraction == 0.0

    def test_agrees_with_list_based_oracle(self):
        """The change-event estimator must agree with the exact list-based
        measurement from repro.core.dedup on a real generated trace."""
        schema = DatasetSchema(
            sparse=(
                SparseFeatureSpec(
                    "hist", kind=FeatureKind.USER, avg_length=20, change_prob=0.1
                ),
            )
        )
        cfg = TraceConfig(seed=11, mean_samples_per_session=16.5)
        samples = generate_partition(schema, 400, cfg)
        rows = [s.sparse["hist"] for s in samples]
        sids = [s.session_id for s in samples]
        measured_exact = exact_duplicate_fraction(rows, sids)
        measured_partial = partial_duplicate_fraction(rows, sids)

        sizes = np.bincount([s.session_id for s in samples])
        sizes = sizes[sizes > 0]
        est = simulate_feature_duplication(
            schema.sparse[0], sizes, np.random.default_rng(11)
        )
        assert est.exact_fraction == pytest.approx(measured_exact, abs=0.05)
        assert est.partial_fraction == pytest.approx(measured_partial, abs=0.06)


class TestCharacterizationReport:
    def test_paper_scale_schema(self):
        schema = characterization_schema()
        assert len(schema.sparse) == 733
        user = [f for f in schema.sparse if f.kind is FeatureKind.USER]
        assert len(user) == pytest.approx(733 * 0.85, abs=1)

    def test_report_matches_paper_bands(self):
        """Mean exact ≈ 80%, byte-weighted exact ≈ 81.6%, byte-weighted
        partial ≈ 89.4% (§3).  Bands are generous: the generator is only
        calibrated, not fitted."""
        report = characterize_schema(
            characterization_schema(), num_sessions=4000, seed=0
        )
        assert 0.72 <= report.mean_exact <= 0.88
        assert report.byte_weighted_exact >= report.mean_exact - 0.05
        assert report.byte_weighted_partial > report.byte_weighted_exact

    def test_user_features_more_duplicated_than_item(self):
        report = characterize_schema(
            characterization_schema(num_features=100), num_sessions=2000
        )
        user = [
            f.exact_fraction
            for f in report.features
            if f.kind is FeatureKind.USER
        ]
        item = [
            f.exact_fraction
            for f in report.features
            if f.kind is FeatureKind.ITEM
        ]
        assert np.mean(user) > np.mean(item) + 0.3  # the Fig 4 knee


class TestBatchSamplesPerSession:
    def test_interleaved_vs_clustered(self):
        """Fig 3, right: a timestamp-ordered batch has ~1 sample/session;
        the same rows clustered by session have many."""
        ids_interleaved = np.arange(4096) % 2048  # every session twice, far apart
        per_batch = batch_samples_per_session(ids_interleaved, 2048)
        assert per_batch[0] == pytest.approx(1.0)

        ids_clustered = np.sort(ids_interleaved)
        per_batch = batch_samples_per_session(ids_clustered, 2048)
        assert per_batch[0] == pytest.approx(2.0)

    def test_partial_batch_dropped(self):
        out = batch_samples_per_session(np.arange(10), 4)
        assert out.size == 2

    def test_generated_trace_interleaving(self):
        """The generator's timestamp ordering must reproduce the paper's
        ~1.15 samples/session per batch, while clustering recovers ~S.

        The paper uses B = 4096 against an ~O(1M)-row hourly partition;
        at our trace scale the equivalent batch-time-window-to-session-
        duration ratio is hit with B = 128.
        """
        schema = DatasetSchema(
            sparse=(SparseFeatureSpec("f", avg_length=2),)
        )
        cfg = TraceConfig(seed=21)
        samples = generate_partition(schema, 1500, cfg)
        sids = np.array([s.session_id for s in samples])
        batch = 128
        assert sids.size >= batch
        interleaved = batch_samples_per_session(sids, batch).mean()
        clustered = batch_samples_per_session(np.sort(sids), batch).mean()
        assert interleaved < 2.0  # paper: 1.15
        assert clustered > 6.0  # paper: ~16.5
