"""Tests for online feature characterization (d/l estimation)."""

import numpy as np
import pytest

from repro.core import measure_feature_stats, select_features_to_dedup
from repro.datagen import (
    DatasetSchema,
    FeatureKind,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.datagen.session import Sample
from repro.etl import samples_per_session
from repro.storage import RowBlock


def _sample(sid, ts, **sparse):
    return Sample(
        sample_id=int(ts * 100),
        session_id=sid,
        timestamp=ts,
        label=0,
        sparse={k: np.asarray(v, dtype=np.int64) for k, v in sparse.items()},
    )


class TestMeasureFeatureStats:
    def test_fully_duplicated_feature(self):
        samples = [
            _sample(0, 1.0, f=[1, 2]),
            _sample(0, 2.0, f=[1, 2]),
            _sample(0, 3.0, f=[1, 2]),
        ]
        (stats,) = measure_feature_stats(samples, ["f"])
        assert stats.d == pytest.approx(1.0)
        assert stats.avg_length == pytest.approx(2.0)

    def test_never_duplicated_feature(self):
        samples = [
            _sample(0, 1.0, f=[1]),
            _sample(0, 2.0, f=[2]),
        ]
        (stats,) = measure_feature_stats(samples, ["f"])
        assert stats.d == 0.0

    def test_cross_session_pairs_not_counted(self):
        samples = [
            _sample(0, 1.0, f=[9]),
            _sample(1, 2.0, f=[9]),  # equal values but different sessions
        ]
        (stats,) = measure_feature_stats(samples, ["f"])
        assert stats.d == 0.0  # no adjacent same-session pairs

    def test_timestamp_order_within_session(self):
        # delivered out of order; must sort by timestamp before pairing
        samples = [
            _sample(0, 3.0, f=[2]),
            _sample(0, 1.0, f=[1]),
            _sample(0, 2.0, f=[1]),
        ]
        (stats,) = measure_feature_stats(samples, ["f"])
        assert stats.d == pytest.approx(0.5)

    def test_missing_feature_rows_skipped(self):
        samples = [
            _sample(0, 1.0, f=[1]),
            _sample(0, 2.0),  # feature absent
            _sample(0, 3.0, f=[1]),
        ]
        (stats,) = measure_feature_stats(samples, ["f"])
        assert stats.avg_length == 1.0

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            measure_feature_stats([], [])

    def test_estimates_match_schema_truth(self):
        """On a generated trace, measured d(f)/l(f) recover the specs."""
        schema = DatasetSchema(
            sparse=(
                SparseFeatureSpec(
                    "hot", FeatureKind.USER, avg_length=12, change_prob=0.05
                ),
                SparseFeatureSpec(
                    "cold", FeatureKind.ITEM, avg_length=3, change_prob=0.9
                ),
            )
        )
        samples = generate_partition(schema, 300, TraceConfig(seed=17))
        stats = {
            s.name: s
            for s in measure_feature_stats(samples, ["hot", "cold"])
        }
        assert stats["hot"].d == pytest.approx(0.95, abs=0.03)
        assert stats["hot"].avg_length == pytest.approx(12, abs=0.5)
        assert stats["cold"].d == pytest.approx(0.10, abs=0.05)

    def test_feeds_selection_heuristic(self):
        schema = DatasetSchema(
            sparse=(
                SparseFeatureSpec("hot", avg_length=20, change_prob=0.05),
                SparseFeatureSpec(
                    "cold", FeatureKind.ITEM, avg_length=2, change_prob=0.9
                ),
            )
        )
        samples = generate_partition(schema, 200, TraceConfig(seed=18))
        stats = measure_feature_stats(samples, ["hot", "cold"])
        s = samples_per_session(RowBlock.from_samples(samples).session_id)
        chosen = select_features_to_dedup(stats, batch_size=1024,
                                          samples_per_session=s)
        assert chosen == ["hot"]


class TestSamplesPerSession:
    def test_empty(self):
        assert samples_per_session(np.empty(0, dtype=np.int64)) == 0.0

    def test_basic(self):
        samples = [
            _sample(0, 1.0), _sample(0, 2.0), _sample(1, 3.0),
        ]
        block = RowBlock.from_samples(samples)
        assert samples_per_session(block.session_id) == pytest.approx(1.5)
