"""Tests for the ETL substrate: join, clustering (O2), downsampling (§7)."""

import numpy as np
import pytest

from repro.datagen import (
    DatasetSchema,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.etl import ETLConfig, ETLJob, samples_per_session
from repro.etl.cluster import cluster_order
from repro.etl.downsample import keep_samples, keep_sessions
from repro.scribe import (
    ScribeCluster,
    ShardKeyPolicy,
    split_sample,
)
from repro.storage import RowBlock


def _schema():
    return DatasetSchema(sparse=(SparseFeatureSpec("f", avg_length=4),))


def _trace(n=60, seed=0):
    return generate_partition(_schema(), n, TraceConfig(seed=seed))


def _block(n=60, seed=0) -> RowBlock:
    return RowBlock.from_samples(_trace(n, seed))


def _clustered(block: RowBlock) -> RowBlock:
    return block.take(cluster_order(block.session_id, block.timestamp))


def _is_clustered(session_id: np.ndarray) -> bool:
    """True when every session's rows form one contiguous run."""
    starts = np.flatnonzero(np.diff(session_id)) + 1
    runs = session_id[np.concatenate([[0], starts])] if session_id.size else session_id
    return np.unique(runs).size == runs.size


def _join(features, events) -> RowBlock:
    """The ETL join, no policy, of two record streams logged in
    inference-time order: the feature rows that have an event, labelled."""
    payloads = [r.serialize() for r in (*features, *events)]
    return ETLJob().run_from_payloads(payloads, ingest_bytes=0).samples


class TestJoin:
    def test_join_matches_ground_truth(self):
        samples = _trace(20)
        feats, evs = zip(*(split_sample(s) for s in samples))
        joined = _join(feats, evs)
        assert len(joined) == len(samples)
        for a, b in zip(joined, samples):
            assert a.sample_id == b.sample_id
            assert a.label == b.label
            np.testing.assert_array_equal(a.sparse["f"], b.sparse["f"])

    def test_unmatched_features_dropped(self):
        samples = _trace(10)
        feats, evs = zip(*(split_sample(s) for s in samples))
        joined = _join(feats, evs[:5])
        matched_ids = {e.request_id for e in evs[:5]}
        assert set(joined.sample_id.tolist()) == matched_ids

    def test_unmatched_events_ignored(self):
        samples = _trace(10)
        feats, evs = zip(*(split_sample(s) for s in samples))
        joined = _join(feats[:3], evs)
        assert len(joined) == 3

    def test_preserves_feature_order(self):
        samples = _trace(30)
        feats, evs = zip(*(split_sample(s) for s in samples))
        joined = _join(feats, evs)
        assert joined.sample_id.tolist() == [s.sample_id for s in samples]


class TestCluster:
    def test_clustering_makes_clustered(self):
        block = _block(100)
        assert not _is_clustered(block.session_id)  # interleaved by construction
        assert _is_clustered(_clustered(block).session_id)

    def test_clustering_preserves_rows(self):
        block = _block(50)
        order = cluster_order(block.session_id, block.timestamp)
        assert sorted(order.tolist()) == list(range(len(block)))

    def test_within_session_timestamp_order(self):
        clustered = _clustered(_block(50))
        same = clustered.session_id[1:] == clustered.session_id[:-1]
        assert (np.diff(clustered.timestamp)[same] >= 0).all()

    def test_sessions_ordered_by_first_timestamp(self):
        clustered = _clustered(_block(50))
        _, first = np.unique(clustered.session_id, return_index=True)
        firsts = clustered.timestamp[np.sort(first)]
        assert (np.diff(firsts) >= 0).all()

    def test_is_clustered_detects_split_runs(self):
        """The contiguity check the tests above lean on is not vacuous."""
        sid = _clustered(_block(30)).session_id
        broken = np.concatenate([sid[1:], sid[:1]])  # splits the first session
        assert not _is_clustered(broken)

    def test_empty(self):
        empty = _block(0)
        assert cluster_order(empty.session_id, empty.timestamp).size == 0
        assert _is_clustered(empty.session_id)


class TestDownsample:
    def test_rates_comparable_but_s_differs(self):
        """§7: per-session downsampling keeps S high; per-sample collapses
        it — at similar retained volume."""
        sid = _block(300, seed=5).session_id
        per_sample = sid[keep_samples(sid.size, 0.25, seed=1)]
        per_session = sid[keep_sessions(sid, 0.25, seed=1)]
        # similar volume (within 2x)
        assert 0.5 < per_sample.size / max(per_session.size, 1) < 2.0
        assert samples_per_session(per_session) > samples_per_session(
            per_sample
        ) * 2

    def test_keep_all(self):
        sid = _block(10).session_id
        assert keep_samples(sid.size, 1.0).all()
        assert keep_sessions(sid, 1.0).all()

    def test_keep_none(self):
        sid = _block(10).session_id
        assert not keep_samples(sid.size, 0.0).any()
        assert not keep_sessions(sid, 0.0).any()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            keep_samples(0, 1.5)
        with pytest.raises(ValueError):
            keep_sessions(np.empty(0, dtype=np.int64), -0.1)

    @pytest.mark.parametrize(
        "policy",
        [
            lambda rate: keep_samples(4, rate),
            lambda rate: keep_sessions(np.array([1, 1, 2, 3]), rate),
        ],
        ids=["per-sample", "per-session"],
    )
    @pytest.mark.parametrize(
        "rate",
        [1.5, -0.25, float("nan"), float("inf")],
        ids=["above-one", "negative", "nan", "inf"],
    )
    def test_bad_rate_raises_naming_keep_rate(self, policy, rate):
        """A rate outside [0, 1] raises before any row is drawn — NaN
        and infinity too, which would otherwise keep every row (inf)
        or none (NaN) without a word."""
        with pytest.raises(ValueError, match=r"keep_rate must be in \[0, 1\]"):
            policy(rate)

    def test_per_session_keeps_or_drops_whole_sessions(self):
        """Every session is kept entire or dropped entire, and a
        mid-range rate does both."""
        sid = _block(100, seed=9).session_id
        keep = keep_sessions(sid, 0.5, seed=3)
        for session in np.unique(sid):
            assert np.unique(keep[sid == session]).size == 1
        assert 0 < keep.sum() < sid.size

    def test_samples_per_session_empty(self):
        assert samples_per_session(np.empty(0, dtype=np.int64)) == 0.0


class TestETLJob:
    def _scribe(self, samples):
        cluster = ScribeCluster(num_shards=4, policy=ShardKeyPolicy.SESSION_ID)
        for s in samples:
            feat, ev = split_sample(s)
            cluster.log_features(feat)
            cluster.log_event(ev)
        cluster.flush()
        return cluster

    def test_end_to_end_baseline(self):
        samples = _trace(40, seed=7)
        result = ETLJob(ETLConfig()).run_from_scribe(self._scribe(samples))
        assert len(result.samples) == len(samples)
        assert result.ingest_bytes > 0
        # baseline keeps inference-time order
        assert result.samples.sample_id.tolist() == [s.sample_id for s in samples]

    def test_end_to_end_clustered(self):
        samples = _trace(40, seed=8)
        result = ETLJob(ETLConfig(cluster=True)).run_from_scribe(
            self._scribe(samples)
        )
        assert _is_clustered(result.samples.session_id)
        assert len(result.samples) == len(samples)

    def test_round_trip_feature_values(self):
        samples = _trace(20, seed=10)
        result = ETLJob(ETLConfig()).run_from_scribe(self._scribe(samples))
        by_id = {s.sample_id: s for s in samples}
        for got in result.samples:
            np.testing.assert_array_equal(
                got.sparse["f"], by_id[got.sample_id].sparse["f"]
            )
