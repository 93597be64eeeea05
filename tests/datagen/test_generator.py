"""Tests for the synthetic trace generator and session size model."""

import hashlib

import numpy as np
import pytest

from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    FeatureKind,
    SparseFeatureSpec,
    TraceConfig,
    TraceGenerator,
    generate_partition,
    rm1,
    rm2,
    rm3,
    sample_session_sizes,
    session_size_stats,
)


def small_schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec(
                "hist", kind=FeatureKind.USER, avg_length=5, change_prob=0.1
            ),
            SparseFeatureSpec(
                "cart_item",
                kind=FeatureKind.USER,
                avg_length=3,
                change_prob=0.2,
                group="cart",
            ),
            SparseFeatureSpec(
                "cart_seller",
                kind=FeatureKind.USER,
                avg_length=3,
                change_prob=0.2,
                group="cart",
            ),
            SparseFeatureSpec(
                "item_id", kind=FeatureKind.ITEM, avg_length=1, change_prob=0.95
            ),
        ),
        dense=(DenseFeatureSpec("hour"),),
    )


class TestSessionSizes:
    def test_mean_calibration(self):
        rng = np.random.default_rng(0)
        sizes = sample_session_sizes(200_000, mean=16.5, rng=rng)
        assert sizes.mean() == pytest.approx(16.5, rel=0.05)

    def test_heavy_tail_exists(self):
        rng = np.random.default_rng(0)
        sizes = sample_session_sizes(200_000, mean=16.5, rng=rng)
        assert (sizes > 1000).sum() > 0  # Fig 3's ">1000 samples" tail

    def test_minimum_one(self):
        rng = np.random.default_rng(1)
        sizes = sample_session_sizes(10_000, mean=2.0, rng=rng)
        assert sizes.min() >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_session_sizes(-1)
        with pytest.raises(ValueError):
            sample_session_sizes(10, mean=0.5)

    def test_stats_empty(self):
        assert session_size_stats(np.array([]))["mean"] == 0.0

    def test_stats_fields(self):
        stats = session_size_stats(np.array([1, 2, 3, 2000]))
        assert stats["max"] == 2000
        assert stats["tail_1000"] == 1


class TestTraceGenerator:
    def test_partition_sorted_by_timestamp(self):
        samples = generate_partition(small_schema(), 50, TraceConfig(seed=1))
        ts = [s.timestamp for s in samples]
        assert ts == sorted(ts)

    def test_all_features_present(self):
        samples = generate_partition(small_schema(), 10, TraceConfig(seed=2))
        for s in samples[:20]:
            assert set(s.sparse) == {"hist", "cart_item", "cart_seller", "item_id"}
            assert set(s.dense) == {"hour"}

    def test_unique_sample_ids(self):
        samples = generate_partition(small_schema(), 30, TraceConfig(seed=3))
        ids = [s.sample_id for s in samples]
        assert len(ids) == len(set(ids))

    def test_session_ids_dense_range(self):
        samples = generate_partition(small_schema(), 30, TraceConfig(seed=3))
        sids = {s.session_id for s in samples}
        assert sids == set(range(30))

    def test_user_feature_duplication_within_session(self):
        """With change_prob 0.1, most same-session adjacent samples share
        the user feature value (by object identity, even)."""
        cfg = TraceConfig(seed=4, mean_samples_per_session=12.0)
        samples = generate_partition(small_schema(), 80, cfg)
        by_session: dict[int, list] = {}
        for s in samples:
            by_session.setdefault(s.session_id, []).append(s)
        dup = tot = 0
        for sess in by_session.values():
            sess.sort(key=lambda s: s.timestamp)
            for a, b in zip(sess, sess[1:]):
                tot += 1
                dup += np.array_equal(a.sparse["hist"], b.sparse["hist"])
        assert tot > 0
        assert dup / tot > 0.75  # d = 0.9 nominal

    def test_grouped_features_update_synchronously(self):
        cfg = TraceConfig(seed=5, mean_samples_per_session=10.0)
        samples = generate_partition(small_schema(), 60, cfg)
        by_session: dict[int, list] = {}
        for s in samples:
            by_session.setdefault(s.session_id, []).append(s)
        for sess in by_session.values():
            sess.sort(key=lambda s: s.timestamp)
            for a, b in zip(sess, sess[1:]):
                item_same = np.array_equal(
                    a.sparse["cart_item"], b.sparse["cart_item"]
                )
                seller_same = np.array_equal(
                    a.sparse["cart_seller"], b.sparse["cart_seller"]
                )
                assert item_same == seller_same  # §4.2's invariant source

    def test_item_feature_changes_often(self):
        cfg = TraceConfig(seed=6, mean_samples_per_session=12.0)
        samples = generate_partition(small_schema(), 80, cfg)
        by_session: dict[int, list] = {}
        for s in samples:
            by_session.setdefault(s.session_id, []).append(s)
        changed = tot = 0
        for sess in by_session.values():
            sess.sort(key=lambda s: s.timestamp)
            for a, b in zip(sess, sess[1:]):
                tot += 1
                changed += not np.array_equal(
                    a.sparse["item_id"], b.sparse["item_id"]
                )
        assert changed / tot > 0.8

    def test_shift_update_preserves_length_and_overlap(self):
        gen = TraceGenerator(small_schema(), TraceConfig(seed=7))
        spec = small_schema().sparse_spec("hist")
        cur = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        new = gen._shift_value(spec, cur)
        assert new.size == cur.size
        np.testing.assert_array_equal(new[:-1], cur[1:])

    def test_shift_update_empty_list(self):
        gen = TraceGenerator(small_schema(), TraceConfig(seed=8))
        spec = small_schema().sparse_spec("hist")
        new = gen._shift_value(spec, np.array([], dtype=np.int64))
        assert new.size == 1

    def test_negative_sessions_rejected(self):
        with pytest.raises(ValueError):
            generate_partition(small_schema(), -1)

    def test_deterministic_under_seed(self):
        a = generate_partition(small_schema(), 20, TraceConfig(seed=42))
        b = generate_partition(small_schema(), 20, TraceConfig(seed=42))
        assert [s.sample_id for s in a] == [s.sample_id for s in b]
        assert all(
            np.array_equal(x.sparse["hist"], y.sparse["hist"])
            for x, y in zip(a, b)
        )



def _partition_digest(samples) -> str:
    """sha256 over every field of every sample, in partition order."""
    h = hashlib.sha256()
    for s in samples:
        h.update(np.array([s.sample_id, s.session_id, s.label], dtype=np.int64))
        h.update(np.float64(s.timestamp))
        for name, ids in s.sparse.items():
            h.update(name.encode())
            h.update(np.asarray(ids, dtype=np.int64))
            h.update(b"|")
        for name, x in s.dense.items():
            assert type(x) is float
            h.update(name.encode())
            h.update(np.float64(x))
    return h.hexdigest()


class TestRandomStreamIsPinned:
    """The generator's random stream, bit for bit: a change that draws
    the same numbers differently (vector draws for scalar ones, hoisted
    lookups) must keep every sample."""

    @pytest.mark.parametrize(
        "schema, seed, sessions, digest",
        [
            (lambda: rm1(0.25).schema, 11, 40, "a2f1d37976d8e891"),
            (lambda: rm2(0.25).schema, 12, 40, "6ca002801f1f0b62"),
            (lambda: rm3(0.25).schema, 13, 40, "7483437649fa9a39"),
            (small_schema, 14, 30, "9b7d0983294d118b"),
        ],
        ids=["RM1", "RM2", "RM3", "small"],
    )
    def test_partition_digest(self, schema, seed, sessions, digest):
        samples = generate_partition(schema(), sessions, TraceConfig(seed=seed))
        assert _partition_digest(samples)[:16] == digest
