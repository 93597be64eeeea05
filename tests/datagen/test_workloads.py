"""Tests for the RM1/RM2/RM3 workload definitions."""

import pytest

from repro.datagen import PoolingKind, all_workloads, rm1, rm2, rm3


class TestStructure:
    def test_rm1_sequence_grouping(self):
        """RM1 dedups 16 sequence features in 5 groups (§6.1)."""
        w = rm1()
        seq = [f for f in w.schema.sparse if f.is_sequence]
        assert len(seq) == 16
        assert all(f.pooling is PoolingKind.TRANSFORMER for f in seq)
        seq_groups = {f.group for f in seq}
        assert len(seq_groups) == 5

    def test_rm2_single_group(self):
        w = rm2()
        seq = [f for f in w.schema.sparse if f.is_sequence]
        assert len(seq) == 6
        assert len({f.group for f in seq}) == 1

    def test_rm3_single_group(self):
        w = rm3()
        seq = [f for f in w.schema.sparse if f.is_sequence]
        assert len(seq) == 11
        assert len({f.group for f in seq}) == 1

    def test_rm1_batch_growth_ratio(self):
        """Paper: 2048 -> 6144, a 3x growth."""
        w = rm1()
        assert w.recd_batch_size == 3 * w.baseline_batch_size

    def test_rm2_batch_static(self):
        w = rm2()
        assert w.recd_batch_size == w.baseline_batch_size

    def test_rm3_batch_growth(self):
        w = rm3()
        assert w.recd_batch_size > w.baseline_batch_size

    def test_all_workloads_names(self):
        assert [w.name for w in all_workloads()] == ["RM1", "RM2", "RM3"]


class TestDedupSpec:
    def test_dedup_groups_cover_sequences(self):
        w = rm1()
        deduped = set(w.dedup_feature_names)
        for f in w.schema.sparse:
            if f.is_sequence:
                assert f.name in deduped

    def test_groups_are_schema_groups(self):
        w = rm2()
        schema_groups = {
            tuple(members) for members in w.schema.groups().values()
        }
        multi = {g for g in w.dedup_groups if len(g) > 1}
        assert multi <= schema_groups

    def test_elementwise_user_features_also_deduped(self):
        """Each RM also dedups ~100 element-wise pooled features (§6.1);
        in the scaled workload every user ewise feature is a singleton
        group."""
        w = rm3()
        singleton = {g[0] for g in w.dedup_groups if len(g) == 1}
        ewise_user = [
            f.name
            for f in w.schema.sparse
            if f.name.startswith("ew") and f.kind.value == "user"
        ]
        assert set(ewise_user) <= singleton

    def test_item_features_not_deduped(self):
        w = rm1()
        deduped = set(w.dedup_feature_names)
        item = {f.name for f in w.schema.item_features()}
        assert not (deduped & item)


class TestScaling:
    @pytest.mark.parametrize("factory", [rm1, rm2, rm3])
    def test_scale_shrinks_magnitudes(self, factory):
        big = factory(scale=1.0)
        small = factory(scale=0.25)
        assert small.baseline_batch_size <= big.baseline_batch_size
        assert small.embedding_dim <= big.embedding_dim
        # structure is scale-invariant
        assert sum(f.is_sequence for f in small.schema.sparse) == sum(
            f.is_sequence for f in big.schema.sparse
        )

    def test_minimums_enforced(self):
        w = rm1(scale=0.01)
        assert w.baseline_batch_size >= 32
        assert w.embedding_dim >= 16
