"""Tests for DataLoaderConfig and Batch."""

import re

import numpy as np
import pytest

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.datagen import rm1
from repro.pipeline import DataSpec, JobSpec
from repro.reader import Batch, DataLoaderConfig
from repro.reader.preprocess import TRANSFORM_REGISTRY


class TestDataLoaderConfig:
    def test_basic(self):
        cfg = DataLoaderConfig(
            batch_size=64,
            sparse_features=("a",),
            dedup_sparse_features=(("b",), ("c", "d")),
        )
        assert cfg.dedup_feature_names == ["b", "c", "d"]
        assert cfg.all_sparse_names == ["a", "b", "c", "d"]

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            DataLoaderConfig(batch_size=0)

    def test_feature_in_two_groups_rejected(self):
        with pytest.raises(ValueError):
            DataLoaderConfig(
                batch_size=1, dedup_sparse_features=(("a",), ("a", "b"))
            )

    def test_feature_both_plain_and_dedup_rejected(self):
        with pytest.raises(ValueError):
            DataLoaderConfig(
                batch_size=1,
                sparse_features=("a",),
                dedup_sparse_features=(("a",),),
            )

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            DataLoaderConfig(batch_size=1, dedup_sparse_features=((),))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dedup_sparse_features", ("ab",)),
            ("dedup_sparse_features", (("a",), "bc")),
            ("dedup_sparse_features", "ab"),
            ("sparse_features", "ab"),
            ("dense_features", "ab"),
            ("transforms", "hash_modulo"),
            ("transforms", ("hash_modulus",)),
            pytest.param(
                "DataSpec.transforms", "hash_modulo", id="DataSpec-bare-str"
            ),
            pytest.param(
                "DataSpec.transforms",
                ("hash_modulo", "hash_modulus"),
                id="DataSpec-unknown-transform",
            ),
        ],
    )
    def test_bare_string_is_not_a_list_of_names(self, field, value):
        """A str iterates as its characters: ("ab",) would dedup features
        "a" and "b" as one group, and dense_features="ab" would build two
        all-zero columns.  A transform name must be registered.  Both
        fail at construction, and a DataSpec names its own field —
        before any table lands."""
        with pytest.raises(ValueError, match=re.escape(field)):
            if field.startswith("DataSpec."):
                DataSpec(rm1(scale=0.25), transforms=value)
            else:
                DataLoaderConfig(batch_size=2, **{field: value})

    @pytest.mark.parametrize("name", sorted(TRANSFORM_REGISTRY))
    def test_every_registered_transform_is_accepted(self, name):
        """The construction check rejects only unregistered names: each
        registered one builds a config, a DataSpec, and reaches the job's
        DataLoader spec."""
        cfg = DataLoaderConfig(batch_size=2, transforms=(name,))
        assert cfg.transforms == (name,)
        data = DataSpec(rm1(scale=0.25), transforms=(name,))
        assert JobSpec(data=data).dataloader_config().transforms == (name,)

    def test_no_transforms_and_every_transform_in_order(self):
        assert DataLoaderConfig(batch_size=2).transforms == ()
        names = tuple(sorted(TRANSFORM_REGISTRY, reverse=True))
        assert DataLoaderConfig(batch_size=2, transforms=names).transforms == names
        assert DataSpec(rm1(scale=0.25), transforms=()).transforms == ()

    def test_without_dedup(self):
        cfg = DataLoaderConfig(
            batch_size=8,
            sparse_features=("a",),
            dedup_sparse_features=(("b", "c"),),
            transforms=("hash_modulo",),
        )
        base = cfg.without_dedup()
        assert base.dedup_sparse_features == ()
        assert set(base.sparse_features) == {"a", "b", "c"}
        assert base.transforms == cfg.transforms


def _kjt():
    return KeyedJaggedTensor.from_rows(
        [{"a": [1, 2], "b": [5]}, {"a": [1, 2], "b": [6]}]
    )


class TestBatch:
    def test_batch_size_consistency(self):
        kjt = _kjt()
        batch = Batch(
            dense=np.zeros((2, 3), dtype=np.float32),
            labels=np.zeros(2, dtype=np.float32),
            kjt=kjt,
        )
        assert batch.batch_size == 2
        assert batch.sparse_keys == ["a", "b"]

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            Batch(
                dense=np.zeros((3, 1), dtype=np.float32),
                labels=np.zeros(2, dtype=np.float32),
            )

    def test_wire_bytes_includes_all_slices(self):
        kjt = _kjt()
        ikjt = InverseKeyedJaggedTensor.from_kjt(kjt, ["a"])
        batch = Batch(
            dense=np.zeros((2, 1), dtype=np.float32),
            labels=np.zeros(2, dtype=np.float32),
            kjt=kjt.select(["b"]),
            ikjts=[ikjt],
        )
        expected = (
            batch.dense.nbytes
            + batch.labels.nbytes
            + kjt.select(["b"]).nbytes
            + ikjt.nbytes
        )
        assert batch.wire_nbytes == expected

    def test_dedup_batch_smaller_on_wire(self):
        """A batch with duplicated rows ships fewer bytes as IKJT."""
        rows = [{"f": list(range(50))} for _ in range(16)]  # all identical
        kjt = KeyedJaggedTensor.from_rows(rows)
        dense = np.zeros((16, 1), dtype=np.float32)
        labels = np.zeros(16, dtype=np.float32)
        plain = Batch(dense=dense, labels=labels, kjt=kjt)
        dedup = Batch(
            dense=dense,
            labels=labels,
            ikjts=[InverseKeyedJaggedTensor.from_kjt(kjt)],
        )
        assert dedup.wire_nbytes < plain.wire_nbytes / 4

    def test_to_kjt_only_round_trip(self):
        kjt = _kjt()
        batch = Batch(
            dense=np.zeros((2, 1), dtype=np.float32),
            labels=np.zeros(2, dtype=np.float32),
            kjt=kjt.select(["b"]),
            ikjts=[InverseKeyedJaggedTensor.from_kjt(kjt, ["a"])],
        )
        expanded = batch.to_kjt_only()
        assert expanded.ikjts == []
        assert expanded.kjt["a"] == kjt["a"]
        assert expanded.kjt["b"] == kjt["b"]
