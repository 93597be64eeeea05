"""Tests for feature conversion (O3) and preprocessing (O4)."""

import numpy as np
import pytest

from repro.core import (
    InverseKeyedJaggedTensor,
    JaggedTensor,
    KeyedJaggedTensor,
)
from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
    rm1,
    rm3,
)
from repro.reader import (
    TRANSFORM_REGISTRY,
    Batch,
    ClampValues,
    DataLoaderConfig,
    HashModulo,
    SparseTransform,
    TruncateLength,
    apply_transforms,
    convert_rows,
    fill_batches,
)
from repro.storage import RowBlock
from tests.conftest import land_samples, make_trace


def _schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec("u", avg_length=8, change_prob=0.05),
            SparseFeatureSpec("v", avg_length=8, change_prob=0.05, group="g"),
            SparseFeatureSpec("w", avg_length=4, change_prob=0.05, group="g"),
        ),
        dense=(DenseFeatureSpec("d0"), DenseFeatureSpec("d1")),
    )


def _rows(n=32, seed=0) -> RowBlock:
    return RowBlock.from_samples(
        generate_partition(_schema(), 4, TraceConfig(seed=seed))[:n]
    )


class TestConvert:
    def test_plain_conversion(self):
        cfg = DataLoaderConfig(
            batch_size=8,
            sparse_features=("u", "v", "w"),
            dense_features=("d0", "d1"),
        )
        rows = _rows(8)
        batch, stats = convert_rows(rows, cfg)
        assert batch.batch_size == 8
        assert batch.kjt is not None and batch.ikjts == []
        assert batch.dense.shape == (8, 2)
        assert stats.values_copied == batch.kjt.total_values
        assert stats.values_hashed == 0

    def test_dedup_conversion(self):
        cfg = DataLoaderConfig(
            batch_size=8,
            sparse_features=("u",),
            dedup_sparse_features=(("v", "w"),),
        )
        rows = _rows(8)
        batch, stats = convert_rows(rows, cfg)
        assert len(batch.ikjts) == 1
        ikjt = batch.ikjts[0]
        assert ikjt.keys == ["v", "w"]
        # all group values hashed, only unique copied
        total_group = sum(
            len(r.sparse["v"]) + len(r.sparse["w"]) for r in rows
        )
        assert stats.values_hashed == total_group
        assert stats.values_copied < stats.values_hashed + batch.kjt.total_values

    def test_conversion_lossless(self):
        cfg = DataLoaderConfig(
            batch_size=16,
            dedup_sparse_features=(("u",), ("v", "w")),
        )
        rows = _rows(16)
        batch, _ = convert_rows(rows, cfg)
        expanded = batch.to_kjt_only()
        for i, r in enumerate(rows):
            for key in ("u", "v", "w"):
                np.testing.assert_array_equal(
                    expanded.kjt[key].row(i), r.sparse[key]
                )

    def test_labels_and_dense(self):
        cfg = DataLoaderConfig(
            batch_size=4, sparse_features=("u",), dense_features=("d1",)
        )
        rows = _rows(4)
        batch, _ = convert_rows(rows, cfg)
        np.testing.assert_array_equal(
            batch.labels, [float(r.label) for r in rows]
        )
        np.testing.assert_allclose(
            batch.dense[:, 0],
            [np.float32(r.dense["d1"]) for r in rows],
        )

    def test_empty_rows_rejected(self):
        cfg = DataLoaderConfig(batch_size=4, sparse_features=("u",))
        with pytest.raises(ValueError):
            convert_rows(_rows(0), cfg)

    def test_row_list_rejected(self):
        cfg = DataLoaderConfig(batch_size=4, sparse_features=("u",))
        with pytest.raises(
            TypeError, match=r"convert_rows.*RowBlock\.from_samples"
        ):
            convert_rows(list(_rows(4)), cfg)


def _ikjt_arrays(ikjt):
    out = [ikjt.inverse_lookup]
    for _, jt in ikjt.items():
        out += [jt.values, jt.offsets]
    return out


def _batch_arrays(batch):
    out = [batch.dense, batch.labels]
    for _, jt in batch.kjt.items():
        out += [jt.values, jt.offsets]
    for ikjt in batch.ikjts:
        out += _ikjt_arrays(ikjt)
    return out


def _block_arrays(block):
    out = [block.label, *block.dense.values()]
    for offsets, values in block.sparse.values():
        out += [offsets, values]
    return out


class TestBatchConversionEqualsPerGroup:
    """``convert_rows`` keys and gathers all of a batch's dedup groups in
    one ``from_groups`` pass; every batch must be, bit for bit, the one
    built by a ``from_kjt`` call per group."""

    @pytest.mark.parametrize("workload", [rm1, rm3], ids=["RM1", "RM3"])
    def test_over_a_landed_clustered_table(self, workload):
        w = workload(scale=0.25)
        assert [len(group) for group in w.dedup_groups] == {
            "RM1": [4, 3, 3, 3, 3, 1, 1, 1, 1, 1],
            "RM3": [11, 1, 1, 1, 1, 1],
        }[w.name]
        cfg = DataLoaderConfig(
            batch_size=48,
            sparse_features=tuple(
                name
                for name in w.schema.sparse_names
                if name not in w.dedup_feature_names
            ),
            dedup_sparse_features=w.dedup_groups,
            dense_features=tuple(w.schema.dense_names),
        )
        table = land_samples(
            w.schema,
            make_trace(w.schema, sessions=24, seed=5, clustered=True),
            stripe_rows=64,
        )
        previous, batches = [], 0
        for block, _ in fill_batches(table.open_readers("p"), cfg.batch_size):
            batch, stats = convert_rows(block, cfg)
            hashed = copied = 0
            for ikjt, group in zip(
                batch.ikjts, cfg.dedup_sparse_features, strict=True
            ):
                views = KeyedJaggedTensor(
                    {
                        key: JaggedTensor(values, offsets)
                        for key in group
                        for offsets, values in [block.sparse[key]]
                    }
                )
                by_hand = InverseKeyedJaggedTensor.from_kjt(views, list(group))
                assert ikjt.keys == by_hand.keys == list(group)
                for got, want in zip(
                    _ikjt_arrays(ikjt), _ikjt_arrays(by_hand), strict=True
                ):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
                hashed += views.total_values
                copied += by_hand.total_values
            assert stats.values_hashed == hashed
            assert stats.values_copied == copied + batch.kjt.total_values
            mine = _batch_arrays(batch)
            for a in mine:
                for b in _block_arrays(block) + previous:
                    assert not np.shares_memory(a, b)
            previous = mine
            batches += 1
        assert batches >= 4


class TestTransforms:
    def test_hash_modulo_bounds(self):
        t = HashModulo(modulus=1000)
        jt = JaggedTensor.from_lists([[123456789, 5], [99]])
        out = t.apply(jt)
        assert out.values.min() >= 0
        assert out.values.max() < 1000
        np.testing.assert_array_equal(out.offsets, jt.offsets)

    def test_hash_modulo_validation(self):
        with pytest.raises(ValueError):
            HashModulo(modulus=0)

    def test_clamp(self):
        t = ClampValues(max_id=10)
        out = t.apply(JaggedTensor.from_lists([[-5, 3, 99]]))
        np.testing.assert_array_equal(out.values, [0, 3, 10])

    @pytest.mark.parametrize(
        "t, expected",
        [
            (HashModulo(modulus=1000),
             lambda v: np.abs((v * np.int64(2654435761)) % np.int64(1000))),
            (ClampValues(max_id=10), lambda v: np.clip(v, 0, 10)),
        ],
        ids=["hash_modulo", "clamp_values"],
    )
    def test_elementwise_transform_shares_the_offsets(self, t, expected):
        """An element-wise transform keeps the rows, so its output wraps
        the input's offsets unchecked, with the validating construction's
        values bit for bit."""
        jt = JaggedTensor.from_lists([[-5, 123456789, 3], [], [99]])
        out = t.apply(jt)
        checked = JaggedTensor(expected(jt.values), jt.offsets.copy())
        assert out.offsets is jt.offsets
        assert out.values.dtype == checked.values.dtype
        assert out.values.tobytes() == checked.values.tobytes()

    def test_row_count_change_still_raises(self, monkeypatch):
        """``apply_transforms``' row check stays behind an unchecked output."""

        class DropRow(HashModulo):
            name = "drop_last_row"

            def apply(self, jt):
                out = super().apply(jt)
                return JaggedTensor.trusted(out.values, out.offsets[:-1])

        monkeypatch.setitem(TRANSFORM_REGISTRY, DropRow.name, DropRow)
        batch, _ = convert_rows(
            _rows(16), DataLoaderConfig(batch_size=16, sparse_features=("u",))
        )
        with pytest.raises(ValueError, match="'drop_last_row' made 15 rows of 16"):
            apply_transforms(batch, (DropRow.name,))

    def test_truncate_keeps_suffix(self):
        t = TruncateLength(max_len=2)
        out = t.apply(JaggedTensor.from_lists([[1, 2, 3, 4], [5]]))
        assert out.to_lists() == [[3, 4], [5]]

    def test_truncate_zero(self):
        t = TruncateLength(max_len=0)
        out = t.apply(JaggedTensor.from_lists([[1, 2], [3]]))
        assert out.to_lists() == [[], []]

    def test_truncate_validation(self):
        with pytest.raises(ValueError):
            TruncateLength(max_len=-1)


class TestApplyTransforms:
    def _batch(self, dedup: bool):
        if dedup:
            cfg = DataLoaderConfig(
                batch_size=16,
                dedup_sparse_features=(("u",), ("v", "w")),
                transforms=("hash_modulo",),
            )
        else:
            cfg = DataLoaderConfig(
                batch_size=16,
                sparse_features=("u", "v", "w"),
                transforms=("hash_modulo",),
            )
        rows = _rows(16)
        batch, _ = convert_rows(rows, cfg)
        return batch, cfg

    def test_equivalence_dedup_vs_plain(self):
        """O4's wrapper must preserve functional semantics: transforming
        dedup slices then expanding equals transforming the full KJT."""
        plain_batch, plain_cfg = self._batch(dedup=False)
        dedup_batch, dedup_cfg = self._batch(dedup=True)
        plain_out, _ = apply_transforms(plain_batch, plain_cfg.transforms)
        dedup_out, _ = apply_transforms(dedup_batch, dedup_cfg.transforms)
        expanded = dedup_out.to_kjt_only()
        for key in ("u", "v", "w"):
            assert expanded.kjt[key] == plain_out.kjt[key]

    def test_dedup_processes_fewer_values(self):
        """O4's efficiency claim: IKJT preprocessing touches fewer values."""
        plain_batch, plain_cfg = self._batch(dedup=False)
        dedup_batch, dedup_cfg = self._batch(dedup=True)
        _, plain_stats = apply_transforms(plain_batch, plain_cfg.transforms)
        _, dedup_stats = apply_transforms(dedup_batch, dedup_cfg.transforms)
        assert dedup_stats.values_processed < plain_stats.values_processed

    def test_unknown_transform(self):
        batch, _ = self._batch(dedup=False)
        with pytest.raises(KeyError):
            apply_transforms(batch, ("nope",))

    def test_no_transforms_identity(self):
        batch, _ = self._batch(dedup=True)
        out, stats = apply_transforms(batch, ())
        assert stats.values_processed == 0
        assert out.ikjts == batch.ikjts


class _Spy(SparseTransform):
    """Records the row count of every tensor it is applied to."""

    name = "spy"
    calls: list[int] = []

    def apply(self, jt: JaggedTensor) -> JaggedTensor:
        _Spy.calls.append(jt.num_rows)
        return JaggedTensor(jt.values + 1, jt.offsets.copy())


class TestOneApplyPerTensor:
    """A transform runs once per KJT and once per batch buffer — over
    every key's rows back to back, every IKJT group's unique rows in the
    one buffer — never once per feature or per group."""

    def test_apply_is_called_once_per_kjt_and_once_per_batch_buffer(
        self, monkeypatch
    ):
        monkeypatch.setitem(TRANSFORM_REGISTRY, _Spy.name, _Spy)
        monkeypatch.setattr(_Spy, "calls", [])
        rows = _rows(16)
        plain, _ = convert_rows(
            rows, DataLoaderConfig(batch_size=16, sparse_features=("u", "v", "w"))
        )
        dedup, _ = convert_rows(
            rows,
            DataLoaderConfig(
                batch_size=16, dedup_sparse_features=(("u",), ("v", "w"))
            ),
        )
        # one KJT of three keys beside two IKJT groups
        batch = Batch(
            dense=plain.dense, labels=plain.labels, kjt=plain.kjt,
            ikjts=dedup.ikjts,
        )
        out, stats = apply_transforms(batch, ("spy", "spy"))
        unique = sum(len(ikjt.keys) * ikjt.num_unique for ikjt in dedup.ikjts)
        # each transform on the KJT's K·B rows, then on both groups' K·U
        # rows in the one buffer
        assert _Spy.calls == [3 * 16, unique] * 2
        assert stats.rows_processed == (3 * 16 + unique) * 2
        for key in ("u", "v", "w"):
            np.testing.assert_array_equal(
                out.kjt[key].values, plain.kjt[key].values + 2
            )
        for got, ikjt in zip(out.ikjts, dedup.ikjts, strict=True):
            np.testing.assert_array_equal(got.inverse_lookup, ikjt.inverse_lookup)
            for key in ikjt.keys:
                np.testing.assert_array_equal(
                    got[key].values, ikjt[key].values + 2
                )
            # every group is a view of the transformed batch buffer
            assert np.shares_memory(got.flat.values, out.unique.values)
