"""Cross-module integration tests: losslessness through the whole pipe.

The strongest correctness statement this reproduction can make is that
the *entire* RecD pipeline — Scribe transport, ETL join/cluster, DWRF
serialization, reader conversion to IKJTs, trainer dedup paths — is a
chain of lossless transformations: every sample's features survive
bit-exactly, and the trained model is identical with and without RecD.
"""

import numpy as np
import pytest

from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    FeatureKind,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.etl import ETLConfig, ETLJob
from repro.reader import DataLoaderConfig, ReaderNode
from repro.scribe import ScribeCluster, ShardKeyPolicy, split_sample
from repro.storage import HiveTable, TectonicFS


def _schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec(
                "hist", FeatureKind.USER, avg_length=10, change_prob=0.1,
                group="g",
            ),
            SparseFeatureSpec(
                "hist2", FeatureKind.USER, avg_length=6, change_prob=0.1,
                group="g",
            ),
            SparseFeatureSpec(
                "item", FeatureKind.ITEM, avg_length=2, change_prob=0.9
            ),
        ),
        dense=(DenseFeatureSpec("d"),),
    )


@pytest.fixture(scope="module")
def stack():
    """Generate -> Scribe -> ETL(cluster) -> Hive; return all artifacts."""
    schema = _schema()
    samples = generate_partition(schema, 60, TraceConfig(seed=13))
    scribe = ScribeCluster(num_shards=4, policy=ShardKeyPolicy.SESSION_ID)
    for s in samples:
        feat, ev = split_sample(s)
        scribe.log_features(feat)
        scribe.log_event(ev)
    scribe.flush()
    etl = ETLJob(ETLConfig(cluster=True)).run_from_scribe(scribe)
    fs = TectonicFS()
    table = HiveTable("t", schema, fs, rows_per_file=512, stripe_rows=64)
    table.land_partition("p", etl.samples)
    return schema, samples, etl, table


class TestTransportAndLanding:
    def test_no_rows_lost(self, stack):
        _, samples, etl, table = stack
        assert len(etl.samples) == len(samples)
        assert table.partitions["p"].num_rows == len(samples)

    def test_landed_partition_clustered(self, stack):
        _, _, etl, _ = stack
        sid = etl.samples.session_id
        runs = sid[np.flatnonzero(np.diff(sid, prepend=sid[0] - 1))]
        assert np.unique(runs).size == runs.size  # one run per session

    def test_feature_values_survive_transport_and_storage(self, stack):
        _, samples, _, table = stack
        stored = table.read_partition("p")
        by_id = {s.sample_id: s for s in samples}
        assert len(stored) == len(samples)
        for got in stored:
            want = by_id[got.sample_id]
            assert got.session_id == want.session_id
            assert got.label == want.label
            for key in ("hist", "hist2", "item"):
                np.testing.assert_array_equal(
                    got.sparse[key], want.sparse[key]
                )
            assert got.dense["d"] == pytest.approx(want.dense["d"])


class TestReaderOverTheStack:
    def test_recd_batches_encode_original_rows(self, stack):
        schema, samples, etl, table = stack
        cfg = DataLoaderConfig(
            batch_size=64,
            sparse_features=("item",),
            dedup_sparse_features=(("hist", "hist2"),),
            dense_features=("d",),
        )
        node = ReaderNode(cfg)
        batches = node.run_all(table.open_readers("p"))
        # re-expand every batch and compare against the clustered rows
        row_cursor = 0
        for batch in batches:
            expanded = batch.to_kjt_only()
            for i in range(batch.batch_size):
                want = etl.samples[row_cursor]
                for key in ("hist", "hist2", "item"):
                    np.testing.assert_array_equal(
                        expanded.kjt[key].row(i), want.sparse[key]
                    )
                assert batch.labels[i] == want.label
                row_cursor += 1
        assert row_cursor == 64 * len(batches)

    def test_grouped_ikjt_invariant_holds_over_real_data(self, stack):
        """The shared inverse_lookup must stay valid through the full
        stack — the §4.2 invariant checked on stored, re-read data."""
        _, _, _, table = stack
        cfg = DataLoaderConfig(
            batch_size=64,
            dedup_sparse_features=(("hist", "hist2"),),
        )
        node = ReaderNode(cfg)
        for batch in node.run_all(table.open_readers("p"), max_batches=3):
            (ikjt,) = batch.ikjts
            for i in range(batch.batch_size):
                u = ikjt.inverse_lookup[i]
                for key in ("hist", "hist2"):
                    jt = ikjt[key]
                    assert 0 <= u < jt.num_rows
