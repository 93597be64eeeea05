"""The columnar ETL against the row-based one it replaced.

``tests/etl/reference_rows.py`` keeps the per-record / per-``Sample``
implementation as the oracle.  Whatever crosses a scribe cluster —
features without events, duplicate events, timestamp ties, rows missing
features — both must land the same rows in the same order, clustered or
not; each block rule (``join_rows``, ``cluster_order``, the keep
masks) picks the rows its row-list counterpart did; and between the
scribe drain and the last file write of a static job the columnar path
builds no row or record object at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import rm1
from repro.datagen.session import Sample
from repro.etl import ETLConfig, ETLJob
from repro.etl.cluster import cluster_order
from repro.etl.downsample import keep_samples, keep_sessions
from repro.etl.join import join_rows
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    Session,
    TrainSpec,
)
from repro.scribe import (
    EventLogRecord,
    FeatureLogRecord,
    ScribeCluster,
    ShardKeyPolicy,
    parse_payloads,
)
from repro.storage import RowBlock, TectonicFS

from . import reference_rows as ref

_SPARSE = ("hist", "item", "q")
_DENSE = ("hour", "price")
_EMPTY = np.empty(0, dtype=np.int64)


@st.composite
def _logs(draw):
    """Feature and event records with everything the join must survive:
    request ids without an event, events without features, several
    events per request (the last wins), equal timestamps, equal
    (timestamp, request id) pairs, features missing from some rows."""
    n = draw(st.integers(0, 16))
    request_ids = st.integers(0, max(n, 1))  # dense: collisions are likely
    ids = st.lists(st.integers(-(2**62), 2**62), max_size=4)
    features = [
        FeatureLogRecord(
            request_id=draw(request_ids),
            session_id=draw(st.integers(-2, 3)),
            timestamp=draw(st.sampled_from([0.0, 1.0, 1.5, 7.25])),
            sparse={
                k: np.array(draw(ids), dtype=np.int64)
                for k in _SPARSE
                if draw(st.booleans())
            },
            dense={
                k: draw(st.floats(-1e3, 1e3))
                for k in _DENSE
                if draw(st.booleans())
            },
        )
        for _ in range(n)
    ]
    events = [
        EventLogRecord(
            request_id=draw(st.integers(0, max(n, 1) + 2)),
            session_id=draw(st.integers(-2, 3)),
            timestamp=draw(st.floats(0, 10)),
            label=draw(st.integers(0, 1)),
        )
        for _ in range(draw(st.integers(0, 2 * n)))
    ]
    return features, events


_configs = st.builds(
    ETLConfig,
    cluster=st.booleans(),
)


def _assert_rows_equal(got: RowBlock, want: list[Sample]):
    """Row for row; a feature a row lacks reads as empty / 0.0."""
    assert isinstance(got, RowBlock)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.sample_id, g.session_id, g.timestamp, g.label) == (
            w.sample_id,
            w.session_id,
            w.timestamp,
            w.label,
        )
        for key in _SPARSE:
            np.testing.assert_array_equal(
                g.sparse.get(key, _EMPTY), w.sparse.get(key, _EMPTY)
            )
        for key in _DENSE:
            assert g.dense.get(key, 0.0) == w.dense.get(key, 0.0)


@settings(deadline=None, max_examples=150)
@given(
    _logs(),
    _configs,
    st.sampled_from(list(ShardKeyPolicy)),
    st.integers(1, 4),
    st.permutations(range(2)),
)
def test_scribe_to_rows_matches_the_row_etl(
    logs, config, policy, num_shards, category_order
):
    features, events = logs
    # tiny blocks, so every shard seals several and drains them in order
    cluster = ScribeCluster(num_shards, policy, block_bytes=256)
    for category in category_order:
        if category == 0:
            for rec in features:
                cluster.log_features(rec)
        else:
            for ev in events:
                cluster.log_event(ev)
    result = ETLJob(config).run_from_scribe(cluster)
    want = ref.run_from_payloads(config, cluster.read_all())
    _assert_rows_equal(result.samples, want)


def _join_rows(features, events) -> RowBlock:
    """:func:`join_rows` over the records' wire bytes, in the feature
    stream's own order (no sort by time)."""
    block, event_columns = parse_payloads(
        [r.serialize() for r in (*features, *events)]
    )
    kept, labels = join_rows(block, event_columns, np.arange(len(block)))
    joined = block.take(kept)
    joined.label = labels
    return joined


@settings(deadline=None)
@given(_logs())
def test_records_to_rows_matches_the_row_etl(logs):
    """:func:`join_rows` over the records' columns: feature rows without
    an event drop, the last event's label wins, and the feature stream's
    order is kept — as the row join did."""
    _assert_rows_equal(_join_rows(*logs), ref.join_logs(*logs))


@settings(deadline=None)
@given(_logs(), st.sampled_from([1.0, 0.5, 0.0]), st.integers(0, 3))
def test_block_rules_pick_the_reference_rows(logs, rate, seed):
    """``cluster_order`` and the keep masks pick and order the rows the
    row-list policies did, over the same rows as columns."""
    samples = ref.join_logs(*logs)
    block = RowBlock.from_samples(samples, _SPARSE, _DENSE)
    position = {id(s): i for i, s in enumerate(samples)}

    def picked(rows):
        return [position[id(s)] for s in rows]

    assert cluster_order(block.session_id, block.timestamp).tolist() == (
        picked(ref.cluster_by_session(samples))
    )
    assert np.flatnonzero(keep_samples(len(block), rate, seed)).tolist() == (
        picked(ref.downsample_per_sample(samples, rate, seed))
    )
    assert np.flatnonzero(keep_sessions(block.session_id, rate, seed)).tolist() == (
        picked(ref.downsample_per_session(samples, rate, seed))
    )


def test_last_event_wins_and_unmatched_rows_drop():
    features = [
        FeatureLogRecord(r, 0, float(r), {"hist": np.array([r])}, {})
        for r in (3, 1, 2)
    ]
    events = [
        EventLogRecord(1, 0, 0.0, 0),
        EventLogRecord(3, 0, 0.0, 1),
        EventLogRecord(9, 0, 0.0, 1),  # no such request
        EventLogRecord(1, 0, 0.0, 1),  # supersedes the first
    ]
    out = _join_rows(features, events)
    assert out.sample_id.tolist() == [3, 1]
    assert out.label.tolist() == [1, 1]


@pytest.mark.parametrize(
    "toggles", [RecDToggles.baseline(), RecDToggles.full()], ids=["baseline", "recd"]
)
def test_static_prepare_builds_no_row_between_drain_and_last_write(
    monkeypatch, count_constructions, toggles
):
    """From ``drain_all()`` to the last ``fs.write`` of a static
    ``Session.prepare()``: zero ``Sample``s, zero ``FeatureLogRecord``s."""
    spec = JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.25),
            num_sessions=60,
            num_partitions=2,
            seed=3,
            toggles=toggles,
        ),
        reader=ReaderSpec(executor="inprocess"),
        train=TrainSpec(batch_size=32, train_batches=2),
    )
    built = count_constructions(Sample, FeatureLogRecord)
    at_drain: list[int] = []
    at_write: list[int] = []
    drain_all = ScribeCluster.drain_all
    fs_write = TectonicFS.write

    def recording_drain(self):
        at_drain.append(built[0])
        return drain_all(self)

    def recording_write(self, path, data):
        at_write.append(built[0])
        fs_write(self, path, data)

    monkeypatch.setattr(ScribeCluster, "drain_all", recording_drain)
    monkeypatch.setattr(TectonicFS, "write", recording_write)
    session = Session(spec)
    session.prepare()
    assert len(at_drain) == 1 and len(at_write) == 2
    assert at_drain[0] > 0  # the trace was generated and logged as rows
    assert at_write[-1] == at_drain[0]
    assert isinstance(session.runtime("job0").lander.samples, RowBlock)
