"""The row-based ETL the columnar one replaced, kept as the test oracle.

One ``FeatureLogRecord`` per message (a ``struct`` walk with a
``frombuffer().copy()`` per feature), one ``Sample`` per joined row,
dict-and-``sorted`` policies — as they stood before ``ETLJob`` moved
``RowBlock`` columns.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.datagen.session import Sample
from repro.etl import ETLConfig
from repro.scribe import EventLogRecord, FeatureLogRecord

_HEADER = struct.Struct("<qqdq")


def deserialize_features(data: bytes) -> FeatureLogRecord:
    """The unchecked struct walk (errors leak as ``struct.error`` etc.)."""
    request_id, session_id, timestamp, n_feat = _HEADER.unpack_from(data, 0)
    pos = _HEADER.size
    sparse: dict[str, np.ndarray] = {}
    for _ in range(n_feat):
        name_len, n_vals = struct.unpack_from("<HQ", data, pos)
        pos += 10
        name = data[pos : pos + name_len].decode()
        pos += name_len
        sparse[name] = np.frombuffer(
            data, dtype=np.int64, count=n_vals, offset=pos
        ).copy()
        pos += n_vals * 8
    (n_dense,) = struct.unpack_from("<q", data, pos)
    pos += 8
    dense: dict[str, float] = {}
    for _ in range(n_dense):
        name_len, value = struct.unpack_from("<Hd", data, pos)
        pos += 10
        name = data[pos : pos + name_len].decode()
        pos += name_len
        dense[name] = value
    return FeatureLogRecord(request_id, session_id, timestamp, sparse, dense)


def join_logs(features, events) -> list[Sample]:
    label_by_request: dict[int, int] = {}
    for ev in events:
        label_by_request[ev.request_id] = ev.label
    samples: list[Sample] = []
    for rec in features:
        label = label_by_request.get(rec.request_id)
        if label is None:
            continue
        samples.append(
            Sample(
                sample_id=rec.request_id,
                session_id=rec.session_id,
                timestamp=rec.timestamp,
                label=label,
                sparse=rec.sparse,
                dense=rec.dense,
            )
        )
    return samples


def cluster_by_session(samples: list[Sample]) -> list[Sample]:
    first_ts: dict[int, float] = {}
    for s in samples:
        cur = first_ts.get(s.session_id)
        if cur is None or s.timestamp < cur:
            first_ts[s.session_id] = s.timestamp
    return sorted(
        samples, key=lambda s: (first_ts[s.session_id], s.session_id, s.timestamp)
    )


def downsample_per_sample(samples, keep_rate, seed=0):
    rng = np.random.default_rng(seed)
    keep = rng.random(len(samples)) < keep_rate
    return [s for s, k in zip(samples, keep) if k]


def downsample_per_session(samples, keep_rate, seed=0):
    rng = np.random.default_rng(seed)
    session_ids = sorted({s.session_id for s in samples})
    keep_mask = rng.random(len(session_ids)) < keep_rate
    kept = {sid for sid, k in zip(session_ids, keep_mask) if k}
    return [s for s in samples if s.session_id in kept]


def run_from_records(config: ETLConfig, features, events) -> list[Sample]:
    samples = join_logs(features, events)
    if config.cluster:
        samples = cluster_by_session(samples)
    return samples


def run_from_payloads(config: ETLConfig, payloads: list[bytes]) -> list[Sample]:
    features, events = [], []
    for payload in payloads:
        if len(payload) == EventLogRecord._FMT.size:
            events.append(EventLogRecord.deserialize(payload))
        else:
            features.append(deserialize_features(payload))
    features.sort(key=lambda r: (r.timestamp, r.request_id))
    return run_from_records(config, features, events)
