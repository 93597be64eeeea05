"""Hypothesis property tests across module boundaries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InverseKeyedJaggedTensor, KeyedJaggedTensor
from repro.datagen import DatasetSchema, DenseFeatureSpec, SparseFeatureSpec
from repro.datagen.session import Sample
from repro.scribe import EventLogRecord, FeatureLogRecord
from repro.storage import Codec, DwrfReader, DwrfWriter, IntEncoding, RowBlock


@st.composite
def arbitrary_samples(draw):
    """Random samples not produced by the trace generator — the storage
    layer must round-trip anything schema-shaped."""
    n = draw(st.integers(min_value=1, max_value=20))
    samples = []
    for i in range(n):
        samples.append(
            Sample(
                sample_id=i,
                session_id=draw(st.integers(min_value=0, max_value=5)),
                timestamp=float(
                    draw(st.floats(min_value=0, max_value=1e6,
                                   allow_nan=False))
                ),
                label=draw(st.integers(min_value=0, max_value=1)),
                sparse={
                    "f1": np.array(
                        draw(
                            st.lists(
                                st.integers(min_value=0, max_value=2**40),
                                max_size=6,
                            )
                        ),
                        dtype=np.int64,
                    ),
                    "f2": np.array(
                        draw(
                            st.lists(
                                st.integers(min_value=-(2**40), max_value=0),
                                max_size=3,
                            )
                        ),
                        dtype=np.int64,
                    ),
                },
                dense={"d": float(draw(st.floats(-1e6, 1e6,
                                                 allow_nan=False)))},
            )
        )
    return samples


_SCHEMA = DatasetSchema(
    sparse=(SparseFeatureSpec("f1"), SparseFeatureSpec("f2")),
    dense=(DenseFeatureSpec("d"),),
)


@settings(max_examples=40, deadline=None)
@given(arbitrary_samples(), st.sampled_from(list(IntEncoding)))
def test_property_dwrf_round_trip_any_samples(samples, encoding):
    writer = DwrfWriter(
        _SCHEMA, stripe_rows=7, codec=Codec.ZLIB, int_encoding=encoding
    )
    blob, _ = writer.write(RowBlock.from_samples(samples))
    got = DwrfReader(blob, _SCHEMA).read_all()
    assert len(got) == len(samples)
    for a, b in zip(got, samples):
        assert a.sample_id == b.sample_id
        assert a.session_id == b.session_id
        assert a.label == b.label
        np.testing.assert_array_equal(a.sparse["f1"], b.sparse["f1"])
        np.testing.assert_array_equal(a.sparse["f2"], b.sparse["f2"])
        assert a.dense["d"] == b.dense["d"]


@settings(max_examples=40, deadline=None)
@given(arbitrary_samples())
def test_property_log_records_round_trip(samples):
    for s in samples:
        feat = FeatureLogRecord(
            s.sample_id, s.session_id, s.timestamp, s.sparse, s.dense
        )
        got = FeatureLogRecord.deserialize(feat.serialize())
        for k in s.sparse:
            np.testing.assert_array_equal(got.sparse[k], s.sparse[k])
        ev = EventLogRecord(s.sample_id, s.session_id, s.timestamp, s.label)
        assert EventLogRecord.deserialize(ev.serialize()) == ev


@settings(max_examples=40, deadline=None)
@given(arbitrary_samples())
def test_property_ikjt_over_any_rows(samples):
    """IKJT conversion is lossless for any schema-shaped row content."""
    kjt = KeyedJaggedTensor.from_rows(
        [s.sparse for s in samples], keys=["f1", "f2"]
    )
    grouped = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1", "f2"])
    assert grouped.to_kjt() == kjt
    solo = InverseKeyedJaggedTensor.from_kjt(kjt, ["f1"])
    assert solo.to_kjt() == kjt.select(["f1"])
    # grouping never dedups more than the loosest member
    assert grouped.num_unique >= solo.num_unique
