"""Serialization round-trip tests for log records."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datagen.session import Sample
from repro.scribe import (
    EventLogRecord,
    FeatureLogRecord,
    parse_payloads,
    split_sample,
)


def make_feature_record():
    return FeatureLogRecord(
        request_id=42,
        session_id=7,
        timestamp=123.5,
        sparse={
            "hist": np.array([1, 2, 3], dtype=np.int64),
            "empty": np.array([], dtype=np.int64),
        },
        dense={"hour": 0.25},
    )


class TestFeatureLogRecord:
    def test_round_trip(self):
        rec = make_feature_record()
        got = FeatureLogRecord.deserialize(rec.serialize())
        assert got.request_id == 42
        assert got.session_id == 7
        assert got.timestamp == 123.5
        np.testing.assert_array_equal(got.sparse["hist"], [1, 2, 3])
        assert got.sparse["empty"].size == 0
        assert got.dense == {"hour": 0.25}

    def test_no_features(self):
        rec = FeatureLogRecord(1, 2, 3.0, {}, {})
        got = FeatureLogRecord.deserialize(rec.serialize())
        assert got.sparse == {}
        assert got.dense == {}

    def test_deserialized_arrays_are_owned(self):
        """Deserialization must copy out of the buffer (writable arrays)."""
        rec = make_feature_record()
        got = FeatureLogRecord.deserialize(rec.serialize())
        got.sparse["hist"][0] = 99  # must not raise

    def test_negative_ids(self):
        rec = FeatureLogRecord(-5, -9, 0.0, {"f": np.array([-1], dtype=np.int64)}, {})
        got = FeatureLogRecord.deserialize(rec.serialize())
        assert got.request_id == -5
        assert got.session_id == -9
        np.testing.assert_array_equal(got.sparse["f"], [-1])


class TestEventLogRecord:
    def test_round_trip(self):
        ev = EventLogRecord(request_id=1, session_id=2, timestamp=9.5, label=1)
        got = EventLogRecord.deserialize(ev.serialize())
        assert got == ev

    def test_fixed_size(self):
        ev = EventLogRecord(1, 2, 3.0, 0)
        assert len(ev.serialize()) == EventLogRecord._FMT.size


class TestSplitSample:
    def test_split_preserves_everything(self):
        s = Sample(
            sample_id=10,
            session_id=3,
            timestamp=5.0,
            label=1,
            sparse={"f": np.array([4, 5], dtype=np.int64)},
            dense={"d": 0.5},
        )
        feat, ev = split_sample(s)
        assert feat.request_id == ev.request_id == 10
        assert feat.session_id == ev.session_id == 3
        assert ev.label == 1
        np.testing.assert_array_equal(feat.sparse["f"], [4, 5])


@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.dictionaries(
        st.text(
            alphabet="abcdefgh_", min_size=1, max_size=8
        ),
        st.lists(st.integers(min_value=0, max_value=2**50), max_size=6),
        max_size=4,
    ),
)
def test_property_feature_record_round_trip(rid, sid, ts, sparse):
    rec = FeatureLogRecord(
        rid,
        sid,
        ts,
        {k: np.array(v, dtype=np.int64) for k, v in sparse.items()},
        {},
    )
    got = FeatureLogRecord.deserialize(rec.serialize())
    assert got.request_id == rid and got.session_id == sid
    assert got.timestamp == ts
    assert set(got.sparse) == set(sparse)
    for k, v in sparse.items():
        np.testing.assert_array_equal(got.sparse[k], v)


# -- the columnar parser and hostile bytes --------------------------------------


def _wire(request_id, sparse=(), dense=(), n_feat=None, n_dense=None, tail=b""):
    """A feature message packed by hand, so counts and lengths can lie.
    ``sparse`` is ``[(name bytes, n_vals, value bytes)]``, ``dense`` is
    ``[(name bytes, value)]``."""
    out = [struct.pack("<qqdq", request_id, 7, 1.5, len(sparse) if n_feat is None else n_feat)]
    for name, n_vals, values in sparse:
        out += [struct.pack("<HQ", len(name), n_vals), name, values]
    out.append(struct.pack("<q", len(dense) if n_dense is None else n_dense))
    for name, value in dense:
        out += [struct.pack("<Hd", len(name), value), name]
    return b"".join(out) + tail


def _ints(*values):
    return np.array(values, dtype=np.int64).tobytes()


class TestParsePayloads:
    def test_mixed_batch_becomes_columns_in_payload_order(self):
        a = FeatureLogRecord(
            1, 10, 0.5, {"hist": np.array([4, 5]), "item": np.array([9])}, {"hour": 0.25}
        )
        b = FeatureLogRecord(2, 11, 1.5, {"item": np.array([], dtype=np.int64)}, {})
        # a different feature order, and a feature ``a`` lacks
        c = FeatureLogRecord(
            3, 10, 2.5, {"item": np.array([-1, -2]), "q": np.array([2**62])}, {"price": 3.0}
        )
        ev = EventLogRecord(2, 11, 9.0, 1)
        block, events = parse_payloads(
            [a.serialize(), ev.serialize(), b.serialize(), c.serialize()]
        )
        assert block.sample_id.tolist() == [1, 2, 3]
        assert block.session_id.tolist() == [10, 11, 10]
        assert block.timestamp.tolist() == [0.5, 1.5, 2.5]
        assert block.label.tolist() == [0, 0, 0]
        assert list(block.sparse) == ["hist", "item", "q"]
        assert block.sparse["hist"][0].tolist() == [0, 2, 2, 2]
        assert block.sparse["hist"][1].tolist() == [4, 5]
        assert block.sparse["item"][0].tolist() == [0, 1, 1, 3]
        assert block.sparse["item"][1].tolist() == [9, -1, -2]
        assert block.sparse["q"][1].tolist() == [2**62]
        assert block.dense["hour"].tolist() == [0.25, 0.0, 0.0]
        assert block.dense["price"].tolist() == [0.0, 0.0, 3.0]
        assert events.tolist() == [(2, 11, 9.0, 1)]
        assert all(
            col.dtype == np.int64 and col.flags.c_contiguous
            for col in (block.sample_id, block.session_id, *block.sparse["item"])
        )

    def test_nothing_and_events_only(self):
        block, events = parse_payloads([])
        assert len(block) == 0 and events.size == 0
        block, events = parse_payloads([EventLogRecord(1, 2, 3.0, 1).serialize()] * 3)
        assert len(block) == 0 and events["label"].tolist() == [1, 1, 1]

    def test_a_repeated_name_keeps_its_last_occurrence(self):
        """What ``dict`` assignment did in the per-record walk."""
        data = _wire(
            1,
            sparse=[(b"f", 2, _ints(1, 2)), (b"g", 1, _ints(7)), (b"f", 1, _ints(3))],
            dense=[(b"d", 1.0), (b"d", 2.0)],
        )
        rec = FeatureLogRecord.deserialize(data)
        assert list(rec.sparse) == ["f", "g"]
        assert rec.sparse["f"].tolist() == [3] and rec.sparse["g"].tolist() == [7]
        assert rec.dense == {"d": 2.0}

    def test_names_that_differ_only_in_trailing_nuls_stay_apart(self):
        data = _wire(1, sparse=[(b"a\x00", 1, _ints(1)), (b"a\x00\x00", 1, _ints(2))])
        other = _wire(2, sparse=[(b"a\x00\x00", 1, _ints(3)), (b"a\x00", 1, _ints(4))])
        block, _ = parse_payloads([data, other])
        assert block.sparse["a\x00"][1].tolist() == [1, 4]
        assert block.sparse["a\x00\x00"][1].tolist() == [2, 3]


class TestHostileFeatureBytes:
    """Every length is bounded by the bytes left before anything is
    sliced or allocated; what used to leak as ``struct.error``, numpy's
    "buffer is smaller than requested size" or ``UnicodeDecodeError`` is
    a ``ValueError`` naming the record."""

    GOOD = _wire(1, sparse=[(b"f", 1, _ints(5))], dense=[(b"d", 0.5)])

    @pytest.mark.parametrize(
        "data, what",
        [
            (b"\x00" * 39, "shorter than a record without features"),
            (_wire(1, n_feat=-1), "sparse entry count does not fit the bytes left"),
            (_wire(1, n_feat=2**62), "sparse entry count does not fit the bytes left"),
            (
                _wire(1, sparse=[(b"f", 1, _ints(5))], n_feat=2),
                "sparse entry 1 is cut off",
            ),
            (
                struct.pack("<qqdq", 1, 7, 1.5, 1) + struct.pack("<HQ", 65535, 0) + b"f" * 12,
                "name of sparse entry 0 is cut off",
            ),
            (
                _wire(1, sparse=[(b"f", 2**63, _ints(5))]),
                "values of sparse entry 0 are cut off",
            ),
            (
                _wire(1, sparse=[(b"f", 4, _ints(5, 6))]),
                "values of sparse entry 0 are cut off",
            ),
            (
                struct.pack("<qqdq", 1, 7, 1.5, 1) + struct.pack("<HQ", 1, 1) + b"f" + _ints(5),
                "dense entry count is cut off",
            ),
            (_wire(1, n_dense=-1), "dense entry count does not fit the bytes left"),
            (_wire(1, n_dense=2**40), "dense entry count does not fit the bytes left"),
            (
                _wire(1, dense=[(b"d", 0.5)])[:-1],
                "name of dense entry 0 is cut off",
            ),
            (_wire(1, tail=b"\x00"), "trailing bytes after the last dense entry"),
            (
                _wire(1, sparse=[(b"\xff\xfe", 0, b"")]),
                "name of sparse entry 0 is not UTF-8",
            ),
            (
                _wire(1, dense=[(b"\xc3", 1.0)]),
                "name of dense entry 0 is not UTF-8",
            ),
        ],
    )
    def test_named_errors(self, data, what):
        with pytest.raises(ValueError) as err:
            FeatureLogRecord.deserialize(data)
        assert str(err.value) == f"feature record 0: {what}"
        # in a batch the index is the message's place in the payload list
        event = EventLogRecord(1, 2, 3.0, 1).serialize()
        with pytest.raises(ValueError) as err:
            parse_payloads([self.GOOD, event, data, self.GOOD])
        assert str(err.value) == f"feature record 2: {what}"

    @given(st.data())
    def test_mutated_messages_parse_or_raise_value_error(self, data):
        rec = make_feature_record().serialize()
        kind = data.draw(st.sampled_from(["cut", "flip", "grow"]))
        if kind == "cut":
            bad = rec[: data.draw(st.integers(0, len(rec) - 1))]
        elif kind == "grow":
            bad = rec + data.draw(st.binary(min_size=1, max_size=9))
        else:
            at = data.draw(st.integers(0, len(rec) - 1))
            bad = rec[:at] + bytes([data.draw(st.integers(0, 255))]) + rec[at + 1 :]
        if len(bad) == EventLogRecord._FMT.size:
            return  # that length is an event by definition
        try:
            block, _ = parse_payloads([rec, bad])
        except ValueError as err:
            assert str(err).startswith("feature record 1: ")
        else:
            assert len(block) == 2
