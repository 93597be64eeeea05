"""Log messages flowing from inference servers into Scribe.

Inference servers log *features* for every request (to avoid data
leakage, §2.1) and user-facing services log *events* (impression
outcomes).  Both are serialized to real bytes here so that Scribe-shard
compression ratios (O1) are measured, not modeled.

Writing is per record (:meth:`FeatureLogRecord.serialize` — that is the
traffic); reading is per drain: :func:`parse_payloads` turns a whole
list of messages into columns without building a record per message.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from ..core.jagged import offsets_from_lengths
from ..datagen.session import Sample
from ..storage.rowblock import RowBlock

__all__ = [
    "FeatureLogRecord",
    "EventLogRecord",
    "split_sample",
    "parse_payloads",
]

# The wire layout, little endian and unpadded.  A feature message is
#   header, n_feat x (sparse entry, name, n_vals x i8),
#   i8:n_dense, n_dense x (dense entry, name)
# and an event message is one fixed-size item.  ``serialize`` packs the
# same fields through ``struct``.
_HEADER = struct.Struct("<qqdq")  # request_id, session_id, timestamp, n_feat
_IDS = [("request_id", "<i8"), ("session_id", "<i8"), ("timestamp", "<f8")]
_HEADER_ITEM = np.dtype([*_IDS, ("n_feat", "<i8")])
_EVENT_ITEM = np.dtype([*_IDS, ("label", "<i8")])  # EventLogRecord._FMT
_SPARSE_ENTRY = np.dtype([("name_len", "<u2"), ("n_vals", "<u8")])  # "<HQ"
_DENSE_ENTRY = np.dtype([("name_len", "<u2"), ("value", "<f8")])  # "<Hd"
_INT = np.dtype("<i8")


@dataclass(frozen=True)
class FeatureLogRecord:
    """Features logged by an inference server for one request."""

    request_id: int
    session_id: int
    timestamp: float
    sparse: dict[str, np.ndarray]
    dense: dict[str, float]

    def serialize(self) -> bytes:
        """Binary wire format: header, then per-feature name/len/values."""
        parts = [_HEADER.pack(self.request_id, self.session_id,
                              self.timestamp, len(self.sparse))]
        for name, values in self.sparse.items():
            encoded = name.encode()
            arr = np.ascontiguousarray(values, dtype=np.int64)
            parts.append(struct.pack("<HQ", len(encoded), arr.size))
            parts.append(encoded)
            parts.append(arr.tobytes())
        parts.append(struct.pack("<q", len(self.dense)))
        for name, value in self.dense.items():
            encoded = name.encode()
            parts.append(struct.pack("<Hd", len(encoded), value))
            parts.append(encoded)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, data: bytes) -> "FeatureLogRecord":
        """Exact inverse of :meth:`serialize`: the one-message case of
        :func:`parse_payloads`' feature parser, so malformed bytes raise
        the same ``ValueError``."""
        block = _parse_features([data], np.zeros(1, dtype=np.int64))
        return cls(
            request_id=int(block.sample_id[0]),
            session_id=int(block.session_id[0]),
            timestamp=float(block.timestamp[0]),
            sparse={name: values for name, (_, values) in block.sparse.items()},
            dense={name: float(col[0]) for name, col in block.dense.items()},
        )


@dataclass(frozen=True)
class EventLogRecord:
    """An impression outcome (the label source) for one request."""

    request_id: int
    session_id: int
    timestamp: float
    label: int

    _FMT = struct.Struct("<qqdq")

    def serialize(self) -> bytes:
        """Fixed-size binary wire format (id, session, time, label)."""
        return self._FMT.pack(
            self.request_id, self.session_id, self.timestamp, self.label
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "EventLogRecord":
        """Exact inverse of :meth:`serialize` (the ETL ingest path)."""
        request_id, session_id, timestamp, label = cls._FMT.unpack(data)
        return cls(request_id, session_id, timestamp, label)


def split_sample(sample: Sample) -> tuple[FeatureLogRecord, EventLogRecord]:
    """Decompose a ground-truth sample into the two raw log streams the
    production pipeline would emit (features at inference time, events when
    the outcome lands)."""
    features = FeatureLogRecord(
        request_id=sample.sample_id,
        session_id=sample.session_id,
        timestamp=sample.timestamp,
        sparse=sample.sparse,
        dense=sample.dense,
    )
    event = EventLogRecord(
        request_id=sample.sample_id,
        session_id=sample.session_id,
        timestamp=sample.timestamp,
        label=sample.label,
    )
    return features, event


# -- the columnar parser -------------------------------------------------------


def _items_at(buf: bytes, dtype: np.dtype, pos: np.ndarray) -> np.ndarray:
    """The ``dtype`` items starting at byte positions ``pos`` of ``buf``,
    at any alignment: one gather through a view whose stride is a byte.
    Every ``pos + dtype.itemsize`` must already be known to fit."""
    view = np.ndarray(
        (max(len(buf) - dtype.itemsize + 1, 0),), dtype, buf, strides=(1,)
    )
    return view[pos]


def _check(ok: np.ndarray, which: np.ndarray, what: str) -> None:
    """Raise for the first record whose check failed; ``which`` holds
    the checked records' indices in the caller's payload list."""
    if not ok.all():
        raise ValueError(f"feature record {which[np.argmin(ok)]}: {what}")


def _group_by_name(
    buf: bytes, at: np.ndarray, name_len: np.ndarray
) -> Iterator[tuple[bytes, np.ndarray]]:
    """Partition the names at ``buf[at : at + name_len]`` into
    ``(name bytes, indices of the entries carrying it)``."""
    for width in np.unique(name_len).tolist():
        members = np.flatnonzero(name_len == width)
        groups = [members]
        if width:
            # same-width names compare exactly as fixed-width strings
            names = _items_at(buf, np.dtype(f"S{width}"), at[members])
            if (names != names[0]).any():
                _, inverse = np.unique(names, return_inverse=True)
                by_name = np.argsort(inverse, kind="stable")
                groups = np.split(
                    members[by_name],
                    np.flatnonzero(np.diff(inverse[by_name])) + 1,
                )
        for group in groups:
            first = at[group[0]]
            yield buf[first : first + width], group


def _walk_entries(
    buf: bytes,
    pos: np.ndarray,
    end: np.ndarray,
    which: np.ndarray,
    count: np.ndarray,
    entry: np.dtype,
) -> Iterator[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk every record's ``count`` name-keyed entries, all records at
    once: step ``k`` reads the ``k``-th entry of each record that has
    one.  ``pos`` (advanced in place) and ``end`` bound each record's
    bytes; every length is checked against what is left of its record
    before anything is sliced or allocated.

    Yields ``(name, rows, entries, payload positions)`` per step and
    name; a name a record repeats comes back in entry order, so a
    consumer that overwrites keeps the last occurrence, as a dict would.
    """
    has_values = "n_vals" in entry.names
    kind = "sparse" if has_values else "dense"
    _check(
        (count >= 0) & (count <= (end - pos) // entry.itemsize),
        which,
        f"{kind} entry count does not fit the bytes left",
    )
    for k in range(int(count.max(initial=0))):
        rows = np.flatnonzero(count > k)
        who = which[rows]
        at = pos[rows] + entry.itemsize  # where the name starts
        _check(at <= end[rows], who, f"{kind} entry {k} is cut off")
        entries = _items_at(buf, entry, pos[rows])
        name_len = entries["name_len"].astype(np.int64)
        room = end[rows] - at - name_len
        _check(room >= 0, who, f"name of {kind} entry {k} is cut off")
        payload = at + name_len
        if has_values:
            _check(
                entries["n_vals"] <= (room // 8).astype(np.uint64),
                who,
                f"values of {kind} entry {k} are cut off",
            )
            pos[rows] = payload + 8 * entries["n_vals"].astype(np.int64)
        else:
            pos[rows] = payload
        for raw, group in _group_by_name(buf, at, name_len):
            try:
                name = raw.decode()
            except UnicodeDecodeError:
                raise ValueError(
                    f"feature record {who[group[0]]}: name of {kind} "
                    f"entry {k} is not UTF-8"
                ) from None
            yield name, rows[group], entries[group], payload[group]


def _parse_features(payloads: Sequence[bytes], which: np.ndarray) -> RowBlock:
    """Feature messages as one block (``sample_id`` = request id,
    ``label`` 0 until joined), rows in payload order; ``which[i]`` is
    the index error messages give record ``i``."""
    m = len(payloads)
    buf = b"".join(payloads)
    sizes = np.fromiter(map(len, payloads), np.int64, count=m)
    end = np.cumsum(sizes)
    pos = end - sizes
    _check(
        sizes >= _HEADER_ITEM.itemsize + _INT.itemsize,
        which,
        "shorter than a record without features",
    )
    header = _items_at(buf, _HEADER_ITEM, pos)
    pos += _HEADER_ITEM.itemsize
    #: per feature: each row's value count and first value's position
    runs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, rows, entries, at in _walk_entries(
        buf, pos, end, which, header["n_feat"], _SPARSE_ENTRY
    ):
        if name not in runs:
            runs[name] = (np.zeros(m, np.int64), np.zeros(m, np.int64))
        lengths, start = runs[name]
        lengths[rows] = entries["n_vals"]
        start[rows] = at
    sparse = {}
    for name, (lengths, start) in runs.items():
        offsets = offsets_from_lengths(lengths)
        # value j of the column sits 8 * (j - offsets[row]) bytes past
        # its row's first value
        where = np.repeat(start - 8 * offsets[:-1], lengths)
        where += 8 * np.arange(where.size)
        sparse[name] = (offsets, _items_at(buf, _INT, where))
    _check(pos + _INT.itemsize <= end, which, "dense entry count is cut off")
    n_dense = _items_at(buf, _INT, pos)
    pos += _INT.itemsize
    dense: dict[str, np.ndarray] = {}
    for name, rows, entries, _ in _walk_entries(
        buf, pos, end, which, n_dense, _DENSE_ENTRY
    ):
        if name not in dense:
            dense[name] = np.zeros(m, dtype=np.float64)
        dense[name][rows] = entries["value"]
    _check(pos == end, which, "trailing bytes after the last dense entry")
    return RowBlock(
        sample_id=np.ascontiguousarray(header["request_id"]),
        session_id=np.ascontiguousarray(header["session_id"]),
        timestamp=np.ascontiguousarray(header["timestamp"]),
        label=np.zeros(m, dtype=np.int64),
        sparse=sparse,
        dense=dense,
    )


def parse_payloads(payloads: Sequence[bytes]) -> tuple[RowBlock, np.ndarray]:
    """One drain's messages, both categories mixed, as columns.

    Messages are length-discriminated: an event is one fixed 32-byte
    item (no feature message can be that short-and-exact); anything
    else must parse as a feature message.  No per-message object is
    built: events come from one ``np.frombuffer``, feature messages are
    walked once, all together, their values landing in per-feature
    columns.

    Returns:
        ``(features, events)`` — the feature messages as a
        :class:`~repro.storage.rowblock.RowBlock` (``sample_id`` holds
        the request id, ``label`` is 0 until the ETL join fills it;
        a feature a message does not carry reads as empty / ``0.0``)
        and the events as a structured array with fields
        ``request_id``, ``session_id``, ``timestamp``, ``label``; both
        in payload order.

    Raises:
        ValueError: ``feature record <i>: …`` — ``i`` indexes
            ``payloads`` — when a feature message is cut short, declares
            a count or length that does not fit its remaining bytes,
            carries a name that is not UTF-8, or has trailing bytes.
    """
    is_event = [len(p) == _EVENT_ITEM.itemsize for p in payloads]
    events = np.frombuffer(
        b"".join(compress(payloads, is_event)), dtype=_EVENT_ITEM
    )
    which = np.flatnonzero(~np.asarray(is_event, dtype=bool))
    features = _parse_features(
        [p for p, event in zip(payloads, is_event) if not event], which
    )
    return features, events
