"""Reference implementations the columnar write path replaced.

Kept under ``tests/`` only, as the oracle the property tests compare
``src/`` against: the ≤10-plane masked varint loops and the row-based
stripe writer (six ``[r.x for r in rows]`` comprehensions and one
encode + compress per stream per stripe), both as they stood before
``DwrfWriter.write`` took a ``RowBlock``.  The plane loop gathers a
value's k-th byte the way the decoder in ``src/`` does, so the varint
decoder's independent oracle is :func:`varint_decode_python`, a byte
loop on Python ints.
"""

from __future__ import annotations

import numpy as np

from repro.storage import (
    Codec,
    IntEncoding,
    compress,
    encode_int64,
    unzigzag,
    zigzag,
)
from repro.storage.dwrf import (
    _FILE_HEADER,
    _STREAM_HEADER,
    _STREAM_META,
    _STRIPE_HEADER,
    MAGIC,
)


def varint_encode_planes(values: np.ndarray) -> bytes:
    """LEB128 over zigzag, one masked pass per byte plane."""
    u = zigzag(values)
    if u.size == 0:
        return b""
    planes = []
    remaining = u.copy()
    more = np.ones(u.shape, dtype=bool)
    for _ in range(10):
        byte = (remaining & np.uint64(0x7F)).astype(np.uint8)
        remaining = remaining >> np.uint64(7)
        cont = remaining != 0
        byte = byte | (cont.astype(np.uint8) << np.uint8(7))
        byte = np.where(more, byte, np.uint8(0))
        planes.append((byte, more.copy()))
        more = more & cont
        if not more.any():
            break
    nbytes_per_val = np.zeros(u.shape, dtype=np.int64)
    for _, valid in planes:
        nbytes_per_val += valid
    total = int(nbytes_per_val.sum())
    out = np.empty(total, dtype=np.uint8)
    starts = np.zeros(u.shape, dtype=np.int64)
    np.cumsum(nbytes_per_val[:-1], out=starts[1:])
    for plane_idx, (byte, valid) in enumerate(planes):
        pos = starts[valid] + plane_idx
        out[pos] = byte[valid]
    return out.tobytes()


def varint_decode_planes(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`varint_encode_planes`, one pass per plane."""
    buf = np.frombuffer(data, dtype=np.uint8)
    values = np.zeros(count, dtype=np.uint64)
    is_cont = (buf & 0x80) != 0
    if buf.size and is_cont[-1]:
        raise ValueError("varint stream is truncated inside its last value")
    ends = np.flatnonzero(~is_cont)
    if ends.size != count:
        raise ValueError(
            f"varint stream holds {ends.size} values, expected {count}"
        )
    starts = np.concatenate([[0], ends[:-1] + 1])
    payload = (buf & 0x7F).astype(np.uint64)
    nbytes_per_val = ends - starts + 1
    longest = int(nbytes_per_val.max(initial=0))
    if longest > 10:
        raise ValueError("varint stream holds a value longer than 10 bytes")
    for plane in range(longest):
        mask = nbytes_per_val > plane
        values[mask] |= payload[starts[mask] + plane] << np.uint64(7 * plane)
    return unzigzag(values)


def varint_decode_python(data: bytes, count: int) -> np.ndarray:
    """LEB128 + zigzag, one byte at a time on Python ints.

    Raises what ``decode_int64(data, count, VARINT)`` raises, checked in
    the same order: a stream ending inside a value, another number of
    values than ``count``, a value longer than 10 bytes.  Bits a 10-byte
    value sets past bit 63 are dropped, as a uint64 shift drops them.
    """
    if data and data[-1] >= 0x80:
        raise ValueError("varint stream is truncated inside its last value")
    values: list[int] = []
    value = shift = longest = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            values.append(value & (2**64 - 1))
            longest = max(longest, shift // 7)
            value = shift = 0
    if len(values) != count:
        raise ValueError(
            f"varint stream holds {len(values)} values, expected {count}"
        )
    if longest > 10:
        raise ValueError("varint stream holds a value longer than 10 bytes")
    return np.array([(u >> 1) ^ -(u & 1) for u in values], dtype=np.int64)


def encode_stream(
    name: str, payload: bytes, encoding: IntEncoding, count: int, codec: Codec
) -> tuple[bytes, int, int]:
    """One stream, framed and compressed on its own: its bytes, raw
    length and compressed length."""
    blob = compress(payload, codec)
    encoded_name = name.encode()
    head = _STREAM_HEADER.pack(len(encoded_name)) + encoded_name
    meta = _STREAM_META.pack(encoding.value, count, len(blob))
    return head + meta + blob, len(payload), len(blob)


def _encode(values: np.ndarray, encoding: IntEncoding) -> bytes:
    if encoding is IntEncoding.VARINT:
        return varint_encode_planes(np.ascontiguousarray(values, np.int64))
    return encode_int64(values, encoding)


def write_rows(
    schema, rows, stripe_rows: int, codec: Codec, int_encoding: IntEncoding
) -> tuple[bytes, list[tuple[int, int, int]]]:
    """The row-based ``DwrfWriter.write``: returns the file blob and
    ``(raw_bytes, compressed_bytes, num_rows)`` per stripe."""
    stripes: list[bytes] = []
    stats: list[tuple[int, int, int]] = []
    for start in range(0, len(rows), stripe_rows):
        chunk = rows[start : start + stripe_rows]
        streams: list[bytes] = []
        raw_total = comp_total = 0

        def add(name, payload, encoding, count):
            nonlocal raw_total, comp_total
            data, raw, comp = encode_stream(
                name, payload, encoding, count, codec
            )
            streams.append(data)
            raw_total += raw
            comp_total += comp

        def add_int(name, values):
            add(name, _encode(values, int_encoding), int_encoding, values.size)

        def add_float(name, values):
            payload = np.ascontiguousarray(values, dtype=np.float64).tobytes()
            add(name, payload, IntEncoding.PLAIN, values.size)

        add_int("__session_id", np.array([r.session_id for r in chunk], dtype=np.int64))
        add_float("__timestamp", np.array([r.timestamp for r in chunk]))
        add_int("__label", np.array([r.label for r in chunk], dtype=np.int64))
        add_int("__sample_id", np.array([r.sample_id for r in chunk], dtype=np.int64))
        for spec in schema.sparse:
            lists = [
                np.asarray(r.sparse.get(spec.name, ()), dtype=np.int64)
                for r in chunk
            ]
            lengths = np.array([a.size for a in lists], dtype=np.int64)
            values = (
                np.concatenate(lists)
                if lists and lengths.sum() > 0
                else np.empty(0, dtype=np.int64)
            )
            add_int(f"s:{spec.name}:len", lengths)
            add_int(f"s:{spec.name}:val", values)
        for dspec in schema.dense:
            add_float(
                f"d:{dspec.name}",
                np.array([r.dense.get(dspec.name, 0.0) for r in chunk]),
            )
        body = b"".join(streams)
        stripes.append(
            _STRIPE_HEADER.pack(
                _STRIPE_HEADER.size + len(body), len(chunk), len(streams)
            )
            + body
        )
        stats.append((raw_total, comp_total, len(chunk)))
    header = _FILE_HEADER.pack(MAGIC, 1, len(stripes))
    return header + b"".join(stripes), stats
