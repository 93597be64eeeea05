"""Column stream encodings for the DWRF-like file format.

DWRF/ORC encode each flattened feature column as streams (§2.1).  We
implement the encodings that matter for this reproduction:

* ``PLAIN`` — raw little-endian int64 (the floor for compression ratios);
* ``VARINT`` — LEB128 with zigzag, shrinking small IDs/lengths the way
  ORC's integer RLE family does;
* ``RLE`` — run-length over varint, ideal for the lengths streams of
  fixed-length features (every row the same length);
* ``DICT`` — dictionary encoding (distinct values + varint codes), the
  mechanism the paper compares IKJTs to ("a similar encoding mechanism
  to dictionary encoding commonly used in file formats such as
  Parquet", §8).

All are exact round-trip codecs over int64 arrays.  Dense (float)
columns always use plain float64.
"""

from __future__ import annotations

import enum
import struct

import numpy as np

__all__ = [
    "IntEncoding",
    "encode_int64",
    "decode_int64",
    "zigzag",
    "unzigzag",
    "best_encoding",
]


class IntEncoding(enum.Enum):
    """The int64 stream encodings a DWRF column chunk may use."""

    PLAIN = 0
    VARINT = 1
    RLE = 2
    DICT = 3


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed -> unsigned so small magnitudes stay small."""
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`zigzag`."""
    v = values.astype(np.uint64)
    return ((v >> np.uint64(1)) ^ (~(v & np.uint64(1)) + np.uint64(1))).astype(
        np.int64
    )


def _varint_encode(values: np.ndarray) -> bytes:
    """Vectorized LEB128: emit 7 bits per byte, high bit = continuation."""
    u = zigzag(values)
    if u.size == 0:
        return b""
    # max 10 bytes per int64; build columns of byte planes then compact.
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
    # interleave: for each value, its valid plane bytes in order
    nbytes_per_val = np.zeros(u.shape, dtype=np.int64)
    for _, valid in planes:
        nbytes_per_val += valid
    total = int(nbytes_per_val.sum())
    out = np.empty(total, dtype=np.uint8)
    # position of each value's first byte
    starts = np.zeros(u.shape, dtype=np.int64)
    np.cumsum(nbytes_per_val[:-1], out=starts[1:])
    for plane_idx, (byte, valid) in enumerate(planes):
        pos = starts[valid] + plane_idx
        out[pos] = byte[valid]
    return out.tobytes()


def _varint_decode(data: bytes, count: int) -> np.ndarray:
    buf = np.frombuffer(data, dtype=np.uint8)
    values = np.zeros(count, dtype=np.uint64)
    # byte index cursor per value, decoded sequentially over planes
    is_cont = (buf & 0x80) != 0
    if buf.size and is_cont[-1]:
        raise ValueError("varint stream is truncated inside its last value")
    # value boundaries: a value ends at the first byte with cont bit clear
    ends = np.flatnonzero(~is_cont)
    if ends.size != count:
        raise ValueError(
            f"varint stream holds {ends.size} values, expected {count}"
        )
    starts = np.concatenate([[0], ends[:-1] + 1])
    payload = (buf & 0x7F).astype(np.uint64)
    nbytes_per_val = ends - starts + 1
    # an int64 needs at most 10 groups of 7 bits; past that the shift
    # below is undefined
    longest = int(nbytes_per_val.max(initial=0))
    if longest > 10:
        raise ValueError("varint stream holds a value longer than 10 bytes")
    # accumulate one byte-plane at a time (<= 10 vectorized passes)
    for plane in range(longest):
        mask = nbytes_per_val > plane
        values[mask] |= payload[starts[mask] + plane] << np.uint64(7 * plane)
    return unzigzag(values)


def _rle_encode(values: np.ndarray) -> bytes:
    """(run_value, run_length) pairs, each varint-encoded."""
    if values.size == 0:
        return b""
    change = np.flatnonzero(np.diff(values)) + 1
    starts = np.concatenate([[0], change])
    run_values = values[starts]
    run_lengths = np.diff(np.concatenate([starts, [values.size]]))
    interleaved = np.empty(2 * run_values.size, dtype=np.int64)
    interleaved[0::2] = run_values
    interleaved[1::2] = run_lengths
    return struct.pack("<Q", run_values.size) + _varint_encode(interleaved)


def _rle_decode(data: bytes, count: int) -> np.ndarray:
    if not data:
        if count:
            raise ValueError("empty RLE stream for non-empty column")
        return np.empty(0, dtype=np.int64)
    (num_runs,) = struct.unpack_from("<Q", data, 0)
    interleaved = _varint_decode(data[8:], 2 * num_runs)
    values = np.repeat(interleaved[0::2], interleaved[1::2])
    if values.size != count:
        raise ValueError(
            f"RLE stream expands to {values.size} values, expected {count}"
        )
    return values


def _dict_encode(values: np.ndarray) -> bytes:
    """Distinct values (varint) + per-element codes (varint)."""
    uniques, codes = np.unique(values, return_inverse=True)
    head = struct.pack("<Q", uniques.size)
    return (
        head
        + struct.pack("<Q", len(_varint_encode(uniques)))
        + _varint_encode(uniques)
        + _varint_encode(codes.astype(np.int64))
    )


def _dict_decode(data: bytes, count: int) -> np.ndarray:
    if not data:
        if count:
            raise ValueError("empty DICT stream for non-empty column")
        return np.empty(0, dtype=np.int64)
    num_uniques, dict_len = struct.unpack_from("<QQ", data, 0)
    pos = 16
    uniques = _varint_decode(data[pos : pos + dict_len], num_uniques)
    codes = _varint_decode(data[pos + dict_len :], count)
    if codes.size and (codes.min() < 0 or codes.max() >= num_uniques):
        raise ValueError("DICT codes out of range")
    return uniques[codes]


def encode_int64(values: np.ndarray, encoding: IntEncoding) -> bytes:
    """Encode an int64 array as the given stream encoding's bytes."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    if encoding is IntEncoding.PLAIN:
        return values.tobytes()
    if encoding is IntEncoding.VARINT:
        return _varint_encode(values)
    if encoding is IntEncoding.RLE:
        return _rle_encode(values)
    if encoding is IntEncoding.DICT:
        return _dict_encode(values)
    raise ValueError(f"unknown encoding {encoding}")


def decode_int64(
    data: bytes, count: int, encoding: IntEncoding
) -> np.ndarray:
    """Exact round-trip inverse of :func:`encode_int64` for ``count``
    values."""
    if encoding is IntEncoding.PLAIN:
        if len(data) != count * 8:
            raise ValueError(
                f"plain stream is {len(data)} bytes, expected {count * 8}"
            )
        return np.frombuffer(data, dtype=np.int64, count=count).copy()
    if encoding is IntEncoding.VARINT:
        return _varint_decode(data, count)
    if encoding is IntEncoding.RLE:
        return _rle_decode(data, count)
    if encoding is IntEncoding.DICT:
        return _dict_decode(data, count)
    raise ValueError(f"unknown encoding {encoding}")


def best_encoding(values: np.ndarray) -> IntEncoding:
    """Pick the cheapest non-plain encoding for a column chunk.

    A lightweight version of ORC's encoding selection: prefer RLE for
    runny columns (lengths of fixed-size features), DICT when the value
    set is tiny relative to the column, varint otherwise.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.size == 0:
        return IntEncoding.VARINT
    runs = 1 + int(np.count_nonzero(np.diff(values)))
    if runs <= values.size // 4:
        return IntEncoding.RLE
    uniques = np.unique(values).size
    if uniques <= max(values.size // 8, 1):
        return IntEncoding.DICT
    return IntEncoding.VARINT
