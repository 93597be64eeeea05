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
from collections.abc import Sequence
from itertools import pairwise

import numpy as np

__all__ = [
    "IntEncoding",
    "encode_int64",
    "encode_int64_chunks",
    "decode_int64",
    "decode_int64_chunks",
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
    v = values.astype(np.uint64, copy=False)
    # the low bit is the sign: XOR with 0 or all-ones (its two's negation)
    return ((v >> np.uint64(1)) ^ np.negative(v & np.uint64(1))).view(np.int64)


#: a zigzagged value below ``_VARINT_STEPS[k]`` fits in ``k + 1`` bytes
_VARINT_STEPS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)
#: bit position of each of a value's (at most 10) 7-bit groups
_GROUP_SHIFTS = (7 * np.arange(10)).astype(np.uint64)
_GROUP_RANKS = np.arange(10, dtype=np.uint8)


def _varint_pack(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128 over zigzag — 7 bits per byte, high bit = continuation —
    in a fixed number of array passes.

    Returns the stream and each value's byte offset in it (``N + 1``
    entries), so a caller can cut the stream between any two values.
    """
    u = zigzag(values)
    if u.size == 0:
        return b"", np.zeros(1, dtype=np.int64)
    top = u.max()
    if top < 0x80:  # every value is its own byte: most ``:len`` streams
        return u.astype(np.uint8).tobytes(), np.arange(u.size + 1)
    nbytes = (np.searchsorted(_VARINT_STEPS, u, side="right") + 1).astype(
        np.uint8
    )
    width = int(np.searchsorted(_VARINT_STEPS, top, side="right")) + 1
    # one row of 7-bit groups per value; row-major selection of each
    # row's first ``nbytes`` groups is the stream order
    groups = (u[:, None] >> _GROUP_SHIFTS[:width]).astype(np.uint8)
    out = groups[_GROUP_RANKS[:width] < nbytes[:, None]]
    offsets = np.zeros(u.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    out |= 0x80
    out[offsets[1:] - 1] &= 0x7F
    return out.tobytes(), offsets


def _varint_encode(values: np.ndarray) -> bytes:
    return _varint_pack(values)[0]


def _varint_decode_chunks(
    payloads: Sequence[bytes], counts: np.ndarray
) -> np.ndarray:
    """The values of back-to-back varint streams, decoded in one pass.

    Chunk ``i`` must hold exactly ``counts[i]`` whole values; the first
    chunk that does not raises what decoding it alone raises (it ends
    inside a value, holds another count, or holds a value longer than
    10 bytes — checked in that order).  The decode then works per
    value, not per byte: one gather of every value's k-th 7-bit group
    for each k below the widest value's byte count, a width the
    over-long check has already bounded by 10.
    """
    sizes = np.fromiter(map(len, payloads), np.int64, len(payloads))
    buf = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    whole = buf.size == counts.sum() and (buf.size == 0 or buf.max() < 0x80)
    if whole:  # every byte is a whole value: a chunk holds its byte length
        held = sizes
        truncated = overlong = np.zeros(sizes.size, dtype=bool)
    else:
        cuts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=cuts[1:])
        # a value ends at the first byte with the continuation bit clear
        ends = np.flatnonzero(buf < 0x80)
        starts = np.zeros(ends.size, dtype=np.int64)
        starts[1:] = ends[:-1] + 1
        nbytes = ends - starts + 1
        held = np.diff(np.searchsorted(ends, cuts))
        filled = sizes > 0
        truncated = np.zeros(sizes.size, dtype=bool)
        truncated[filled] = buf[cuts[1:][filled] - 1] >= 0x80
        # an int64 needs at most 10 groups of 7 bits; past that a group
        # lands beyond bit 63, and the gather below loops once per byte
        # of the widest value, so this bound is checked before it runs
        width = int(nbytes.max(initial=0))
        overlong = np.zeros(sizes.size, dtype=bool)
        if width > 10:
            long_starts = starts[nbytes > 10]
            overlong[np.searchsorted(cuts, long_starts, side="right") - 1] = True
    bad = truncated | (held != counts) | overlong
    if bad.any():
        i = int(bad.argmax())
        if truncated[i]:
            raise ValueError("varint stream is truncated inside its last value")
        if held[i] != counts[i]:
            raise ValueError(
                f"varint stream holds {held[i]} values, expected {counts[i]}"
            )
        raise ValueError("varint stream holds a value longer than 10 bytes")
    if whole:
        return unzigzag(buf)
    # the k-th 7-bit group of every value at once, OR-ed in at bit 7k;
    # the padding keeps ``starts + k`` inside the buffer, and a group
    # past a value's end (its successor's first) is masked
    low = np.zeros(buf.size + width, dtype=np.uint8)
    np.bitwise_and(buf, 0x7F, out=low[: buf.size])
    values = low[starts].astype(np.uint64)
    for k in range(1, width):
        group = low[k:][starts]
        np.multiply(group, nbytes > k, out=group)
        values |= np.left_shift(group, np.uint64(7 * k), dtype=np.uint64)
    return unzigzag(values)


def _varint_decode(data: bytes, count: int) -> np.ndarray:
    return _varint_decode_chunks([data], np.array([count], dtype=np.int64))


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
    # every length read is bounded before it sizes an allocation: a run
    # takes at least two bytes, and np.repeat allocates the runs' sum
    if len(data) < 8:
        raise ValueError("RLE stream is cut short inside its run count")
    (num_runs,) = struct.unpack_from("<Q", data, 0)
    if 2 * num_runs > len(data) - 8:
        raise ValueError(
            f"RLE stream declares {num_runs} runs in {len(data) - 8} bytes"
        )
    interleaved = _varint_decode(data[8:], 2 * num_runs)
    lengths = interleaved[1::2]
    if lengths.size and lengths.min() < 0:
        raise ValueError(f"RLE stream has a run of {lengths.min()} values")
    # a run longer than the column fails before the sum can overflow
    if lengths.size and lengths.max() > count:
        raise ValueError(
            f"RLE stream has a run of {lengths.max()} values, expected "
            f"{count} in all"
        )
    if lengths.sum() != count:
        raise ValueError(
            f"RLE stream expands to {lengths.sum()} values, expected {count}"
        )
    return np.repeat(interleaved[0::2], lengths)


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
    if len(data) < 16:
        raise ValueError("DICT stream is cut short inside its header")
    num_uniques, dict_len = struct.unpack_from("<QQ", data, 0)
    pos = 16
    if not num_uniques <= dict_len <= len(data) - pos:
        raise ValueError(
            f"DICT stream declares {num_uniques} values in {dict_len} "
            f"dictionary bytes of {len(data) - pos}"
        )
    uniques = _varint_decode(data[pos : pos + dict_len], num_uniques)
    codes = _varint_decode(data[pos + dict_len :], count)
    if codes.size and (codes.min() < 0 or codes.max() >= num_uniques):
        raise ValueError("DICT codes out of range")
    return uniques[codes]


def encode_int64(values: np.ndarray, encoding: IntEncoding) -> bytes:
    """Encode an int64 array as the given stream encoding's bytes."""
    return encode_int64_chunks(values, (0, len(values)), encoding)[0]


def encode_int64_chunks(
    values: np.ndarray, bounds: Sequence[int], encoding: IntEncoding
) -> list[bytes]:
    """``encode_int64(values[a:b])`` for each consecutive ``a, b`` of
    ``bounds`` (how a file's column becomes its per-stripe streams).

    PLAIN and VARINT encode every value on its own, so the column is
    encoded once and the byte string cut between values; RLE and DICT
    carry chunk-local state (runs, the dictionary) and encode chunk by
    chunk.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    if encoding is IntEncoding.PLAIN:
        data, cuts = values.tobytes(), 8 * bounds
    elif encoding is IntEncoding.VARINT:
        data, offsets = _varint_pack(values)
        cuts = offsets[bounds]
    elif encoding is IntEncoding.RLE:
        return [_rle_encode(values[a:b]) for a, b in pairwise(bounds)]
    elif encoding is IntEncoding.DICT:
        return [_dict_encode(values[a:b]) for a, b in pairwise(bounds)]
    else:
        raise ValueError(f"unknown encoding {encoding}")
    return [data[a:b] for a, b in pairwise(cuts.tolist())]


def decode_int64_chunks(
    payloads: Sequence[bytes], counts: Sequence[int], encoding: IntEncoding
) -> np.ndarray:
    """The exact inverse of :func:`encode_int64_chunks`: the values of
    every payload back to back, payload ``i`` holding ``counts[i]`` of
    them (how a run of stripes' streams becomes one column again).

    PLAIN and VARINT decode the concatenated payloads in one pass; RLE
    and DICT carry chunk-local state and decode chunk by chunk.  Each
    payload is still checked on its own — it may not end inside a value
    nor hold another count than it declares, even when a neighbour
    compensates — and the first that fails raises the
    :class:`ValueError` that decoding it alone raises.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(payloads) != counts.size:
        raise ValueError(
            f"{len(payloads)} payloads for {counts.size} declared counts"
        )
    if encoding is IntEncoding.PLAIN:
        sizes = np.fromiter(map(len, payloads), np.int64, len(payloads))
        bad = sizes != 8 * counts
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"plain stream is {sizes[i]} bytes, expected {8 * counts[i]}"
            )
        return np.frombuffer(b"".join(payloads), dtype=np.int64).copy()
    if encoding is IntEncoding.VARINT:
        return _varint_decode_chunks(payloads, counts)
    if encoding is IntEncoding.RLE:
        decode = _rle_decode
    elif encoding is IntEncoding.DICT:
        decode = _dict_decode
    else:
        raise ValueError(f"unknown encoding {encoding}")
    return np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [decode(data, count) for data, count in zip(payloads, counts.tolist())]
    )


def decode_int64(
    data: bytes, count: int, encoding: IntEncoding
) -> np.ndarray:
    """Exact round-trip inverse of :func:`encode_int64` for ``count``
    values."""
    return decode_int64_chunks([data], [count], encoding)


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
