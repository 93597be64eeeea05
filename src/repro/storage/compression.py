"""Black-box stream compression for file stripes.

Production DWRF compresses each stripe's streams with zstd (§4.1); this
reproduction uses stdlib zlib, which shares the windowed-LZ behaviour O2
exploits (adjacent duplicate rows compress away).  Each compressed blob
is framed with the codec id and raw length so readers self-describe.
"""

from __future__ import annotations

import enum
import struct
import zlib

__all__ = ["Codec", "compress", "decompress"]

_FRAME = struct.Struct("<BQ")  # codec, raw length


class Codec(enum.Enum):
    """The stream codecs a frame may declare."""

    NONE = 0
    ZLIB = 1


def compress(data: bytes, codec: Codec = Codec.ZLIB, level: int = 6) -> bytes:
    """Frame + compress ``data``; NONE framing still records raw length."""
    if codec is Codec.NONE:
        body = data
    elif codec is Codec.ZLIB:
        body = zlib.compress(data, level)
    else:
        raise ValueError(f"unknown codec {codec}")
    return _FRAME.pack(codec.value, len(data)) + body


def decompress(blob: bytes) -> bytes:
    """Invert :func:`compress`, validating the frame's recorded length;
    a frame that is cut short, names no codec or does not inflate is a
    :class:`ValueError`."""
    if len(blob) < _FRAME.size:
        raise ValueError(
            f"corrupt frame: {len(blob)} bytes, shorter than its header"
        )
    codec_id, raw_len = _FRAME.unpack_from(blob, 0)
    body = blob[_FRAME.size :]
    codec = Codec(codec_id)
    if codec is Codec.NONE:
        out = body
    elif codec is Codec.ZLIB:
        try:
            out = zlib.decompress(body)
        except zlib.error as err:
            raise ValueError(f"corrupt frame: {err}") from err
    else:  # pragma: no cover - Codec() raises first
        raise ValueError(f"unknown codec {codec}")
    if len(out) != raw_len:
        raise ValueError(
            f"corrupt frame: raw length {len(out)} != recorded {raw_len}"
        )
    return out
