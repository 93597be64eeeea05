"""Black-box compression for file stripes and scribe blocks.

Production DWRF compresses each stripe's streams with zstd (§4.1); this
reproduction uses stdlib zlib, which shares the windowed-LZ behaviour O2
exploits (adjacent duplicate rows compress away).  Each compressed blob
is framed with the codec id and raw length so readers self-describe.

This module owns the write-side codec and the one thread pool it runs
on.  ``zlib.compress`` releases the interpreter lock, so
:func:`compress_many` (every stream of a DWRF file) and
:func:`deflate_later` (one scribe block) compress on worker threads
while the interpreter goes on: one worker per CPU the process may run
on (:func:`workers`), the pool created on first use.  The pool is the
only path, one CPU included.  Each blob is compressed on its own, from
the same input at the same level, so where it runs changes no byte.
The pool is shut down before ``fork()``: the fork runs single-threaded,
the child starts with no pool, and the parent makes a new one on its
next call.  Reads inflate through :func:`inflate`, which stops at the
raw length recorded beside the stream (a DWRF frame's header, a scribe
block's seal), so bytes that lie about it cannot allocate more.
"""

from __future__ import annotations

import enum
import os
import struct
import threading
import zlib
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor

__all__ = [
    "Codec",
    "compress",
    "compress_many",
    "decompress",
    "deflate_later",
    "inflate",
    "workers",
]

_FRAME = struct.Struct("<BQ")  # codec, raw length


class Codec(enum.Enum):
    """The stream codecs a frame may declare."""

    NONE = 0
    ZLIB = 1


_NONE, _ZLIB = Codec.NONE.value, Codec.ZLIB.value


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
    a frame that is cut short, names no codec, does not inflate, or
    inflates to more or fewer bytes than it records is a
    :class:`ValueError`.  No more than the recorded length is inflated.
    """
    if len(blob) < _FRAME.size:
        raise ValueError(
            f"corrupt frame: {len(blob)} bytes, shorter than its header"
        )
    codec_id, raw_len = _FRAME.unpack_from(blob, 0)
    body = blob[_FRAME.size :]
    # ids compared as ints: an Enum lookup costs a scan's thousands of
    # small frames more than the bound on inflation does
    if codec_id == _ZLIB:
        return inflate(body, raw_len, "corrupt frame")
    if codec_id != _NONE:
        raise ValueError(f"corrupt frame: unknown codec id {codec_id}")
    if len(body) != raw_len:
        raise ValueError(
            f"corrupt frame: raw length {len(body)} != recorded {raw_len}"
        )
    return body


def inflate(stream: bytes, raw_len: int, where: str) -> bytes:
    """The ``raw_len`` bytes the bare zlib ``stream`` holds, inflating
    no more than that.  A stream that does not inflate, inflates past
    ``raw_len``, is cut short, holds fewer bytes or is followed by bytes
    it does not hold is a :class:`ValueError` whose message starts with
    ``where`` (what the stream is, for the reader of the error)."""
    inflater = zlib.decompressobj()
    try:
        # a limit of 0 means "none" to zlib: ask for one byte, so a
        # stream recorded empty still shows if it holds more
        out = inflater.decompress(stream, raw_len or 1)
    except zlib.error as err:
        raise ValueError(f"{where}: {err}") from err
    except OverflowError as err:
        raise ValueError(
            f"{where}: recorded raw length {raw_len} is too large"
        ) from err
    if not inflater.eof:
        if inflater.unconsumed_tail:  # the limit stopped the stream
            raise ValueError(
                f"{where}: inflates past its recorded raw length {raw_len}"
            )
        raise ValueError(
            f"{where}: stream cut short ({len(out)} of {raw_len} bytes "
            "inflated, no end of stream)"
        )
    if inflater.unused_data:
        raise ValueError(
            f"{where}: {len(inflater.unused_data)} bytes follow the end of "
            "its stream"
        )
    if len(out) != raw_len:
        raise ValueError(f"{where}: raw length {len(out)} != recorded {raw_len}")
    return out


# -- the compression pool -------------------------------------------------

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def workers() -> int:
    """Compression threads: the CPUs this process may run on.

    The affinity mask is taken as the real CPU budget; a cgroup quota
    below it (a container started with ``--cpus=2`` on a larger host)
    is not seen, and the pool is then wider than the CPUs that run it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    """The shared pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers(), thread_name_prefix="compress")
        return _pool


def _shut_down_before_fork() -> None:
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True)


def _forget_in_child() -> None:
    # a new lock too: another parent thread may have held the old one
    # at fork time, and no thread is left in the child to release it
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(
    before=_shut_down_before_fork, after_in_child=_forget_in_child
)


def _compress_run(
    payloads: Sequence[bytes], codec: Codec, level: int
) -> list[bytes]:
    return [compress(payload, codec, level) for payload in payloads]


def compress_many(
    payloads: Sequence[bytes], codec: Codec = Codec.ZLIB, level: int = 6
) -> list[bytes]:
    """``[compress(p, codec, level) for p in payloads]``, in order.

    The payloads are cut into one contiguous run per worker; the pool
    compresses all runs but the first while the calling thread, which
    would only wait, compresses the first.
    """
    if len(payloads) < 2:
        return _compress_run(payloads, codec, level)
    pool = _executor()
    size = -(-len(payloads) // workers())
    runs = [
        pool.submit(_compress_run, payloads[at : at + size], codec, level)
        for at in range(size, len(payloads), size)
    ]
    out = _compress_run(payloads[:size], codec, level)
    for run in runs:
        out += run.result()
    return out


def deflate_later(data: bytes, level: int = 6) -> Future[bytes]:
    """``zlib.compress(data, level)`` — a bare zlib stream, no frame —
    on the pool."""
    return _executor().submit(zlib.compress, data, level)
