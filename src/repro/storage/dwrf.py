"""DWRF-like columnar file format (§2.1, Dataset Schema and Storage).

Files are composed of *stripes*, each holding a small run of rows stored
as columnar streams: feature columns are flattened (one column per
feature key) and each column's values/lengths are encoded and compressed
into independent streams.  The layout reproduces what matters to RecD:

* stripe-local black-box compression — O2's clustering gains appear as
  higher stripe compression ratios because a session's duplicate rows sit
  in the same stripe;
* per-stripe reads — readers fetch and decode stripes, so smaller files
  directly reduce fill bytes and IOPS (Table 3).

Binary layout (little endian)::

    file   := MAGIC u16:version u32:num_stripes stripe*
    stripe := u32:byte_len u32:num_rows u16:num_streams stream*
    stream := u16:name_len name u8:encoding u32:count u64:blob_len blob

where ``blob`` is a framed, compressed byte string
(:mod:`repro.storage.compression`) of the encoded stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import groupby, pairwise
from typing import NamedTuple

import numpy as np

from ..core.jagged import offsets_from_lengths
from ..datagen.schema import DatasetSchema
from .compression import Codec, compress_many, decompress
from .encoding import IntEncoding, decode_int64_chunks, encode_int64_chunks
from .rowblock import RowBlock, require_block

__all__ = ["DwrfWriter", "DwrfReader", "StripeStats", "FileStats"]

MAGIC = b"DWRF"
_FILE_HEADER = struct.Struct("<4sHI")
_STRIPE_HEADER = struct.Struct("<IIH")
_STREAM_HEADER = struct.Struct("<H")
_STREAM_META = struct.Struct("<BIQ")

# Reserved stream names for row metadata columns.
_SESSION = "__session_id"
_TIMESTAMP = "__timestamp"
_LABEL = "__label"
_SAMPLE_ID = "__sample_id"


@dataclass
class StripeStats:
    """Byte and row accounting for one written stripe."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    num_rows: int = 0


@dataclass
class FileStats:
    """Aggregate accounting for one written file."""

    stripes: list[StripeStats] = field(default_factory=list)

    @property
    def raw_bytes(self) -> int:
        """Uncompressed stream bytes across every stripe."""
        return sum(s.raw_bytes for s in self.stripes)

    @property
    def compressed_bytes(self) -> int:
        """Compressed stream bytes across every stripe."""
        return sum(s.compressed_bytes for s in self.stripes)

    @property
    def num_rows(self) -> int:
        """Rows written across every stripe."""
        return sum(s.num_rows for s in self.stripes)

    @property
    def compression_ratio(self) -> float:
        """Raw over compressed bytes (1.0 for an empty file)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.raw_bytes / self.compressed_bytes


class DwrfWriter:
    """Serializes a block of rows into a DWRF-like byte blob."""

    def __init__(
        self,
        schema: DatasetSchema,
        stripe_rows: int = 1024,
        codec: Codec = Codec.ZLIB,
        int_encoding: IntEncoding = IntEncoding.VARINT,
    ):
        if stripe_rows <= 0:
            raise ValueError("stripe_rows must be positive")
        self.schema = schema
        self.stripe_rows = stripe_rows
        self.codec = codec
        self.int_encoding = int_encoding

    def write(self, block: RowBlock) -> tuple[bytes, FileStats]:
        """Serialize the block's rows into one file blob, ``stripe_rows``
        rows per stripe; returns the blob and its per-stripe accounting.

        The rows move as columns: each schema column is encoded once
        for the file and cut at the stripe boundaries
        (:func:`~repro.storage.encoding.encode_int64_chunks`); a schema
        feature the block does not carry is written as absent (empty
        lists / ``0.0``).  Every stream of every stripe is then
        compressed in one ordered
        :func:`~repro.storage.compression.compress_many` call (on the
        compression pool), and the stripes are assembled in order.

        Raises:
            TypeError: if ``block`` is not a :class:`RowBlock`.
        """
        require_block(block, "DwrfWriter.write")
        schema = self.schema
        n = len(block)
        bounds = np.minimum(
            np.arange(0, n + self.stripe_rows, self.stripe_rows), n
        )
        rows_per_stripe = np.diff(bounds)
        #: per stream: name, encoding, per-stripe value counts + payloads
        streams: list[tuple[str, IntEncoding, list[int], list[bytes]]] = []

        def add_int(name: str, values: np.ndarray, cuts=bounds) -> None:
            payloads = encode_int64_chunks(values, cuts, self.int_encoding)
            streams.append(
                (name, self.int_encoding, np.diff(cuts).tolist(), payloads)
            )

        def add_float(name: str, values: np.ndarray) -> None:
            raw = np.ascontiguousarray(values, dtype=np.float64).tobytes()
            payloads = [raw[a:b] for a, b in pairwise((8 * bounds).tolist())]
            streams.append(
                (name, IntEncoding.PLAIN, rows_per_stripe.tolist(), payloads)
            )

        add_int(_SESSION, block.session_id)
        add_float(_TIMESTAMP, block.timestamp)
        add_int(_LABEL, block.label)
        add_int(_SAMPLE_ID, block.sample_id)
        absent = (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        for spec in schema.sparse:
            offsets, values = block.sparse.get(spec.name, absent)
            add_int(f"s:{spec.name}:len", np.diff(offsets))
            add_int(f"s:{spec.name}:val", values, offsets[bounds])
        for dspec in schema.dense:
            add_float(
                f"d:{dspec.name}", block.dense.get(dspec.name, np.zeros(n))
            )

        blobs = iter(
            compress_many(
                [
                    payloads[j]
                    for j in range(rows_per_stripe.size)
                    for _, _, _, payloads in streams
                ],
                self.codec,
            )
        )
        heads = [
            _STREAM_HEADER.pack(len(encoded)) + encoded
            for encoded in (name.encode() for name, _, _, _ in streams)
        ]
        stats = FileStats()
        parts = [_FILE_HEADER.pack(MAGIC, 1, rows_per_stripe.size)]
        for j, num_rows in enumerate(rows_per_stripe.tolist()):
            sstat = StripeStats(num_rows=num_rows)
            body: list[bytes] = []
            for head, (_, encoding, counts, payloads) in zip(heads, streams):
                blob = next(blobs)
                body += (
                    head,
                    _STREAM_META.pack(encoding.value, counts[j], len(blob)),
                    blob,
                )
                sstat.raw_bytes += len(payloads[j])
                sstat.compressed_bytes += len(blob)
            # byte_len counts the stripe header itself
            parts.append(
                _STRIPE_HEADER.pack(
                    _STRIPE_HEADER.size + sum(map(len, body)),
                    num_rows,
                    len(streams),
                )
            )
            parts += body
            stats.stripes.append(sstat)
        return b"".join(parts), stats


class _Run(NamedTuple):
    """A decoded run of consecutive stripes: their rows as one block."""

    stripes: range
    block: RowBlock
    #: row index of each stripe's first row within ``block`` (+ the end)
    bounds: list[int]
    #: per stripe: compressed bytes, decompressed bytes, values decoded
    work: list[tuple[int, int, int]]


class DwrfReader:
    """Reads stripes of a DWRF blob back as columnar row blocks.

    A decoded stripe is handed on as a :class:`~repro.storage.rowblock.
    RowBlock` — the streams' arrays themselves, never per-row objects;
    :meth:`read_all` hands the whole file on as one block.  Stripes are
    decoded a *run* at a time, mirroring how the
    writer encodes a column once per file: a caller about to read
    consecutive stripes says so once (:meth:`plan_run`), each stream of
    the run is then decoded in one pass, and :meth:`read_stripe` hands
    the stripes out as views of the run's columns.  A caller that cuts
    its own row ranges (the reader's fill) takes the run's block itself
    from :meth:`run_of` after each read.  Tracks the byte
    accounting the reader cost model consumes, per stripe handed out:
    ``bytes_read`` (compressed, what travels from Tectonic),
    ``raw_bytes`` (decompressed) and ``values_decoded``.
    """

    def __init__(self, blob: bytes, schema: DatasetSchema):
        if len(blob) < _FILE_HEADER.size:
            raise ValueError("DWRF blob is cut short inside its file header")
        magic, version, num_stripes = _FILE_HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ValueError("not a DWRF blob")
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        self.schema = schema
        self._blob = blob
        #: per stripe: byte offset, byte length, stream count
        self._stripes: list[tuple[int, int, int]] = []
        self._stripe_rows: list[int] = []
        pos = _FILE_HEADER.size
        for index in range(num_stripes):
            if pos + _STRIPE_HEADER.size > len(blob):
                raise ValueError(
                    f"stripe {index}: header runs past the end of the blob"
                )
            byte_len, stripe_rows, num_streams = _STRIPE_HEADER.unpack_from(
                blob, pos
            )
            if not _STRIPE_HEADER.size <= byte_len <= len(blob) - pos:
                raise ValueError(
                    f"stripe {index}: byte_len {byte_len} does not fit the "
                    f"{len(blob) - pos} bytes left in the blob"
                )
            self._stripes.append((pos, byte_len, num_streams))
            self._stripe_rows.append(stripe_rows)
            pos += byte_len
        self._planned = range(0)
        self._run: _Run | None = None
        #: the run the latest read_stripe served, until run_of takes it
        self._served: tuple[_Run, int] | None = None
        self.bytes_read = 0
        self.raw_bytes = 0
        self.values_decoded = 0

    @property
    def num_stripes(self) -> int:
        """Stripes in the file, known from the file header alone."""
        return len(self._stripes)

    @property
    def num_rows(self) -> int:
        """Total rows in the file, known from stripe headers alone."""
        return sum(self._stripe_rows)

    def stripe_num_rows(self, index: int) -> int:
        """Rows in one stripe without fetching/decoding it — what lets a
        row-range shard skip stripes outside its window for free."""
        if not 0 <= index < self.num_stripes:
            raise IndexError(f"stripe {index} out of range")
        return self._stripe_rows[index]

    def plan_run(self, start: int, stop: int) -> range:
        """Declare that stripes ``[start, stop)`` are about to be read.

        Nothing is fetched here: the first :meth:`read_stripe` of a
        planned stripe decodes the whole run, and the run is dropped
        once its last stripe is handed out.  Returns the planned stripe
        indices, so ``for i in reader.plan_run(a, b): reader.
        read_stripe(i)`` reads a run.
        """
        if not 0 <= start <= stop <= self.num_stripes:
            raise IndexError(f"stripes [{start}, {stop}) out of range")
        self._planned = range(start, stop)
        return self._planned

    def read_stripe(self, index: int) -> RowBlock:
        """One stripe as a block of columns, accounting the bytes read
        and values decoded (the reader tier's fill costs).

        Inside a planned run (:meth:`plan_run`) the block is a view of
        the run's columns, decoded by the first such call.  Alone, the
        stripe is the run ``[index, index + 1)``: only its own bytes
        are touched, so a corrupt neighbour cannot break it.

        Raises :class:`ValueError` naming the stripe and stream when the
        streams do not fit the stripe's bytes, do not decode, or do not
        describe ``num_rows`` consistent rows; for a run, when it is
        decoded and naming its first offending stripe.
        """
        if not 0 <= index < self.num_stripes:
            raise IndexError(f"stripe {index} out of range")
        run = self._run
        if run is None or index not in run.stripes:
            stripes = (
                self._planned
                if index in self._planned
                else range(index, index + 1)
            )
            try:
                run = self._decode(stripes)
            except ValueError:
                if len(stripes) > 1:
                    # raise what the first offending stripe raises alone
                    for one in stripes:
                        self._decode(range(one, one + 1))
                raise
            self._run = run
        if index == run.stripes[-1]:
            self._run = None
        at = index - run.stripes.start
        self._served = run, index
        compressed, raw, values = run.work[at]
        self.bytes_read += compressed
        self.raw_bytes += raw
        self.values_decoded += values
        return run.block[run.bounds[at] : run.bounds[at + 1]]

    def run_of(self, index: int) -> tuple[RowBlock, int]:
        """The decoded run that :meth:`read_stripe` just handed stripe
        ``index`` out of, as one block, and the stripe's first row in
        it — so a caller can cut row ranges across the run's stripes
        without copying them back together.

        Nothing is fetched, decoded or accounted here: ask right after
        ``read_stripe(index)``.  Each read answers one call, which ends
        the reader's hold on the run as served: once the run's last
        stripe is handed out, only the caller keeps its block.

        Raises:
            LookupError: if the latest :meth:`read_stripe` was not of
                ``index``, or its run was already taken.
        """
        if self._served is None or self._served[1] != index:
            raise LookupError(f"stripe {index} was not the latest read")
        run, _ = self._served
        self._served = None
        return run.block, run.bounds[index - run.stripes.start]

    def _fetch(
        self, index: int
    ) -> tuple[dict[str, tuple[int, int, bytes]], tuple[int, int, int]]:
        """Walk one stripe's stream headers and decompress its streams:
        stream name -> (encoding id, value count, payload), and the
        stripe's (compressed bytes, decompressed bytes, values)."""
        blob = self._blob
        pos, byte_len, num_streams = self._stripes[index]
        end = pos + byte_len
        pos += _STRIPE_HEADER.size
        found = {}
        raw = values = 0
        for _ in range(num_streams):
            if pos + _STREAM_HEADER.size > end:
                raise ValueError(
                    f"stripe {index}: a stream header runs past the "
                    f"stripe's {byte_len} bytes"
                )
            (name_len,) = _STREAM_HEADER.unpack_from(blob, pos)
            pos += _STREAM_HEADER.size
            if pos + name_len + _STREAM_META.size > end:
                raise ValueError(
                    f"stripe {index}: a stream name of {name_len} bytes "
                    f"runs past the stripe's {byte_len} bytes"
                )
            name = blob[pos : pos + name_len].decode()
            pos += name_len
            enc_id, count, blob_len = _STREAM_META.unpack_from(blob, pos)
            pos += _STREAM_META.size
            if pos + blob_len > end:
                raise ValueError(
                    f"stripe {index}: stream {name!r} of {blob_len} bytes "
                    f"runs past the stripe's {byte_len} bytes"
                )
            try:
                payload = decompress(blob[pos : pos + blob_len])
            except ValueError as err:
                raise ValueError(
                    f"stripe {index}: stream {name!r}: {err}"
                ) from err
            pos += blob_len
            found[name] = (enc_id, count, payload)
            raw += len(payload)
            values += count
        return found, (byte_len, raw, values)

    def _decode(self, stripes: range) -> _Run:
        """Fetch + decode a run: decompress each stripe's streams (the
        bytes demand that), then decode every column of the schema once
        for the run and check it against the stripes' row counts."""
        fetched = [self._fetch(index) for index in stripes]
        streams = [found for found, _ in fetched]
        bounds = offsets_from_lengths(
            self._stripe_rows[stripes.start : stripes.stop]
        )
        rows = np.diff(bounds)

        def decoded(at: int, name: str, payloads, counts, enc_id: int):
            """``decode_int64_chunks`` of the chunks from ``stripes[at]``
            on, its errors named by stripe and stream; in a run of more
            stripes, :meth:`read_stripe`'s re-read names the first that
            fails alone."""
            try:
                return decode_int64_chunks(
                    payloads, counts, IntEncoding(enc_id)
                )
            except ValueError as err:
                raise ValueError(
                    f"stripe {stripes[at]}: stream {name!r}: {err}"
                ) from err

        def column(name: str, sizes: np.ndarray = rows) -> np.ndarray:
            """One stream across the run, each stripe's chunk checked to
            hold ``sizes`` values."""
            chunks = [found.get(name) for found in streams]
            if None in chunks:
                raise ValueError(
                    f"stripe {stripes[chunks.index(None)]}: "
                    f"stream {name!r} is missing"
                )
            if name == _TIMESTAMP or name.startswith("d:"):
                # float64 bits, always plain, as many as the bytes hold
                payloads = [payload for _, _, payload in chunks]
                held = [len(payload) // 8 for payload in payloads]
                values = decoded(
                    0, name, payloads, held, IntEncoding.PLAIN.value
                ).view(np.float64)
            else:
                held, parts = [], []
                for enc_id, group in groupby(chunks, key=lambda c: c[0]):
                    _, counts, payloads = zip(*group)
                    parts.append(
                        decoded(len(held), name, payloads, counts, enc_id)
                    )
                    held += counts
                values = (
                    parts[0]
                    if len(parts) == 1
                    else np.concatenate([np.empty(0, dtype=np.int64), *parts])
                )
            bad = np.flatnonzero(np.asarray(held) != sizes)
            if bad.size:
                at = int(bad[0])
                raise ValueError(
                    f"stripe {stripes[at]}: stream {name!r} holds "
                    f"{held[at]} values, expected {sizes[at]}"
                )
            return values

        sparse = {}
        for spec in self.schema.sparse:
            lengths = column(f"s:{spec.name}:len")
            try:
                offsets = offsets_from_lengths(lengths)
            except ValueError as err:  # a negative length
                row = np.flatnonzero(lengths < 0)[0]
                at = int(np.searchsorted(bounds, row, side="right")) - 1
                raise ValueError(
                    f"stripe {stripes[at]}: stream 's:{spec.name}:len': {err}"
                ) from err
            sparse[spec.name] = (
                offsets,
                column(f"s:{spec.name}:val", np.diff(offsets[bounds])),
            )
        block = RowBlock(
            sample_id=column(_SAMPLE_ID),
            session_id=column(_SESSION),
            timestamp=column(_TIMESTAMP),
            label=column(_LABEL),
            sparse=sparse,
            dense={
                d.name: column(f"d:{d.name}") for d in self.schema.dense
            },
        )
        return _Run(
            stripes, block, bounds.tolist(), [work for _, work in fetched]
        )

    def read_all(self) -> RowBlock:
        """Every row in the file, in stripe order, as one block (the
        serial scan): the file is one planned run, each stripe is read
        (and accounted) through :meth:`read_stripe`, and the run's block
        is returned as decoded — no stripe is copied back together.  A
        file of no stripes reads as a zero-row block carrying every
        schema column."""
        stripes = self.plan_run(0, self.num_stripes)
        if not stripes:
            return self._decode(stripes).block
        for index in stripes:
            self.read_stripe(index)
            block, _ = self.run_of(index)
        return block
