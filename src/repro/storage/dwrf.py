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
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from ..core.jagged import offsets_from_lengths
from ..datagen.schema import DatasetSchema
from ..datagen.session import Sample
from .compression import Codec, compress, decompress
from .encoding import IntEncoding, decode_int64, encode_int64_chunks
from .rowblock import RowBlock

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


def _encode_stream(
    name: str, payload: bytes, encoding: IntEncoding, count: int, codec: Codec
) -> tuple[bytes, int, int]:
    blob = compress(payload, codec)
    encoded_name = name.encode()
    head = _STREAM_HEADER.pack(len(encoded_name)) + encoded_name
    meta = _STREAM_META.pack(encoding.value, count, len(blob))
    return head + meta + blob, len(payload), len(blob)


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

    def write(
        self, rows: RowBlock | Sequence[Sample]
    ) -> tuple[bytes, FileStats]:
        """Serialize the rows into one file blob, ``stripe_rows`` rows
        per stripe; returns the blob and its per-stripe accounting.

        The rows move as columns: each schema column is encoded once
        for the file and cut at the stripe boundaries
        (:func:`~repro.storage.encoding.encode_int64_chunks`).  A
        sequence of :class:`Sample` rows is columnarised once, here; a
        schema feature the block does not carry is written as absent
        (empty lists / ``0.0``).
        """
        schema = self.schema
        if isinstance(rows, RowBlock):
            block = rows
        else:
            block = RowBlock.from_samples(
                rows,
                [s.name for s in schema.sparse],
                [d.name for d in schema.dense],
            )
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

        stats = FileStats()
        parts = [_FILE_HEADER.pack(MAGIC, 1, rows_per_stripe.size)]
        for j, num_rows in enumerate(rows_per_stripe.tolist()):
            sstat = StripeStats(num_rows=num_rows)
            body: list[bytes] = []
            for name, encoding, counts, payloads in streams:
                data, raw, comp = _encode_stream(
                    name, payloads[j], encoding, counts[j], self.codec
                )
                body.append(data)
                sstat.raw_bytes += raw
                sstat.compressed_bytes += comp
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


class DwrfReader:
    """Reads stripes of a DWRF blob back as columnar row blocks.

    A decoded stripe is handed on as a :class:`~repro.storage.rowblock.
    RowBlock` — the streams' arrays themselves, never per-row objects;
    :meth:`read_all` materializes rows for the cold callers that want
    them.  Tracks the byte accounting the reader cost model consumes:
    ``bytes_read`` (compressed, what travels from Tectonic),
    ``raw_bytes`` (decompressed) and ``values_decoded``.
    """

    def __init__(self, blob: bytes, schema: DatasetSchema):
        magic, version, num_stripes = _FILE_HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ValueError("not a DWRF blob")
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        self.schema = schema
        self._blob = blob
        self._stripe_offsets: list[int] = []
        self._stripe_rows: list[int] = []
        pos = _FILE_HEADER.size
        for _ in range(num_stripes):
            self._stripe_offsets.append(pos)
            (byte_len, stripe_rows, _) = _STRIPE_HEADER.unpack_from(blob, pos)
            self._stripe_rows.append(stripe_rows)
            pos += byte_len
        self.bytes_read = 0
        self.raw_bytes = 0
        self.values_decoded = 0

    @property
    def num_stripes(self) -> int:
        """Stripes in the file, known from the file header alone."""
        return len(self._stripe_offsets)

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

    def read_stripe(self, index: int) -> RowBlock:
        """Fetch + decode one stripe into a block of columns, accounting
        the bytes read and values decoded (the reader tier's fill costs).

        Raises :class:`ValueError` naming the stripe and stream when the
        decoded streams do not describe ``num_rows`` consistent rows.
        """
        if not 0 <= index < self.num_stripes:
            raise IndexError(f"stripe {index} out of range")
        blob = self._blob
        pos = self._stripe_offsets[index]
        byte_len, num_rows, num_streams = _STRIPE_HEADER.unpack_from(blob, pos)
        self.bytes_read += byte_len
        pos += _STRIPE_HEADER.size
        columns: dict[str, np.ndarray] = {}
        for _ in range(num_streams):
            (name_len,) = _STREAM_HEADER.unpack_from(blob, pos)
            pos += _STREAM_HEADER.size
            name = blob[pos : pos + name_len].decode()
            pos += name_len
            enc_id, count, blob_len = _STREAM_META.unpack_from(blob, pos)
            pos += _STREAM_META.size
            payload = decompress(blob[pos : pos + blob_len])
            pos += blob_len
            self.raw_bytes += len(payload)
            if name == _TIMESTAMP or name.startswith("d:"):
                columns[name] = np.frombuffer(payload, dtype=np.float64).copy()
            else:
                columns[name] = decode_int64(
                    payload, count, IntEncoding(enc_id)
                )
            self.values_decoded += count

        def stream(name: str, size: int = num_rows) -> np.ndarray:
            """One decoded stream, checked to hold ``size`` values."""
            column = columns.get(name)
            if column is None:
                raise ValueError(f"stripe {index}: stream {name!r} is missing")
            if column.size != size:
                raise ValueError(
                    f"stripe {index}: stream {name!r} holds {column.size} "
                    f"values, expected {size}"
                )
            return column

        sparse = {}
        for spec in self.schema.sparse:
            lengths = stream(f"s:{spec.name}:len")
            try:
                offsets = offsets_from_lengths(lengths)
            except ValueError as err:  # a negative length
                raise ValueError(
                    f"stripe {index}: stream 's:{spec.name}:len': {err}"
                ) from err
            sparse[spec.name] = (
                offsets,
                stream(f"s:{spec.name}:val", int(offsets[-1])),
            )
        return RowBlock(
            sample_id=stream(_SAMPLE_ID),
            session_id=stream(_SESSION),
            timestamp=stream(_TIMESTAMP),
            label=stream(_LABEL),
            sparse=sparse,
            dense={d.name: stream(f"d:{d.name}") for d in self.schema.dense},
        )

    def read_all(self) -> list[Sample]:
        """Every row in the file, in stripe order (the serial scan)."""
        out: list[Sample] = []
        for i in range(self.num_stripes):
            out.extend(self.read_stripe(i))
        return out
