"""Storage substrate: DWRF-like columnar files, Tectonic FS, Hive tables."""

from .compression import Codec, compress, decompress
from .dwrf import DwrfReader, DwrfWriter, FileStats, StripeStats
from .encoding import (
    IntEncoding,
    best_encoding,
    decode_int64,
    encode_int64,
    unzigzag,
    zigzag,
)
from .hive import HiveTable, PartitionInfo
from .rowblock import RowBlock
from .tectonic import FSStats, TectonicFS

__all__ = [
    "Codec",
    "compress",
    "decompress",
    "IntEncoding",
    "best_encoding",
    "encode_int64",
    "decode_int64",
    "zigzag",
    "unzigzag",
    "DwrfWriter",
    "DwrfReader",
    "FileStats",
    "StripeStats",
    "RowBlock",
    "TectonicFS",
    "FSStats",
    "HiveTable",
    "PartitionInfo",
]
