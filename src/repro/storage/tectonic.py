"""Tectonic: an instrumented (in-memory) distributed filesystem stand-in.

The paper stores DWRF files in Tectonic, Meta's exabyte-scale filesystem.
For the reproduction, what matters is the *accounting*: storage bytes
(Fig 7's compression-driven savings), read bytes and read IOPS (Table 3,
Fig 10's fill costs).  This FS tracks all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TectonicFS", "FSStats"]


@dataclass
class FSStats:
    """Byte and operation counters for one filesystem instance."""

    bytes_written: int = 0
    bytes_read: int = 0
    read_ops: int = 0
    write_ops: int = 0


class TectonicFS:
    """A flat path -> bytes store with byte/op counters."""

    def __init__(self) -> None:
        self._files: dict[str, bytes] = {}
        self.stats = FSStats()

    def write(self, path: str, data: bytes) -> None:
        """Persist one immutable file; counts the written bytes."""
        if path in self._files:
            raise FileExistsError(f"{path} already exists (files are immutable)")
        self._files[path] = data
        self.stats.bytes_written += len(data)
        self.stats.write_ops += 1

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read a byte range (the whole file by default); counts one
        read op plus the bytes returned — Table 3's ingest accounting."""
        try:
            data = self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None
        if offset < 0 or offset > len(data):
            raise ValueError(f"offset {offset} out of range for {path}")
        chunk = data[offset:] if length is None else data[offset : offset + length]
        self.stats.bytes_read += len(chunk)
        self.stats.read_ops += 1
        return chunk

    def size(self, path: str) -> int:
        """Stored size of one file in bytes."""
        try:
            return len(self._files[path])
        except KeyError:
            raise FileNotFoundError(path) from None

    def exists(self, path: str) -> bool:
        """Whether a file is currently stored at ``path``."""
        return path in self._files

    def delete(self, path: str) -> None:
        """Partition retention: old partitions are constantly deleted (§2.1)."""
        try:
            del self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def listdir(self, prefix: str) -> list[str]:
        """Every stored path under ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))
