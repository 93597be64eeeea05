"""Reader CPU cost model (Fig 10's phases).

The reader pipeline's *work inputs* (bytes fetched, bytes decompressed,
values decoded/hashed/copied/processed) are measured from real data; this
model converts them to CPU seconds with per-unit constants.  Constants
are calibrated so the **baseline** phase mix matches Fig 10: fills
dominate (fetch + decrypt + decompress + decode), convert is small,
process is the remainder.  Only ratios matter — absolute seconds are
arbitrary simulation units.

Calibration notes (§6.3):

* Fill work splits into compressed-byte-proportional costs (network
  fetch, decrypt, decompress) and decoded-value costs.  O2's compression
  gains shrink the former, reproducing the paper's 33–50% fill-time cuts.
* Convert adds a hash per value for dedup groups (O3's overhead, +11–37%
  convert time) but copies only unique values.
* Process costs scale with values actually transformed; IKJT inputs
  shrink that by the dedupe factor (O4).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReaderCostModel", "TransportSpec", "TRANSPORT_MODES"]

#: the batch-transport modes a fleet can hand batches over with
TRANSPORT_MODES = ("copy", "shm")


@dataclass(frozen=True)
class TransportSpec:
    """How batches cross the worker→trainer boundary.

    ``copy`` (the default, and what the ``process`` executor actually
    does) serializes every batch through the prefetch queue, so the
    consumer pays a modeled per-batch + per-byte handoff cost
    (:meth:`ReaderCostModel.transport_seconds`) and every wire byte
    counts as ``bytes.copied``.  ``shm`` models a shared-memory /
    zero-copy handoff: the same wire bytes count as ``bytes.avoided``
    and the transport charge is zero.  The batch *stream* is
    bit-identical either way — only the accounting differs, which is
    what makes shm-vs-copy a pure A/B on the cost model.
    """

    mode: str = "copy"

    def __post_init__(self) -> None:
        if self.mode not in TRANSPORT_MODES:
            raise ValueError(
                f"transport mode must be one of {TRANSPORT_MODES}, "
                f"got {self.mode!r}"
            )

    @property
    def charges(self) -> bool:
        """Whether this transport pays the serialize/copy cost."""
        return self.mode == "copy"

    @classmethod
    def coerce(cls, value: "TransportSpec | str") -> "TransportSpec":
        """Accept a mode string (grid/CLI-friendly) or a spec as-is."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            f"transport must be a TransportSpec or mode string, "
            f"got {type(value).__name__}"
        )


@dataclass(frozen=True)
class ReaderCostModel:
    """Per-unit CPU costs, in seconds."""

    # fill: compressed-byte proportional (fetch + decrypt + decompress).
    # Weighted so compressed-byte work is ~2/3 of baseline fill time: then
    # O2's ~3.3x compression gain cuts fill CPU by ~50%, Fig 10's RM1
    # number.
    fill_per_compressed_byte: float = 250e-9
    # fill: per decoded value (byte decoding into columns)
    fill_per_value: float = 120e-9
    # convert: copying one value into a tensor
    convert_copy_per_value: float = 18e-9
    # convert: hashing one value for duplicate detection (O3 overhead)
    convert_hash_per_value: float = 22e-9
    # process: applying user transforms to one value
    process_per_value: float = 150e-9
    # process: per-row fixed overhead (TorchScript dispatch etc.)
    process_per_row: float = 40e-9
    # transport (copy mode only): serializing one wire byte through the
    # worker->trainer prefetch queue.  Deliberately cheap per byte —
    # the copy is memcpy-speed — but it is *serial at the consumer*, so
    # it is the term that floors wide-fleet scaling.
    transport_copy_per_byte: float = 4e-9
    # transport (copy mode only): fixed per-batch handoff overhead
    # (pickling dispatch, queue bookkeeping, tensor reassembly)
    transport_per_batch: float = 150e-6

    def fill_seconds(self, compressed_bytes: int, values_decoded: int) -> float:
        """Fill CPU seconds: fetch/decrypt/decompress + value decode."""
        return (
            compressed_bytes * self.fill_per_compressed_byte
            + values_decoded * self.fill_per_value
        )

    def convert_seconds(self, values_copied: int, values_hashed: int) -> float:
        """Convert CPU seconds: tensor copies + dedup hashing (O3)."""
        return (
            values_copied * self.convert_copy_per_value
            + values_hashed * self.convert_hash_per_value
        )

    def process_seconds(self, values_processed: int, rows_processed: int) -> float:
        """Process CPU seconds: per-value transforms + per-row dispatch."""
        return (
            values_processed * self.process_per_value
            + rows_processed * self.process_per_row
        )

    def transport_seconds(self, wire_bytes: int, batches: int) -> float:
        """Consumer-side handoff seconds for ``batches`` copied batches.

        Charged only by the ``copy`` transport (see
        :class:`TransportSpec`); the shm path's charge is zero.
        """
        return (
            batches * self.transport_per_batch
            + wire_bytes * self.transport_copy_per_byte
        )
