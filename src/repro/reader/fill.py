"""Fill: fetch file splits from Tectonic and decode them (§2.1, Fig 5).

A reader fills batches by reading stripes out of DWRF files, paying for
(1) fetching/decrypting/decompressing compressed bytes and (2) decoding
the streams' values.  Both work inputs are measured by the underlying
:class:`~repro.storage.dwrf.DwrfReader` counters.  Rows stay columnar
throughout and are not copied here: a file's touched stripes decode as
one run, one :class:`~repro.storage.rowblock.RowBlock`, and a batch is a
row range of it — a view, cut by offset arithmetic.  Only a batch that
crosses a run, i.e. a file boundary, is concatenated.  Feature
conversion is then the batch's one copy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..storage.dwrf import DwrfReader
from ..storage.rowblock import RowBlock

__all__ = ["FillStats", "fill_batches"]


@dataclass
class FillStats:
    """Work units for the fill-phase cost model."""

    compressed_bytes: int = 0
    raw_bytes: int = 0
    values_decoded: int = 0


def fill_batches(
    readers: list[DwrfReader],
    batch_size: int,
    row_start: int = 0,
    row_stop: int | None = None,
) -> Iterator[tuple[RowBlock, FillStats]]:
    """Stream fixed-size batches of rows off a partition's file readers.

    Each batch is one :class:`RowBlock` of exactly ``batch_size`` rows;
    a trailing partial batch is dropped.  Stripes are read lazily; each
    yielded batch carries the *incremental* fill work (so a node can
    attribute CPU time per batch).

    ``row_start``/``row_stop`` restrict filling to a window of the global
    row order across ``readers`` — how one fleet shard scans only its
    slice of a partition.  Stripes entirely outside the window are
    skipped without being fetched or decoded (their headers carry the row
    counts), so a shard pays fill cost only for stripes it touches; edge
    stripes are decoded whole and sliced, exactly as a real columnar
    reader would.  The stripes the window touches within one file are
    consecutive: each reader is told that run once
    (:meth:`~repro.storage.dwrf.DwrfReader.plan_run`) and decodes it in
    one pass inside the first ``read_stripe`` that needs it, so an epoch
    cut short decodes no file past the one it stopped in.

    A yielded batch is a view of its run's block (``block[lo:hi]``; see
    :meth:`~repro.storage.dwrf.DwrfReader.run_of`), not a copy: it stays
    valid, and other batches of the run share its arrays.  Only a batch
    that crosses a file boundary owns fresh arrays
    (:meth:`RowBlock.concat`).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if row_start < 0:
        raise ValueError("row_start must be non-negative")
    if row_stop is not None and row_stop < row_start:
        raise ValueError("row_stop must be >= row_start")
    # decoded, not yet batched, in row order: [run block, lo, hi] ranges
    pending: list[list] = []
    pending_rows = 0
    prev = FillStats()

    def snapshot() -> FillStats:
        """Fill work accumulated since the previous snapshot."""
        cur = FillStats(
            compressed_bytes=sum(r.bytes_read for r in readers),
            raw_bytes=sum(r.raw_bytes for r in readers),
            values_decoded=sum(r.values_decoded for r in readers),
        )
        delta = FillStats(
            compressed_bytes=cur.compressed_bytes - prev.compressed_bytes,
            raw_bytes=cur.raw_bytes - prev.raw_bytes,
            values_decoded=cur.values_decoded - prev.values_decoded,
        )
        prev.compressed_bytes = cur.compressed_bytes
        prev.raw_bytes = cur.raw_bytes
        prev.values_decoded = cur.values_decoded
        return delta

    pos = 0  # global row index of the next unread stripe's first row
    done = False
    for reader in readers:
        if done:
            break
        # (stripe, lo, hi) of each stripe of this file the window
        # touches, from the headers alone
        touched = []
        for stripe_idx in range(reader.num_stripes):
            stripe_rows = reader.stripe_num_rows(stripe_idx)
            lo = max(row_start - pos, 0)
            hi = stripe_rows if row_stop is None else min(
                stripe_rows, row_stop - pos
            )
            pos += stripe_rows
            if hi <= 0:  # stripe is entirely past the window
                done = True
                break
            if lo < stripe_rows:  # else entirely before the window
                touched.append((stripe_idx, lo, hi))
        if not touched:
            continue
        reader.plan_run(touched[0][0], touched[-1][0] + 1)
        for stripe_idx, lo, hi in touched:
            reader.read_stripe(stripe_idx)  # decodes + accounts
            run, first = reader.run_of(stripe_idx)
            lo, hi = first + lo, first + hi
            if pending and pending[-1][0] is run and pending[-1][2] == lo:
                pending[-1][2] = hi  # the run's next stripe
            else:
                pending.append([run, lo, hi])
            pending_rows += hi - lo
            while pending_rows >= batch_size:
                # the head range's rows, and the next range's if the
                # head runs out (the next run: a file boundary)
                taken, need = [], batch_size
                while need:
                    block, start, stop = pending[0]
                    end = min(stop, start + need)
                    taken.append(block[start:end])
                    need -= end - start
                    if end == stop:
                        pending.pop(0)
                    else:
                        pending[0][1] = end
                pending_rows -= batch_size
                yield (
                    taken[0] if len(taken) == 1 else RowBlock.concat(taken),
                    snapshot(),
                )
