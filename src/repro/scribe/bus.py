"""Scribe: a sharded, buffering, compressing message bus (§2.1, §4.1).

Each shard buffers incoming messages and compresses them in fixed-size
blocks with a black-box codec (zlib here; zstd in production — both are
window-based LZ codecs, which is all O1 relies on).  The cluster tracks:

* raw ingress bytes (network RX from inference servers);
* compressed storage bytes (what the storage nodes persist);
* egress bytes for ETL ingestion (compressed blocks shipped downstream).

O1's claim — session-ID sharding raises the compression ratio (paper:
1.50x -> 2.25x) and with it cuts storage and ETL-ingest network demand —
falls out of measuring those counters under the two policies.

Sealing a block hands it to the compression pool
(:func:`~repro.storage.compression.deflate_later`) and returns, so
logging goes on while earlier blocks compress.  A shard keeps its
blocks in seal order and settles every pending one to its bytes before
anything reads a block or a compressed size (``stats``, ``drain``,
``read_messages``, ``egress_bytes``); counting blocks never waits.
Each block's raw length is kept from its seal, and a read inflates no
more than that (:func:`~repro.storage.compression.inflate`): a corrupt
or truncated block is a ``ValueError`` naming its shard and block.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass

from ..metrics.ledger import Folded
from ..storage.compression import deflate_later, inflate
from .message import EventLogRecord, FeatureLogRecord
from .sharding import ShardKeyPolicy, route

__all__ = ["ScribeShard", "ScribeCluster", "ScribeStats"]

#: compress buffered messages once this many raw bytes accumulate; sized a
#: few multiples of zlib's 32 KiB match window so cross-message duplicates
#: inside a block are actually found.
DEFAULT_BLOCK_BYTES = 256 * 1024


@dataclass
class ScribeStats(Folded):
    """Byte accounting for one shard or a whole cluster."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    num_messages: int = 0
    num_blocks: int = 0

    derived = ("compression_ratio",)

    @property
    def compression_ratio(self) -> float:
        """Raw over compressed bytes (1.0 while nothing is sealed)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.raw_bytes / self.compressed_bytes


class ScribeShard:
    """One physical storage node's buffer of compressed blocks."""

    def __init__(self, shard_id: int, block_bytes: int = DEFAULT_BLOCK_BYTES):
        self.shard_id = shard_id
        self.block_bytes = block_bytes
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        #: sealed blocks in seal order; one still compressing is a future
        self._blocks: list[bytes | Future[bytes]] = []
        #: each sealed block's raw length, the most its inflate may yield
        self._raw_lengths: list[int] = []
        #: how many sealed blocks :meth:`drain` has already handed out
        self._drained = 0
        self._stats = ScribeStats()

    @property
    def stats(self) -> ScribeStats:
        """The shard's byte accounting, every sealed block settled."""
        self._settle()
        return self._stats

    def _settle(self) -> None:
        """Wait for the blocks still compressing and put their bytes in
        place, in seal order."""
        blocks = self._blocks
        for index, block in enumerate(blocks):
            if isinstance(block, Future):
                blocks[index] = block = block.result()
                self._stats.compressed_bytes += len(block)

    def append(self, message: bytes) -> None:
        """Buffer one message; seal a compressed block at the high-water
        mark."""
        # 4-byte length framing so blocks are self-describing.
        framed = len(message).to_bytes(4, "little") + message
        self._pending.append(framed)
        self._pending_bytes += len(framed)
        self._stats.raw_bytes += len(framed)
        self._stats.num_messages += 1
        if self._pending_bytes >= self.block_bytes:
            self.flush()

    def flush(self) -> int:
        """Seal whatever is buffered, even below the block size.

        Streaming landers call this at each tick boundary on the
        cost-model clock, so a block lands deterministically at the tick
        even when it never reached the :data:`DEFAULT_BLOCK_BYTES`
        high-water mark.  Returns the number of blocks sealed (0 when
        nothing was buffered).
        """
        if not self._pending:
            return 0
        self._blocks.append(deflate_later(b"".join(self._pending), level=6))
        self._raw_lengths.append(self._pending_bytes)
        self._stats.num_blocks += 1
        self._pending.clear()
        self._pending_bytes = 0
        return 1

    def drain(self) -> list[bytes]:
        """Hand out messages from sealed, not-yet-drained blocks.

        The incremental counterpart of :meth:`read_messages`: each call
        returns only the blocks sealed since the previous drain, in seal
        order, so a streaming lander can move one tick's messages
        downstream without re-reading history.  Buffered-but-unsealed
        messages are *not* included — flush first.

        Raises:
            ValueError: when there is nothing sealed to drain, with a
                distinct message for "messages still buffered — call
                flush() first" vs "shard is empty".
        """
        if self._drained == len(self._blocks):
            if self._pending:
                raise ValueError(
                    f"shard {self.shard_id}: nothing sealed to drain; "
                    f"{len(self._pending)} message(s) still buffered — "
                    "call flush() first"
                )
            raise ValueError(
                f"shard {self.shard_id} is empty: nothing to drain"
            )
        out = self._decode_blocks(self._drained)
        self._drained = len(self._blocks)
        return out

    def _decode_blocks(self, first: int) -> list[bytes]:
        """Sealed blocks ``first`` onward back into their framed
        messages; a block that does not inflate to its sealed length, or
        a frame that runs past its block, is a ``ValueError`` naming
        shard and block (and the frame's byte offset), never a shortened
        message.
        """
        self._settle()
        out: list[bytes] = []
        for index in range(first, len(self._blocks)):
            raw = inflate(
                self._blocks[index],
                self._raw_lengths[index],
                f"shard {self.shard_id}: block {index}",
            )
            pos = 0
            while pos < len(raw):
                stop = pos + 4 + int.from_bytes(raw[pos : pos + 4], "little")
                if pos + 4 > len(raw) or stop > len(raw):
                    raise ValueError(
                        f"shard {self.shard_id}: block {index}: frame at "
                        f"byte {pos} runs past the block's {len(raw)} bytes"
                    )
                out.append(raw[pos + 4 : stop])
                pos = stop
        return out

    def read_messages(self) -> list[bytes]:
        """Decompress all sealed blocks back into messages (ETL ingest)."""
        self.flush()
        return self._decode_blocks(0)

    @property
    def egress_bytes(self) -> int:
        """Compressed bytes an ETL ingest would pull off this shard."""
        return self.stats.compressed_bytes


class ScribeCluster:
    """A Scribe deployment: N shards behind a routing policy."""

    def __init__(
        self,
        num_shards: int = 16,
        policy: ShardKeyPolicy = ShardKeyPolicy.RANDOM,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.policy = policy
        self.shards = [ScribeShard(i, block_bytes) for i in range(num_shards)]
        #: session id -> shard, filled once per session under SESSION_ID
        self._session_shards: dict[int, int] = {}

    # -- ingestion ----------------------------------------------------------

    def _log(self, record: FeatureLogRecord | EventLogRecord) -> int:
        payload = record.serialize()
        shard = self._session_shards.get(record.session_id)
        if shard is None:
            shard = route(self.policy, len(self.shards), record.session_id, payload)
            if self.policy is ShardKeyPolicy.SESSION_ID:
                self._session_shards[record.session_id] = shard
        self.shards[shard].append(payload)
        return shard

    def log_features(self, record: FeatureLogRecord) -> int:
        """Route one feature record to its shard; returns the shard id."""
        return self._log(record)

    def log_event(self, record: EventLogRecord) -> int:
        """Route one event record to its shard; returns the shard id."""
        return self._log(record)

    def flush(self) -> int:
        """Seal every shard's buffered messages (a streaming lander's
        tick boundary); returns the number of blocks sealed."""
        return sum(shard.flush() for shard in self.shards)

    # -- ETL-facing reads -----------------------------------------------------

    def read_all(self) -> list[bytes]:
        """Every message on every shard (shard order, arrival order)."""
        out: list[bytes] = []
        for shard in self.shards:
            out.extend(shard.read_messages())
        return out

    def drain_all(self) -> list[bytes]:
        """Every not-yet-drained sealed message (shard order, seal
        order) — one streaming tick's ETL ingest.  Shards with nothing
        sealed are skipped; an all-empty cluster drains to ``[]``.
        """
        out: list[bytes] = []
        for shard in self.shards:
            if len(shard._blocks) > shard._drained:
                out.extend(shard.drain())
        return out

    # -- accounting ---------------------------------------------------------

    @property
    def stats(self) -> ScribeStats:
        """Every shard's accounting merged into one cluster view."""
        return ScribeStats.fold(shard.stats for shard in self.shards)

    @property
    def compression_ratio(self) -> float:
        """Cluster-wide compression ratio (the O1 headline number)."""
        return self.stats.compression_ratio

    @property
    def etl_ingest_bytes(self) -> int:
        """Network bytes a downstream ETL job pulls (compressed)."""
        return sum(s.egress_bytes for s in self.shards)
