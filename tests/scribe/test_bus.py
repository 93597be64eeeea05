"""Tests for Scribe sharding and compression accounting (O1)."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    DatasetSchema,
    FeatureKind,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.scribe import (
    ScribeCluster,
    ScribeShard,
    ShardKeyPolicy,
    consistent_hash,
    route,
    split_sample,
)


class TestConsistentHash:
    def test_deterministic(self):
        assert consistent_hash(b"abc", 16) == consistent_hash(b"abc", 16)

    def test_range(self):
        for key in (b"a", b"b", b"c", b"xyz"):
            assert 0 <= consistent_hash(key, 7) < 7

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            consistent_hash(b"a", 0)

    def test_spreads_keys(self):
        shards = {consistent_hash(str(i).encode(), 16) for i in range(200)}
        assert len(shards) == 16


class TestRoute:
    def test_session_policy_groups_by_session(self):
        a = route(ShardKeyPolicy.SESSION_ID, 8, 5, b"payload-1")
        b = route(ShardKeyPolicy.SESSION_ID, 8, 5, b"payload-2")
        assert a == b

    def test_random_policy_ignores_session(self):
        routes = {
            route(ShardKeyPolicy.RANDOM, 64, 5, f"payload-{i}".encode())
            for i in range(100)
        }
        assert len(routes) > 10


class TestScribeShard:
    def test_block_sealing_and_readback(self):
        shard = ScribeShard(0, block_bytes=64)
        msgs = [b"x" * 30, b"y" * 30, b"z" * 10]
        for m in msgs:
            shard.append(m)
        assert shard.read_messages() == msgs

    def test_compression_counts(self):
        shard = ScribeShard(0, block_bytes=128)
        shard.append(b"a" * 1000)
        shard.flush()
        assert shard.stats.raw_bytes == 1004  # + 4-byte frame
        assert 0 < shard.stats.compressed_bytes < 1004
        assert shard.stats.num_blocks == 1
        assert shard.stats.compression_ratio > 1.0

    def test_empty_flush_noop(self):
        shard = ScribeShard(0)
        shard.flush()
        assert shard.stats.num_blocks == 0
        assert shard.stats.compression_ratio == 1.0

    def test_flush_reports_blocks_sealed(self):
        shard = ScribeShard(0, block_bytes=1 << 20)
        assert shard.flush() == 0  # nothing buffered
        shard.append(b"a" * 10)
        shard.append(b"b" * 10)
        assert shard.flush() == 1
        assert shard.flush() == 0  # idempotent until new appends

    def test_drain_returns_only_newly_sealed_messages(self):
        shard = ScribeShard(0, block_bytes=1 << 20)
        shard.append(b"tick-0")
        shard.flush()
        assert shard.drain() == [b"tick-0"]
        shard.append(b"tick-1a")
        shard.append(b"tick-1b")
        shard.flush()
        # Only the second tick's messages; history is not re-read.
        assert shard.drain() == [b"tick-1a", b"tick-1b"]
        # read_messages still sees everything, in order.
        assert shard.read_messages() == [b"tick-0", b"tick-1a", b"tick-1b"]

    def test_drain_on_empty_shard_names_the_shard(self):
        shard = ScribeShard(3)
        with pytest.raises(
            ValueError, match="shard 3 is empty: nothing to drain"
        ):
            shard.drain()

    def test_drain_with_unsealed_messages_says_flush_first(self):
        shard = ScribeShard(1, block_bytes=1 << 20)
        shard.append(b"buffered")
        with pytest.raises(
            ValueError,
            match=r"shard 1: nothing sealed to drain; 1 message\(s\) "
            r"still buffered — call flush\(\) first",
        ):
            shard.drain()

    def test_drained_twice_without_new_seal_raises(self):
        shard = ScribeShard(0, block_bytes=1 << 20)
        shard.append(b"m")
        shard.flush()
        shard.drain()
        with pytest.raises(ValueError, match="is empty: nothing to drain"):
            shard.drain()


class TestTruncatedFrames:
    """A frame whose length prefix runs past its block must fail, not
    hand ETL a shortened message."""

    def _shard_with_blocks(self, *raws: bytes) -> ScribeShard:
        shard = ScribeShard(5)
        shard._blocks = [zlib.compress(raw) for raw in raws]
        shard._raw_lengths = [len(raw) for raw in raws]
        return shard

    @staticmethod
    def _frame(message: bytes) -> bytes:
        return len(message).to_bytes(4, "little") + message

    def test_length_past_the_block_end(self):
        good = self._frame(b"whole")
        cut = self._frame(b"a message that was cut")[:-6]
        shard = self._shard_with_blocks(good, good + cut)
        with pytest.raises(ValueError) as err:
            shard.read_messages()
        assert str(err.value) == (
            "shard 5: block 1: frame at byte 9 runs past the block's "
            f"{len(good + cut)} bytes"
        )
        with pytest.raises(ValueError, match="shard 5: block 1: frame at byte 9"):
            shard.drain()

    @pytest.mark.parametrize("tail", [1, 2, 3])
    def test_partial_length_prefix(self, tail):
        good = self._frame(b"whole")
        shard = self._shard_with_blocks(good + b"\x01\x00\x00"[:tail])
        with pytest.raises(
            ValueError, match=r"shard 5: block 0: frame at byte 9 runs past"
        ):
            shard.read_messages()

    def test_whole_frames_and_empty_messages_still_decode(self):
        raw = self._frame(b"") + self._frame(b"x") + self._frame(b"")
        assert self._shard_with_blocks(raw).read_messages() == [b"", b"x", b""]



#: messages that seal into several 512-byte blocks of shard 2
_MESSAGES = [bytes([i]) * (i * 7 % 50) + b"msg" for i in range(60)]


def _sealed_shard() -> ScribeShard:
    shard = ScribeShard(2, block_bytes=512)
    for message in _MESSAGES:
        shard.append(message)
    shard.flush()
    shard.stats  # every block compressed and in place
    return shard


@st.composite
def _mutation(draw, block: bytes) -> bytes:
    """``block`` with one byte changed, removed or added, cut short, or
    followed by bytes it does not hold."""
    kind = draw(st.sampled_from(["change", "drop", "insert", "cut", "append"]))
    if kind == "cut":
        return block[: draw(st.integers(0, len(block) - 1))]
    if kind == "append":
        return block + draw(st.binary(min_size=1, max_size=8))
    at = draw(st.integers(0, len(block) - 1))
    if kind == "drop":
        return block[:at] + block[at + 1 :]
    if kind == "insert":
        return block[:at] + bytes([draw(st.integers(0, 255))]) + block[at:]
    value = draw(st.integers(0, 255).filter(lambda v: v != block[at]))
    return block[:at] + bytes([value]) + block[at + 1 :]


class TestCorruptBlocks:
    """A sealed block whose bytes changed after sealing reads back as its
    own messages or fails as a ValueError naming its shard and block,
    never as a raw zlib error or different messages."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_block_is_named_or_harmless(self, data):
        shard = _sealed_shard()
        assert len(shard._blocks) > 2
        index = data.draw(st.integers(0, len(shard._blocks) - 1), label="block")
        shard._blocks[index] = data.draw(_mutation(shard._blocks[index]))
        for read in (shard.read_messages, shard.drain):
            try:
                got = read()
            except ValueError as err:
                assert str(err).startswith(f"shard 2: block {index}: "), err
            else:
                assert got == _MESSAGES

    def test_truncated_block_names_shard_and_block(self):
        shard = _sealed_shard()
        shard._blocks[1] = shard._blocks[1][:-5]
        with pytest.raises(ValueError, match=r"^shard 2: block 1: stream cut short"):
            shard.read_messages()

    def test_block_inflates_no_more_than_its_sealed_length(self):
        shard = _sealed_shard()
        shard._raw_lengths[0] -= 1
        with pytest.raises(
            ValueError, match=r"^shard 2: block 0: inflates past its recorded raw length"
        ):
            shard.drain()


class TestClusterSealDrain:
    def _log_tick(self, cluster, samples):
        for s in samples:
            feat, ev = split_sample(s)
            cluster.log_features(feat)
            cluster.log_event(ev)

    def test_drain_all_is_one_ticks_ingest(self):
        samples = generate_partition(
            _trace_schema(), 40, TraceConfig(seed=9)
        )
        cluster = ScribeCluster(
            num_shards=4, policy=ShardKeyPolicy.SESSION_ID
        )
        self._log_tick(cluster, samples[:20])
        cluster.flush()
        first = cluster.drain_all()
        self._log_tick(cluster, samples[20:])
        cluster.flush()
        second = cluster.drain_all()
        # Two ticks' drains partition the full readback: nothing lost,
        # nothing re-read (2 framed messages per sample: features+event).
        assert len(first) + len(second) == 2 * len(samples)
        assert sorted(first + second) == sorted(cluster.read_all())

    def test_empty_cluster_drains_to_empty(self):
        cluster = ScribeCluster(num_shards=3)
        assert cluster.drain_all() == []
        assert cluster.flush() == 0


def _trace_schema():
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec(
                "hist", kind=FeatureKind.USER, avg_length=30, change_prob=0.05
            ),
            SparseFeatureSpec(
                "item", kind=FeatureKind.ITEM, avg_length=1, change_prob=0.95
            ),
        )
    )


def _log_trace(policy, samples, num_shards=8):
    cluster = ScribeCluster(num_shards=num_shards, policy=policy,
                            block_bytes=32 * 1024)
    for s in samples:
        feat, ev = split_sample(s)
        cluster.log_features(feat)
        cluster.log_event(ev)
    cluster.flush()
    return cluster


class TestScribeCluster:
    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            ScribeCluster(num_shards=0)

    def test_message_counts(self):
        samples = generate_partition(_trace_schema(), 30, TraceConfig(seed=1))
        cluster = _log_trace(ShardKeyPolicy.RANDOM, samples)
        assert cluster.stats.num_messages == 2 * len(samples)
        per_shard = [s.stats.num_messages for s in cluster.shards]
        assert sum(per_shard) == 2 * len(samples)

    def test_read_all_returns_everything(self):
        samples = generate_partition(_trace_schema(), 10, TraceConfig(seed=2))
        cluster = _log_trace(ShardKeyPolicy.SESSION_ID, samples)
        assert len(cluster.read_all()) == 2 * len(samples)

    def test_session_sharding_improves_compression(self):
        """O1's headline: session-ID sharding must beat random sharding on
        compression ratio (paper: 1.50x -> 2.25x)."""
        samples = generate_partition(
            _trace_schema(), 400, TraceConfig(seed=3)
        )
        random_ratio = _log_trace(
            ShardKeyPolicy.RANDOM, samples
        ).compression_ratio
        session_ratio = _log_trace(
            ShardKeyPolicy.SESSION_ID, samples
        ).compression_ratio
        assert session_ratio > random_ratio * 1.2

    def test_session_sharding_reduces_etl_ingest_bytes(self):
        samples = generate_partition(
            _trace_schema(), 400, TraceConfig(seed=3)
        )
        random_bytes = _log_trace(ShardKeyPolicy.RANDOM, samples).etl_ingest_bytes
        session_bytes = _log_trace(
            ShardKeyPolicy.SESSION_ID, samples
        ).etl_ingest_bytes
        assert session_bytes < random_bytes

    def test_stats_merge(self):
        samples = generate_partition(_trace_schema(), 20, TraceConfig(seed=4))
        cluster = _log_trace(ShardKeyPolicy.RANDOM, samples)
        total = cluster.stats
        assert total.raw_bytes == sum(
            s.stats.raw_bytes for s in cluster.shards
        )

    @pytest.mark.parametrize("policy", list(ShardKeyPolicy))
    def test_every_message_lands_where_route_sends_it_alone(self, policy):
        """The cluster remembers a session's shard under SESSION_ID; each
        message's shard is still ``route(...)`` of that message alone,
        across two ticks and in both policies."""
        samples = generate_partition(_trace_schema(), 60, TraceConfig(seed=5))
        cluster = ScribeCluster(num_shards=5, policy=policy)
        for s in samples[:30] + samples[10:]:  # sessions recur across ticks
            feat, ev = split_sample(s)
            for record, log in ((feat, cluster.log_features), (ev, cluster.log_event)):
                want = route(policy, 5, record.session_id, record.serialize())
                assert log(record) == want
