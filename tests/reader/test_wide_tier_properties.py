"""Property wall for wide fleets and tiers under the in-process executor.

Hypothesis drives random pool widths up to 64 — the scale the serial
schedule makes tier-1-affordable — and checks the contracts that must
survive any width:

* every scheduling round's worker allocation sums to the pool width;
* no admitted job is starved more than one consecutive round;
* the fleet's batch stream stays bit-identical to the serial reader at
  any width, and the queue-less serial schedule reports no queue
  waits.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reader import (
    DataLoaderConfig,
    ReaderFleet,
    ReaderNode,
    SharedReaderTier,
    TierJob,
    allocate_workers,
)
from tests.conftest import land_samples, make_reader_schema, make_trace

from .test_fleet import assert_batches_identical

MAX_WIDTH = 64


def _dl_config(batch_size: int = 8) -> DataLoaderConfig:
    return DataLoaderConfig(
        batch_size=batch_size,
        sparse_features=("hist", "item"),
        dense_features=("d",),
        transforms=("hash_modulo",),
    )


@lru_cache(maxsize=None)
def _landed(sessions: int = 60):
    """One shared landed table — scans are read-only, so every
    hypothesis example can reuse it."""
    schema = make_reader_schema()
    samples = make_trace(schema, sessions=sessions, seed=7)
    return land_samples(schema, samples, stripe_rows=64)


@lru_cache(maxsize=None)
def _serial_reference(batch_size: int = 8):
    """The serial batch stream every wide fleet must reproduce."""
    table = _landed()
    return tuple(
        ReaderNode(_dl_config(batch_size)).run_all(table.open_readers("p"))
    )


#: a wide width plus a schedulable job set for it
_wide_width_and_jobs = st.integers(1, MAX_WIDTH).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.sampled_from([f"j{i}" for i in range(2 * MAX_WIDTH)]),
            min_size=1,
            max_size=min(2 * width, 2 * MAX_WIDTH),
            unique=True,
        ),
    )
)


class TestWideAllocation:
    """allocate_workers keeps its contract all the way to width 64."""

    @settings(max_examples=150, deadline=None)
    @given(
        _wide_width_and_jobs,
        st.integers(0, 200),
        st.sampled_from(["round_robin", "stall_weighted"]),
        st.dictionaries(
            st.sampled_from([f"j{i}" for i in range(2 * MAX_WIDTH)]),
            st.floats(0.0, 1000.0),
        ),
    )
    def test_sums_to_width(self, width_jobs, cursor, policy, demand):
        width, jobs = width_jobs
        alloc = allocate_workers(
            width, jobs, demand=demand, policy=policy, cursor=cursor
        )
        assert set(alloc) == set(jobs)
        assert sum(alloc.values()) == width
        assert all(w >= 0 for w in alloc.values())

    @settings(max_examples=100, deadline=None)
    @given(
        _wide_width_and_jobs,
        st.dictionaries(
            st.sampled_from([f"j{i}" for i in range(2 * MAX_WIDTH)]),
            st.floats(0.0, 1000.0),
        ),
        st.integers(2, 8),
    )
    def test_never_starves_twice(self, width_jobs, demand, rounds):
        width, jobs = width_jobs
        starved: set[str] = set()
        for cursor in range(rounds):
            alloc = allocate_workers(
                width, jobs, starved=starved, demand=demand, cursor=cursor
            )
            now_starved = {n for n, w in alloc.items() if w == 0}
            assert not (starved & now_starved)
            starved = now_starved


class TestWideFleet:
    """Random widths up to 64 through the in-process executor."""

    @settings(max_examples=12, deadline=None)
    @given(
        width=st.integers(1, MAX_WIDTH),
        transport=st.sampled_from(["copy", "shm"]),
    )
    def test_bit_identical_with_no_queue_waits(self, width, transport):
        table = _landed()
        fleet = ReaderFleet(width, _dl_config(), transport=transport)
        got = fleet.run_epoch(table, ["p"])
        assert_batches_identical(got, list(_serial_reference()))
        queue = fleet.report.queue
        assert queue.put_wait == queue.get_wait == 0.0
        # shards never exceed the planned batch count, and every worker
        # filed a report
        assert len(fleet.report.workers) == fleet.report.num_shards
        assert fleet.report.num_shards <= len(_serial_reference())


class TestWideTier:
    """End-to-end shared tiers at random wide widths."""

    def _tier(self, width: int, num_jobs: int) -> SharedReaderTier:
        tier = SharedReaderTier(width)
        table = _landed()
        for i in range(num_jobs):
            tier.register(
                TierJob(
                    f"job{i}",
                    table,
                    _dl_config(batch_size=16),
                    epochs=[["p"], ["p"]],
                    max_batches=2,
                )
            )
        return tier

    @settings(max_examples=8, deadline=None)
    @given(
        width=st.integers(1, MAX_WIDTH),
        num_jobs=st.integers(1, 6),
    )
    def test_wide_tier_invariants(self, width, num_jobs):
        # admission itself refuses job sets the fairness bound cannot
        # cover, so clamp to schedulable sets
        num_jobs = min(num_jobs, 2 * width)
        tier = self._tier(width, num_jobs)
        report = tier.run()
        for rnd in report.rounds:
            assert sum(rnd.allocation.values()) == rnd.width
        for name in report.jobs:
            assert report.max_consecutive_skips(name) <= 1
            assert len(report.job_rounds(name)) == 2  # full epoch plan
