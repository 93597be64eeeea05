"""Shared reader tier: allocation invariants, fairness, admission.

``allocate_workers``'s two contract-level properties are sampled here
with hypothesis up to width 12: every allocation sums to the width, and
a job skipped once leads the next round.  The tier's own rounds are
checked exhaustively at small widths by ``test_tier_explorer.py``.  The
rest covers admission errors, three schedules that broke the one-round
bound, and the tier's end-to-end schedule over real landed tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reader import (
    DataLoaderConfig,
    SharedReaderTier,
    TierJob,
    allocate_workers,
)
from repro.reader.autoscale import ScalingSpec
from repro.reader.tier_scheduler import (
    TierState,
    admit,
    plan_round,
    remove,
    settle,
)
from tests.conftest import land_samples, make_reader_schema, make_trace


def _dl_config(batch_size: int = 32) -> DataLoaderConfig:
    return DataLoaderConfig(
        batch_size=batch_size,
        sparse_features=("hist", "item"),
        dense_features=("d",),
        transforms=("hash_modulo",),
    )


def _landed():
    schema = make_reader_schema()
    samples = make_trace(schema, sessions=40)
    return land_samples(schema, samples)


# -- allocate_workers properties -------------------------------------------

#: a width plus a schedulable job set (at most 2 * width jobs)
_width_and_jobs = st.integers(1, 12).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.sampled_from([f"j{i}" for i in range(24)]),
            min_size=1,
            max_size=2 * width,
            unique=True,
        ),
    )
)


class TestAllocateWorkers:
    @settings(max_examples=200, deadline=None)
    @given(
        _width_and_jobs,
        st.integers(0, 100),
        st.sampled_from(["round_robin", "stall_weighted"]),
        st.dictionaries(
            st.sampled_from([f"j{i}" for i in range(24)]),
            st.floats(0.0, 100.0),
        ),
    )
    def test_sums_to_width_and_is_deterministic(
        self, width_jobs, cursor, policy, demand
    ):
        width, jobs = width_jobs
        alloc = allocate_workers(
            width, jobs, demand=demand, policy=policy, cursor=cursor
        )
        assert set(alloc) == set(jobs)
        assert sum(alloc.values()) == width
        assert all(w >= 0 for w in alloc.values())
        again = allocate_workers(
            width, jobs, demand=demand, policy=policy, cursor=cursor
        )
        assert alloc == again

    @settings(max_examples=200, deadline=None)
    @given(
        _width_and_jobs,
        st.sampled_from(["round_robin", "stall_weighted"]),
        st.dictionaries(
            st.sampled_from([f"j{i}" for i in range(24)]),
            st.floats(0.0, 100.0),
        ),
        st.integers(2, 12),
    )
    def test_never_starves_twice_in_a_row(
        self, width_jobs, policy, demand, rounds
    ):
        """Simulate the scheduler loop: a job skipped in one round must
        receive at least one worker in the next."""
        width, jobs = width_jobs
        starved: set[str] = set()
        for cursor in range(rounds):
            alloc = allocate_workers(
                width,
                jobs,
                starved=starved,
                demand=demand,
                policy=policy,
                cursor=cursor,
            )
            now_starved = {name for name, w in alloc.items() if w == 0}
            assert not (starved & now_starved), (
                f"jobs {starved & now_starved} starved two rounds in a "
                f"row (width {width}, {len(jobs)} jobs)"
            )
            starved = now_starved

    def test_every_job_guaranteed_one_when_pool_is_wide(self):
        alloc = allocate_workers(8, ["a", "b", "c"], demand={"a": 100.0})
        assert all(w >= 1 for w in alloc.values())
        assert sum(alloc.values()) == 8

    def test_stall_weighted_follows_demand(self):
        alloc = allocate_workers(
            8,
            ["heavy", "light"],
            demand={"heavy": 3.0, "light": 1.0},
            policy="stall_weighted",
        )
        assert alloc["heavy"] > alloc["light"]
        assert sum(alloc.values()) == 8

    def test_stall_weighted_cold_start_falls_back_to_even(self):
        """A candidate with no observed demand forces the even split."""
        alloc = allocate_workers(
            8, ["seen", "new"], demand={"seen": 5.0}, policy="stall_weighted"
        )
        assert alloc == {"seen": 4, "new": 4}

    def test_round_robin_rotates_the_remainder(self):
        first = allocate_workers(3, ["a", "b"], policy="round_robin", cursor=0)
        second = allocate_workers(3, ["a", "b"], policy="round_robin", cursor=1)
        assert first != second
        assert sum(first.values()) == sum(second.values()) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_workers(0, ["a"])
        with pytest.raises(ValueError):
            allocate_workers(4, ["a"], policy="fifo")
        with pytest.raises(ValueError):
            allocate_workers(4, ["a", "a"])
        assert allocate_workers(4, []) == {}


class TestJobWeights:
    """Per-job scheduling weights scale the stall-weighted demand
    signal; the fairness floor and sum-to-width invariant survive."""

    def test_weight_scales_equal_demand(self):
        alloc = allocate_workers(
            10,
            ["heavy", "light"],
            demand={"heavy": 1.0, "light": 1.0},
            weights={"heavy": 3.0, "light": 1.0},
        )
        # 8 surplus workers split 3:1 -> 6 vs 2, plus the guaranteed 1
        assert alloc == {"heavy": 7, "light": 3}

    def test_default_weight_is_identity(self):
        base = allocate_workers(
            9, ["a", "b", "c"], demand={"a": 4.0, "b": 2.0, "c": 1.0}
        )
        explicit = allocate_workers(
            9,
            ["a", "b", "c"],
            demand={"a": 4.0, "b": 2.0, "c": 1.0},
            weights={"a": 1.0, "b": 1.0, "c": 1.0},
        )
        assert base == explicit

    def test_fairness_floor_survives_extreme_weights(self):
        alloc = allocate_workers(
            4,
            ["vip", "x", "y"],
            demand={"vip": 1.0, "x": 1.0, "y": 1.0},
            weights={"vip": 1e6},
        )
        assert all(w >= 1 for w in alloc.values())
        assert sum(alloc.values()) == 4

    def test_cold_start_still_splits_evenly(self):
        """Weights scale *observed demand*; with no demand signal the
        round falls back to the unweighted even split."""
        alloc = allocate_workers(
            8, ["a", "b"], weights={"a": 5.0, "b": 1.0}
        )
        assert alloc == {"a": 4, "b": 4}

    def test_weight_breaks_priority_ties_when_oversubscribed(self):
        """More jobs than workers: the weight-scaled demand decides who
        gets the scarce single workers first."""
        alloc = allocate_workers(
            1,
            ["a", "b"],
            demand={"a": 1.0, "b": 1.0},
            weights={"a": 1.0, "b": 2.0},
        )
        assert alloc == {"a": 0, "b": 1}

    @settings(max_examples=100, deadline=None)
    @given(
        _width_and_jobs,
        st.dictionaries(
            st.sampled_from([f"j{i}" for i in range(24)]),
            st.floats(0.0, 100.0),
        ),
        st.dictionaries(
            st.sampled_from([f"j{i}" for i in range(24)]),
            st.floats(0.1, 10.0),
        ),
    )
    def test_invariants_hold_under_weights(self, width_jobs, demand, weights):
        width, jobs = width_jobs
        alloc = allocate_workers(
            width, jobs, demand=demand, weights=weights
        )
        assert sum(alloc.values()) == width
        if len(jobs) <= width:
            assert all(w >= 1 for w in alloc.values())

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            allocate_workers(4, ["a"], weights={"a": 0.0})
        with pytest.raises(ValueError, match="positive"):
            allocate_workers(4, ["a"], weights={"a": -1.0})

    def test_infinite_weight_rejected_before_apportioning(self):
        """An infinite weight makes the surplus shares NaN; it must fail
        as a named weight error, not mid-round in ``int(nan)``."""
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            allocate_workers(
                4,
                ["a", "b"],
                demand={"a": 1.0, "b": 1.0},
                weights={"a": float("inf")},
            )


# -- SharedReaderTier ------------------------------------------------------


class TestAdmission:
    def test_rejects_duplicate_and_empty_names(self):
        tier = SharedReaderTier(2)
        table = _landed()
        job = TierJob("a", table, _dl_config(), epochs=[["p"]])
        tier.register(job)
        with pytest.raises(ValueError, match="already registered"):
            tier.register(TierJob("a", table, _dl_config(), epochs=[["p"]]))
        with pytest.raises(ValueError, match="non-empty"):
            tier.register(TierJob("", table, _dl_config(), epochs=[["p"]]))

    def test_rejects_unschedulable_job_count(self):
        tier = SharedReaderTier(1)
        table = _landed()
        tier.register(TierJob("a", table, _dl_config(), epochs=[["p"]]))
        tier.register(TierJob("b", table, _dl_config(), epochs=[["p"]]))
        with pytest.raises(ValueError, match="admission refused"):
            tier.register(TierJob("c", table, _dl_config(), epochs=[["p"]]))

    def test_rejects_dead_partitions_and_empty_plans(self):
        tier = SharedReaderTier(2)
        table = _landed()
        with pytest.raises(ValueError, match="not live"):
            tier.register(
                TierJob("a", table, _dl_config(), epochs=[["nope"]])
            )
        with pytest.raises(ValueError, match="empty epoch plan"):
            tier.register(TierJob("a", table, _dl_config(), epochs=[]))

    def test_rejects_epoch_smaller_than_a_batch(self):
        tier = SharedReaderTier(2)
        table = _landed()
        with pytest.raises(ValueError, match="cannot fill one batch"):
            tier.register(
                TierJob(
                    "a", table, _dl_config(batch_size=100_000), epochs=[["p"]]
                )
            )

    def test_rejects_sub_batch_partitions_even_when_rows_sum_past_a_batch(
        self,
    ):
        """Batches are partition-aligned: two partitions each below the
        batch size yield zero batches even if their summed rows don't."""
        schema = make_reader_schema()
        samples = make_trace(schema, sessions=40)
        table = land_samples(schema, samples[:20])
        table.land_partition("q", samples[20:40])
        batch = 25  # each partition has 20 rows: 20 + 20 > 25 > 20
        tier = SharedReaderTier(2)
        with pytest.raises(ValueError, match="cannot fill one batch"):
            tier.register(
                TierJob(
                    "a",
                    table,
                    _dl_config(batch_size=batch),
                    epochs=[["p", "q"]],
                )
            )

    def test_tier_validation(self):
        with pytest.raises(ValueError):
            SharedReaderTier(0)
        with pytest.raises(ValueError):
            SharedReaderTier(2, policy="lifo")
        with pytest.raises(ValueError):
            SharedReaderTier(8, scaling=ScalingSpec(max_readers=4))

    def test_rejects_non_positive_job_weight(self):
        tier = SharedReaderTier(2)
        with pytest.raises(ValueError, match="weight"):
            tier.register(
                TierJob(
                    "a", _landed(), _dl_config(), epochs=[["p"]], weight=0.0
                )
            )

    def test_rejects_infinite_job_weight(self):
        tier = SharedReaderTier(2)
        with pytest.raises(ValueError, match="scheduling weight inf"):
            tier.register(
                TierJob(
                    "a",
                    _landed(),
                    _dl_config(),
                    epochs=[["p"]],
                    weight=float("inf"),
                )
            )

    def test_declared_stream_admits_unlanded_partitions(self):
        """A lazy-landing job (retention) validates its plan against
        partition_rows, not the live table — and still rejects plans
        naming partitions outside the declared stream."""
        tier = SharedReaderTier(2)
        table = _landed()
        tier.register(
            TierJob(
                "lazy",
                table,
                _dl_config(),
                epochs=[["p"], ["future"]],
                partition_rows={"p": 40, "future": 40},
            )
        )
        with pytest.raises(ValueError, match="not live"):
            tier.register(
                TierJob(
                    "bad",
                    table,
                    _dl_config(),
                    epochs=[["nowhere"]],
                    partition_rows={"p": 40},
                )
            )
        with pytest.raises(ValueError, match="cannot fill one batch"):
            tier.register(
                TierJob(
                    "tiny",
                    table,
                    _dl_config(),
                    epochs=[["p"]],
                    partition_rows={"p": 3},
                )
            )


class TestPrepareHook:
    def test_prepare_runs_before_each_scheduled_epoch(self):
        """The lifecycle hook lands lazily: epoch 1's partition does
        not exist at registration and is landed by prepare just in
        time."""
        schema = make_reader_schema()
        samples = make_trace(schema, sessions=40)
        table = land_samples(schema, samples[:20])  # lands "p" only
        prepared = []

        def prepare(epoch: int) -> None:
            prepared.append(epoch)
            if epoch == 1 and "q" not in table.partitions:
                table.land_partition("q", samples[20:40])

        tier = SharedReaderTier(2)
        tier.register(
            TierJob(
                "lazy",
                table,
                _dl_config(batch_size=10),
                epochs=[["p"], ["q"]],
                executor="inprocess",
                prepare=prepare,
                partition_rows={"p": 20, "q": 20},
            )
        )
        report = tier.run()
        assert prepared == [0, 1]
        assert len(report.rounds) == 2
        assert tier.job_fleets["lazy"].merged.batches == 4


class TestSchedule:
    def _tier(self, num_jobs: int, width: int, **kw) -> SharedReaderTier:
        kw.setdefault("policy", "round_robin")
        tier = SharedReaderTier(width, **kw)
        table = _landed()
        for i in range(num_jobs):
            tier.register(
                TierJob(
                    f"job{i}",
                    table,
                    _dl_config(),
                    epochs=[["p"], ["p"]],
                    max_batches=2,
                    executor="inprocess",
                )
            )
        return tier

    def test_drain_without_consumer(self):
        tier = self._tier(num_jobs=2, width=2)
        report = tier.run()
        assert all(
            s.trainer_busy_seconds == 0.0
            for rnd in report.rounds
            for s in rnd.stats
        )
        assert report.modeled_wall_seconds > 0
        merged = tier.job_fleets["job0"].merged
        assert merged.batches == 4  # 2 epochs x max_batches=2

    def test_runs_only_once(self):
        tier = self._tier(num_jobs=2, width=2)
        tier.run()
        with pytest.raises(RuntimeError, match="already ran"):
            tier.run()
        with pytest.raises(RuntimeError, match="already ran"):
            tier.register(
                TierJob("late", _landed(), _dl_config(), epochs=[["p"]])
            )

    def test_no_jobs_raises(self):
        with pytest.raises(ValueError, match="no jobs"):
            SharedReaderTier(2).run()

    def test_open_loop_equals_run(self):
        """start/step/finish is exactly run(), decomposed."""
        closed = self._tier(num_jobs=3, width=2).run()
        tier = self._tier(num_jobs=3, width=2)
        tier.start()
        while tier.step():
            pass
        opened = tier.finish()
        assert opened.as_rows() == closed.as_rows()

    def test_open_loop_guards(self):
        tier = self._tier(num_jobs=2, width=2)
        with pytest.raises(RuntimeError, match="open scheduling loop"):
            tier.step()
        with pytest.raises(RuntimeError, match="open scheduling loop"):
            tier.finish()
        tier.start()
        with pytest.raises(RuntimeError, match="already ran"):
            tier.start()
        tier.finish()
        with pytest.raises(RuntimeError, match="open scheduling loop"):
            tier.step()
        with pytest.raises(RuntimeError, match="open scheduling loop"):
            tier.finish()

    def test_autoscale_keeps_fairness_floor(self):
        """An autoscaled tier never shrinks below ceil(jobs / 2), so
        the one-round starvation bound survives pool resizing."""
        tier = self._tier(
            num_jobs=4, width=4, scaling=ScalingSpec(max_readers=8)
        )
        report = tier.run()
        assert report.scaling is not None
        assert all(w >= 2 for w in report.widths)
        for d in report.scaling.decisions:
            assert d.width_after >= 2


class TestChurn:
    """Preemption and re-admission: names free up, progress is
    recorded, and a re-admitted job enters with strict next-round
    priority — the one-round starvation bound survives churn."""

    def _job(self, name: str, table) -> TierJob:
        return TierJob(
            name,
            table,
            _dl_config(),
            epochs=[["p"], ["p"]],
            max_batches=2,
            executor="inprocess",
        )

    def _open_tier(self, names, width: int):
        tier = SharedReaderTier(width, policy="round_robin")
        table = _landed()
        for name in names:
            tier.register(self._job(name, table))
        tier.start()
        return tier, table

    def test_preempt_frees_name_and_records_progress(self):
        tier, table = self._open_tier(["a", "b"], width=2)
        assert tier.step()
        assert tier.epochs_completed("a") == 1
        assert tier.preempt("a") == 1
        with pytest.raises(KeyError, match="no registered job named 'a'"):
            tier.epochs_completed("a")
        # The name is free again: a successor can take it mid-run.
        tier.register(self._job("a", table))
        assert tier.epochs_completed("a") == 0
        while tier.step():
            pass
        report = tier.finish()
        assert len(report.job_rounds("b")) == 2

    def test_preempt_unknown_job_raises(self):
        tier, _ = self._open_tier(["a"], width=2)
        with pytest.raises(KeyError, match="cannot preempt unknown job"):
            tier.preempt("ghost")
        tier.finish()
        with pytest.raises(RuntimeError, match="nothing left to preempt"):
            tier.preempt("a")

    def test_readmitted_job_gets_strict_next_round_priority(self):
        """An oversubscribed pool: the re-admitted job must be among
        the very next round's scheduled set, whatever the rotation."""
        tier, table = self._open_tier(["a", "b", "c"], width=2)
        assert tier.step()  # round 0: two scheduled, one skipped
        tier.preempt("c")
        tier.register(self._job("c", table))
        assert tier.step().allocation["c"] >= 1
        while tier.step():
            pass
        tier.finish()

    def test_mid_run_admission_respects_the_cap(self):
        tier, table = self._open_tier(["a", "b"], width=1)
        assert tier.step()
        with pytest.raises(ValueError, match="admission refused"):
            tier.register(self._job("c", table))
        # Preempting a job frees its admission slot for the newcomer.
        tier.preempt("b")
        tier.register(self._job("c", table))
        while tier.step():
            pass
        report = tier.finish()
        assert len(report.job_rounds("c")) == 2


class TestFairnessRegressions:
    """The schedules that broke the one-round bound: the floor must hold
    after a mid-run admission, a gated round must not cost a skipped job
    its priority, and a shrink must not strand a starved job."""

    def _job(self, name: str, table, epochs: int, **kw) -> TierJob:
        return TierJob(
            name,
            table,
            _dl_config(),
            epochs=[["p"]] * epochs,
            max_batches=2,
            executor="inprocess",
            **kw,
        )

    def test_floor_applies_after_mid_run_admission(self):
        """2 trainer-bound jobs shrink a 2-wide pool to 1 after two
        rounds; a third job then lifts the floor to 2, so no job is
        skipped twice."""

        def trainer_bound(epoch, batches):
            for _ in batches:
                pass
            return 100.0

        table = _landed()
        tier = SharedReaderTier(2, scaling=ScalingSpec(max_readers=2))
        for name in ("a", "b"):
            tier.register(self._job(name, table, 8, consume=trainer_bound))
        tier.start()
        assert tier.step() and tier.step()
        tier.register(self._job("c", table, 8, consume=trainer_bound))
        while tier.step():
            pass
        report = tier.finish()
        assert report.scaling.decisions[1].action == "shrink"
        for name in "abc":
            assert report.max_consecutive_skips(name) <= 1
        assert report.widths == [2] * len(report.rounds)
        # each decision starts from the width its round ran at
        for d in report.scaling.decisions:
            assert d.width_before == report.widths[d.epoch]

    def test_shrink_keeps_every_starved_job_served(self):
        """Two jobs skipped on a 2-wide pool, a third boosted after it
        grew to 3, all gated while it shrinks back to 2: the next round
        still serves all three."""
        state = TierState(2, "round_robin")
        for name in "abcd":
            state = admit(state, name)
        decision, state = plan_round(state, list("abcd"))
        assert decision.skipped == ("c", "d")
        state = remove(settle(state, [], 3), "a")
        state = admit(state, "e", mid_run=True)
        assert state.starved == {"c", "d", "e"}
        decision, state = plan_round(state, ["b"])
        decision, state = plan_round(settle(state, [], 2), list("cde"))
        assert decision.skipped == ()
        assert decision.width == 3

    @pytest.mark.parametrize("policy", ["round_robin", "stall_weighted"])
    def test_gated_job_keeps_starved_priority(self, policy):
        """b is skipped in round 0 and gated in round 1: it still leads
        round 2."""
        table = _landed()
        tier = SharedReaderTier(1, policy=policy)
        tier.register(self._job("a", table, 3))
        tier.register(
            self._job("b", table, 3, ready=lambda _: tier.round_index != 1)
        )
        report = tier.run()
        assert report.max_consecutive_skips("b") == 1
        assert report.rounds[0].skipped == ["b"]
        assert report.rounds[1].allocation == {"a": 1}
        assert report.rounds[2].allocation == {"a": 0, "b": 1}
