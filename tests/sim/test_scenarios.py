"""Scenario acceptance tests: bit-identity, replay, the catalog.

The ``crash-resume`` scenario is the tier-1 acceptance criterion — a
seeded run with a worker crash, a straggling shard, and a
preempt/checkpoint/resume cycle whose stitched per-job losses must be
**bit-identical** to an uninterrupted run, and whose replay must
reproduce the identical fingerprint.  The full-catalog sweep is marked
``chaos`` and runs in the opt-in tier.
"""

import hashlib
import json

import pytest

from repro.pipeline import Session
from repro.sim import (
    CrashFault,
    FaultPlan,
    Preemption,
    Scenario,
    StragglerFault,
    build_scenario,
    scenario_names,
)
from repro.sim.scenarios import _job
from repro.datagen.workloads import rm1

SEED = 3
SCALE = 0.2


def _adhoc(plan, *, width=2, **jobs) -> Scenario:
    """An ad-hoc plan over the named jobs, as a scenario."""
    jobs = tuple(jobs.items())
    return Scenario("adhoc", "an ad-hoc plan", jobs, plan, width=width)


@pytest.fixture(scope="module")
def crash_resume():
    """One crash-resume run, its clean baseline, and a seeded replay."""
    scenario = build_scenario("crash-resume", seed=SEED, scale=SCALE)
    result = scenario.run()
    baseline = scenario.baseline()
    replay = scenario.run()
    return scenario, result, baseline, replay


class TestCrashResumeAcceptance:
    def test_losses_bit_identical_to_clean_run(self, crash_resume):
        scenario, result, baseline, _ = crash_resume
        assert sorted(result.losses) == sorted(baseline)
        for name, spec in scenario.jobs:
            expected_losses = spec.train.train_epochs * spec.train.train_batches
            assert len(result.losses[name]) == expected_losses
            # The criterion: float-for-float equality, not approx.
            assert result.losses[name] == baseline[name]

    def test_replay_reproduces_identical_fingerprint(self, crash_resume):
        _, result, _, replay = crash_resume
        assert replay.fingerprint() == result.fingerprint()

    def test_trace_records_every_fault_kind(self, crash_resume):
        _, result, _, _ = crash_resume
        events = [ev["event"] for ev in result.trace]
        assert "fleet_faults" in events
        assert "preempt" in events
        assert "resume" in events
        preempt = next(ev for ev in result.trace if ev["event"] == "preempt")
        resume = next(ev for ev in result.trace if ev["event"] == "resume")
        assert preempt["job"] == resume["job"] == "alpha"
        assert resume["start_epoch"] == preempt["epochs_done"] > 0
        assert resume["round"] >= preempt["resume_round"]

    def test_slo_counts_the_injected_faults(self, crash_resume):
        _, result, _, _ = crash_resume
        slo = result.slo
        assert slo.crashes == 1
        assert slo.straggler_shards == 1
        assert slo.preemptions == 1
        assert slo.wasted_cpu_seconds > 0.0
        assert 0.0 < slo.useful_cpu_fraction < 1.0
        assert {j.job for j in slo.jobs} == {"alpha", "beta"}
        # The preempted job paid queue time while descheduled.
        alpha = next(j for j in slo.jobs if j.job == "alpha")
        assert alpha.queue_fraction > 0.0
        assert slo.p99_wall_seconds >= slo.p50_wall_seconds > 0.0


@pytest.fixture(scope="module")
def dedup_crash_resume():
    """One dedup-streaming crash-resume run, its clean dedup baseline,
    and a seeded replay."""
    scenario = build_scenario("dedup-crash-resume", seed=SEED, scale=SCALE)
    result = scenario.run()
    baseline = scenario.baseline()
    replay = scenario.run()
    return scenario, result, baseline, replay


class TestDedupCrashResumeAcceptance:
    """Satellite: crash+resume with the dedup hot path enabled must be
    as bit-reproducible as the non-dedup scenario."""

    def test_every_job_streams_dedup(self, dedup_crash_resume):
        scenario, _, _, _ = dedup_crash_resume
        assert all(spec.reader.dedup for _, spec in scenario.jobs)

    def test_losses_bit_identical_to_uninterrupted_dedup_run(
        self, dedup_crash_resume
    ):
        scenario, result, baseline, _ = dedup_crash_resume
        assert sorted(result.losses) == sorted(baseline)
        for name, spec in scenario.jobs:
            expected = spec.train.train_epochs * spec.train.train_batches
            assert len(result.losses[name]) == expected
            # Float-for-float equality, not approx.
            assert result.losses[name] == baseline[name]

    def test_replay_reproduces_identical_fingerprint(
        self, dedup_crash_resume
    ):
        _, result, _, replay = dedup_crash_resume
        assert replay.fingerprint() == result.fingerprint()

    def test_preempt_resume_cycle_fired(self, dedup_crash_resume):
        _, result, _, _ = dedup_crash_resume
        events = [ev["event"] for ev in result.trace]
        assert "fleet_faults" in events
        assert "preempt" in events
        assert "resume" in events

    def test_cli_verify_passes(self):
        from repro.cli import main

        assert main(
            [
                "simulate",
                "--scenario",
                "dedup-crash-resume",
                "--seed",
                str(SEED),
                "--scale",
                str(SCALE),
                "--verify",
            ]
        ) == 0


@pytest.fixture(scope="module")
def stream_crash_resume():
    """One live-landing crash-resume run, its land-everything-first
    baseline, and a seeded replay."""
    scenario = build_scenario("stream-crash-resume", seed=SEED, scale=SCALE)
    result = scenario.run()
    baseline = scenario.baseline()
    replay = scenario.run()
    return scenario, result, baseline, replay


class TestStreamCrashResumeAcceptance:
    """Tentpole acceptance: micro-partitions landing on the live clock
    while a crash, a straggler, and a preempt/resume hit the tier must
    leave every loss trajectory bit-identical to a run whose whole
    stream was on disk before round one."""

    def test_every_job_streams(self, stream_crash_resume):
        scenario, _, _, _ = stream_crash_resume
        assert all(spec.stream is not None for _, spec in scenario.jobs)
        assert scenario.freshness_slo is not None

    def test_losses_bit_identical_to_land_first_baseline(
        self, stream_crash_resume
    ):
        _, result, baseline, _ = stream_crash_resume
        assert sorted(result.losses) == sorted(baseline)
        for name, losses in result.losses.items():
            assert losses  # every streamed job actually trained
            # The criterion: float-for-float equality, not approx.
            assert losses == baseline[name]

    def test_replay_reproduces_identical_fingerprint(
        self, stream_crash_resume
    ):
        _, result, _, replay = stream_crash_resume
        assert replay.fingerprint() == result.fingerprint()

    def test_every_fault_kind_fired(self, stream_crash_resume):
        _, result, _, _ = stream_crash_resume
        events = [ev["event"] for ev in result.trace]
        assert "fleet_faults" in events
        assert "preempt" in events
        assert "resume" in events

    def test_slo_reports_freshness(self, stream_crash_resume):
        _, result, _, _ = stream_crash_resume
        slo = result.slo
        assert slo.freshness.batches > 0
        assert (
            0.0
            < slo.freshness_p50_seconds
            <= slo.freshness_p99_seconds
            <= slo.freshness.max_lag_seconds
        )
        assert slo.freshness.as_dict() == result.slo.as_dict()["freshness"]

    def test_cli_verify_passes(self):
        from repro.cli import main

        assert main(
            [
                "simulate",
                "--scenario",
                "stream-crash-resume",
                "--seed",
                str(SEED),
                "--scale",
                str(SCALE),
                "--verify",
            ]
        ) == 0


#: sha256 of the stream-crash-resume fingerprint (canonical JSON) at
#: SEED/SCALE.  Losses, SLO scoreboard, and fault trace are a pure
#: function of the seed, so any change to how the drive loop sequences
#: landing, rounds, and clock jumps that moves one bit shows up here.
STREAM_CRASH_RESUME_DIGEST = (
    "e9b3ef5507db2659fb5135ab711a224c7f531a4523025cfe955373411b13393d"
)
#: the same for ``churn``, the one scenario where an arrival, a
#: preempt/resume and fleet faults all fire: it pins the order a tick
#: applies a round's events in (arrivals, resumes, preemptions).
CHURN_DIGEST = (
    "28d82eb73025581ff2193e3605e82dee6e2512051e98d6e7c3281016ed07e071"
)


class TestOneDriveLoop:
    """A scenario and the clean ``Session.run()`` run the same
    iteration method; the plan is played inside it."""

    @pytest.mark.parametrize(
        "name, pinned",
        [
            ("stream-crash-resume", STREAM_CRASH_RESUME_DIGEST),
            ("churn", CHURN_DIGEST),
        ],
    )
    def test_scenario_and_drive_share_the_tick(
        self, monkeypatch, name, pinned
    ):
        ticks: list[bool] = []
        real_tick = Session.tick

        def spy(session) -> bool:
            ticks.append(real_tick(session))
            return ticks[-1]

        monkeypatch.setattr(Session, "tick", spy)
        scenario = build_scenario(name, seed=SEED, scale=SCALE)

        spied = scenario.run()
        # every round the scenario scheduled went through tick(); the
        # surplus True ticks are idle clock jumps to the next landing
        assert ticks.count(True) >= len(spied.tier.rounds)
        assert ticks[-1] is False
        digest = hashlib.sha256(
            json.dumps(spied.fingerprint(), sort_keys=True).encode()
        ).hexdigest()
        assert digest == pinned

        ticks.clear()
        clean = Session(
            [spec for _, spec in scenario.jobs],
            width=scenario.width,
            names=[name for name, _ in scenario.jobs],
        ).run()
        assert ticks.count(True) >= len(clean.tier.rounds)
        assert ticks[-1] is False
        for job in clean.jobs:
            assert job.training.losses == spied.losses[job.name]


class TestCatalog:
    def test_names_are_sorted_and_complete(self):
        assert scenario_names() == [
            "burst",
            "churn",
            "crash-resume",
            "dedup-crash-resume",
            "stragglers",
            "stream-crash-resume",
            "wide-crash-resume",
        ]

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            build_scenario("nope")

    def test_same_seed_same_scenario(self):
        a = build_scenario("churn", seed=5)
        b = build_scenario("churn", seed=5)
        assert a.plan == b.plan
        assert [name for name, _ in a.jobs] == [name for name, _ in b.jobs]


class TestScenarioGuards:
    def test_arrival_name_collision_rejected(self):
        from repro.sim import Arrival

        spec = _job(rm1(scale=0.1), seed=1, epochs=2, sessions=30)
        plan = FaultPlan(arrivals=(Arrival(round=1, name="alpha", spec=spec),))
        with pytest.raises(ValueError, match="collide with initial jobs"):
            _adhoc(plan, alpha=spec).run()

    def test_arrival_spec_checked_before_the_run(self):
        from repro.sim import Arrival

        spec = _job(rm1(scale=0.1), seed=1, epochs=2, sessions=30)
        plan = FaultPlan(
            arrivals=(Arrival(round=2, name="late", spec={"epochs": 2}),)
        )
        with pytest.raises(
            TypeError, match="arrival 'late' spec must be a JobSpec, got dict"
        ):
            _adhoc(plan, alpha=spec).run()

    @pytest.mark.parametrize(
        "preemptions, fired",
        [
            pytest.param(
                (Preemption(round=1, job="ghost"),), [], id="unknown-job"
            ),
            # a (2 epochs) is done after round 1; b (4 epochs) runs on
            pytest.param(
                (Preemption(round=3, job="a"),), [], id="already-finished"
            ),
            pytest.param(
                (
                    Preemption(round=1, job="a", resume_after=2),
                    Preemption(round=2, job="a"),
                ),
                [(1, "preempt", "a"), (3, "resume", "a")],
                id="descheduled",
            ),
            pytest.param(
                (Preemption(round=99, job="b"),), [], id="past-the-end"
            ),
        ],
    )
    def test_spent_preemptions_are_ignored(self, preemptions, fired):
        a = _job(rm1(scale=0.1), seed=1, epochs=2, sessions=30)
        b = _job(rm1(scale=0.1), seed=2, epochs=4, sessions=30)
        scenario = _adhoc(FaultPlan(preemptions=preemptions), a=a, b=b)
        result = scenario.run()
        trace = [(ev["round"], ev["event"], ev["job"]) for ev in result.trace]
        assert trace == fired
        assert result.slo.preemptions == sum(
            event == "preempt" for _, event, _ in fired
        )
        assert result.losses == scenario.baseline()

    def test_preempted_twice_first_before_it_trains(self):
        """The session names a job's snapshot after the job and counts
        its epochs across registrations: a preemption at round 0 saves
        an untrained model and resumes at epoch 0, and a second one
        resumes where the first resumed registration stopped."""
        a = _job(rm1(scale=0.1), seed=1, epochs=4, sessions=30)
        b = _job(rm1(scale=0.1), seed=2, epochs=4, sessions=30)
        plan = FaultPlan(
            preemptions=(
                Preemption(round=0, job="a", resume_after=1),
                Preemption(round=3, job="a", resume_after=1),
            )
        )
        scenario = _adhoc(plan, a=a, b=b)
        result = scenario.run()
        trace = [(ev["round"], ev["event"], ev["job"]) for ev in result.trace]
        assert trace == [
            (0, "preempt", "a"),
            (1, "resume", "a"),
            (3, "preempt", "a"),
            (4, "resume", "a"),
        ]
        epochs = [
            ev.get("epochs_done", ev.get("start_epoch"))
            for ev in result.trace
        ]
        assert epochs == [0, 0, 2, 2]
        assert result.slo.preemptions == 2
        assert result.losses == scenario.baseline()


@pytest.mark.chaos
class TestWideCrashResume:
    """The width-64 scenario rides out the full fault shape
    bit-identically (the chaos-tier acceptance for the in-process
    executor at scale)."""

    @pytest.fixture(scope="class")
    def wide(self):
        scenario = build_scenario("wide-crash-resume", seed=SEED, scale=SCALE)
        result = scenario.run()
        baseline = scenario.baseline()
        replay = scenario.run()
        return scenario, result, baseline, replay

    def test_is_actually_wide(self, wide):
        scenario, _, _, _ = wide
        assert scenario.width == 64
        # per-epoch batch caps are lifted so the pool really fans out
        assert all(
            spec.train.train_batches is None for _, spec in scenario.jobs
        )

    def test_losses_bit_identical_to_uninterrupted_run(self, wide):
        _, result, baseline, _ = wide
        assert sorted(result.losses) == sorted(baseline)
        for name, losses in result.losses.items():
            assert losses  # the wide run must actually train
            # The criterion: float-for-float equality, not approx.
            assert losses == baseline[name]

    def test_replay_reproduces_identical_fingerprint(self, wide):
        _, result, _, replay = wide
        assert replay.fingerprint() == result.fingerprint()

    def test_every_fault_kind_fired(self, wide):
        _, result, _, _ = wide
        events = [ev["event"] for ev in result.trace]
        assert "fleet_faults" in events
        assert "preempt" in events
        assert "resume" in events
        assert result.slo.crashes == 1
        assert result.slo.straggler_shards == 1
        assert result.slo.preemptions == 1


@pytest.mark.chaos
@pytest.mark.parametrize("name", scenario_names())
def test_catalog_sweep_bit_identity_and_replay(name):
    """Every catalog scenario preserves bit-identity and replays."""
    scenario = build_scenario(name, seed=11, scale=SCALE)
    result = scenario.run()
    baseline = scenario.baseline()
    for job, losses in result.losses.items():
        assert losses == baseline[job], f"{name}: {job} diverged"
    replay = build_scenario(name, seed=11, scale=SCALE).run()
    assert replay.fingerprint() == result.fingerprint()
    # Fairness holds under every scenario's churn.
    for job in result.tier.jobs:
        assert result.tier.max_consecutive_skips(job) <= 1


class TestSoloJobFaults:
    def test_round_faults_hit_a_solo_job_epoch_by_epoch(self):
        """A solo job's tier runs one epoch per round, so a plan faults
        its epochs by round number — the only way to fault a job."""
        spec = _job(rm1(scale=0.1), seed=1, epochs=3, sessions=30)
        plan = FaultPlan(
            crashes=(CrashFault(round=1, job="solo"),),
            stragglers=(StragglerFault(round=2, job="solo"),),
        )
        scenario = _adhoc(plan, solo=spec)
        result = scenario.run()
        assert result.slo.crashes == 1
        assert result.slo.straggler_shards == 1
        assert [ev["round"] for ev in result.trace] == [1, 2]
        assert result.losses == scenario.baseline()
