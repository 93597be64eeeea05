"""The tier's one event log: the open-loop drive (``prepare`` →
``tier.run()`` → ``collect``) and ``Session.run`` log the same events,
and the tier report's rounds and scaling trace are folds over them."""

from dataclasses import replace

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    ScalingSpec,
    Session,
    TrainSpec,
)


def _session() -> Session:
    """Two reader-bound jobs on an autoscaled pool that starts at one
    reader each, so the first round grows it."""
    specs = [
        JobSpec(
            data=DataSpec(workload=rm1(scale=0.25), num_sessions=40, seed=seed),
            reader=ReaderSpec(executor="inprocess"),
            train=TrainSpec(batch_size=32, train_batches=2, train_epochs=3),
            name=name,
        )
        for name, seed in (("a", 1), ("b", 2))
    ]
    return Session(specs, width=2, scaling=ScalingSpec(max_readers=8))


def _logged(session: Session) -> list:
    """The session's tier log, with the measured clock erased."""
    return [replace(e, wall_s=0.0) for e in session.tier.events]


class TestOneEventLog:
    def test_open_loop_and_run_log_the_same_events(self):
        ran = _session()
        result = ran.run()
        open_loop = _session()
        open_loop.prepare().run()
        open_loop.collect()
        events = _logged(ran)
        assert events == _logged(open_loop)

        rounds = len(result.tier.rounds)
        assert rounds == 3
        assert [e.kind for e in events] == ["round", "scale"] * rounds
        assert [e.round for e in events] == [r for r in range(rounds) for _ in "rs"]
        assert result.tier.rounds == [
            e.fields["tier_round"] for e in events if e.kind == "round"
        ]
        decisions = [e.fields["decision"] for e in events if e.kind == "scale"]
        assert result.tier.scaling.decisions == decisions
        assert decisions[0].action == "grow"
        # each round starts on the modeled clock where the last ended
        starts = [e.modeled_s for e in events if e.kind == "round"]
        walls = [r.modeled_wall_seconds for r in result.tier.rounds]
        assert starts[0] == 0.0
        assert all(b > a for a, b in zip(starts, starts[1:]))
        assert starts[-1] + walls[-1] == open_loop.tier.clock

    def test_round_event_carries_the_allocation_inputs(self):
        session = _session()
        session.run()
        first, second = [e for e in session.tier.events if e.kind == "round"][:2]
        # round 0 is the cold start: nobody observed yet
        assert first.fields["demand"] == {"a": None, "b": None}
        assert first.fields["weights"] == {"a": 1.0, "b": 1.0}
        # round 1 allocates from round 0's reader CPU
        stats = {s.job: s for s in first.fields["tier_round"].stats}
        assert second.fields["demand"] == {
            name: s.reader_cpu_seconds for name, s in stats.items()
        }
        assert first.job is None and first.as_dict()["event"] == "round"

    def test_session_events_are_empty_before_prepare(self):
        session = _session()
        assert session.events == []
        session.prepare()
        assert session.events == []  # no plan: nothing to apply
        session.run()
        # a clean run logs only the tier's own events
        assert session.events == []
        assert session.tier.events
