"""``Session`` boundary tests: the result shape follows the input
shape, names come from the specs, and anything that is not a
``JobSpec`` is refused at the door with a message naming the offender."""

import pytest

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    Session,
    TrainSpec,
)

WORKLOAD = rm1(scale=0.25)


def _spec(seed: int = 3, name: str | None = None) -> JobSpec:
    return JobSpec(
        data=DataSpec(workload=WORKLOAD, num_sessions=60, seed=seed),
        reader=ReaderSpec(executor="inprocess"),
        train=TrainSpec(batch_size=32, train_batches=2),
        name=name,
    )


class TestMultiJobEquivalence:
    def test_named_specs_carry_their_own_names(self):
        specs = [_spec(seed=1, name="alpha"), _spec(seed=2, name="beta")]
        res = Session(specs, width=4).run()
        assert [j.name for j in res.jobs] == ["alpha", "beta"]
        assert res.job("beta").spec is specs[1]

    def test_single_spec_list_returns_multi_result(self):
        """The result shape follows the input shape: a one-element list
        is still a multi-job session."""
        res = Session([_spec()], width=2).run()
        assert res.jobs[0].name == "job0"
        assert res.tier.policy == "stall_weighted"

    def test_multi_needs_explicit_width(self):
        with pytest.raises(ValueError, match="width"):
            Session([_spec(seed=1), _spec(seed=2)])


class TestInputBoundary:
    """Only ``JobSpec``s cross into the engine; the ``TypeError`` names
    the offending type and where it sat."""

    def test_single_non_spec_is_named(self):
        with pytest.raises(TypeError) as err:
            Session(42)
        assert str(err.value) == "Session jobs[0] must be a JobSpec, got int"

    def test_list_element_is_named_with_its_position(self):
        with pytest.raises(TypeError) as err:
            Session([_spec(), {"workload": WORKLOAD}], width=2)
        assert str(err.value) == (
            "Session jobs[1] must be a JobSpec, got dict"
        )

    def test_admit_refuses_non_spec(self):
        session = Session([_spec()], width=2)
        session.prepare()
        with pytest.raises(TypeError) as err:
            session.admit(("RM1", "recd"), "late")
        assert str(err.value) == (
            "Session.admit spec for job 'late' must be a JobSpec, "
            "got tuple"
        )


class TestOneDriveLoop:
    """``Session.run()`` drives every session — static or streamed —
    through ``Session.tick()``; for fully landed jobs a tick is exactly
    one tier round."""

    def _specs(self):
        return [_spec(seed=1, name="alpha"), _spec(seed=2, name="beta")]

    def test_run_equals_prepare_tier_run_collect(self):
        """The open-coded sequence (what the stopwatch's traced pass
        uses) and the closed loop schedule a static session alike."""
        closed = Session(self._specs(), width=3).run()
        session = Session(self._specs(), width=3)
        tier = session.prepare()
        tier.run()
        opened = session.collect()
        assert closed.tier.as_dict() == opened.tier.as_dict()
        for name in ("alpha", "beta"):
            assert (
                closed.job(name).training.losses
                == opened.job(name).training.losses
            )

    def test_run_after_prepare_prepares_nothing_twice(self):
        session = Session(self._specs(), width=3)
        tier = session.prepare()
        res = session.run()
        assert session.tier is tier
        assert res.tier is tier.report

    def test_second_run_raises(self):
        session = Session(_spec())
        session.run()
        with pytest.raises(RuntimeError, match="already ran"):
            session.run()

    def test_tick_needs_a_prepared_session(self):
        with pytest.raises(RuntimeError, match="not prepared"):
            Session(_spec()).tick()
