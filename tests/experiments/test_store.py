"""RunStore round-trips, idempotent writes, and query semantics."""

import pytest

from repro.experiments import (
    RunRecord,
    RunStore,
    build_job_spec,
    expand_grid,
)
from repro.experiments.grid import GridSpec


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs.sqlite")


def _record(run_id="r1", **kwargs):
    kwargs.setdefault("experiment", "exp")
    kwargs.setdefault("label", "base")
    return RunRecord(run_id=run_id, **kwargs)


class TestRoundTrip:
    def test_full_record_survives_a_round_trip(self, store):
        rec = _record(
            profile="smoke",
            created_at="2026-08-08T00:00:00+00:00",
            spec={"workload.rm": "RM2", "data.seed": 3},
            env={"python": "3.12.0"},
            losses=(1.5, 1.25, 1.0),
            metrics={"trainer_qps": 123.5, "samples_landed": 10.0},
            reports={"tier": {"jobs": 1}},
            artifact="rendered text\n",
        )
        store.record(rec)
        assert store.get("r1") == rec

    def test_stored_spec_rebuilds_the_exact_job_spec(self, store):
        grid = GridSpec(
            name="g",
            base={"data.num_sessions": 40, "workload.scale": 0.25},
            axes={"workload.rm": ["RM2"], "toggles": ["recd"]},
        )
        point = expand_grid(grid)[0]
        store.record(
            _record(run_id=point.run_id, spec=dict(point.values))
        )
        stored = store.get(point.run_id)
        assert build_job_spec(stored.spec) == point.job_spec()

    def test_record_is_idempotent_and_replaces(self, store):
        store.record(_record(metrics={"trainer_qps": 1.0}))
        store.record(_record(metrics={"reader_qps": 2.0}))
        rec = store.get("r1")
        # old metrics gone, not merged
        assert rec.metrics == {"reader_qps": 2.0}
        assert len(store.query()) == 1

    def test_get_unknown_id_raises_key_error(self, store):
        with pytest.raises(KeyError):
            store.get("nope")

    def test_delete_removes_run_and_metrics(self, store):
        store.record(_record(metrics={"trainer_qps": 1.0}))
        store.delete("r1")
        assert not store.has("r1")
        assert store.metric("trainer_qps") == {}


class TestQueries:
    def test_has(self, store):
        assert not store.has("r1")
        store.record(_record())
        assert store.has("r1")

    def test_query_filters_compose(self, store):
        store.record(
            _record("a", experiment="e1", label="x", profile="smoke")
        )
        store.record(
            _record("b", experiment="e1", label="y", profile="paper")
        )
        store.record(
            _record("c", experiment="e2", label="x", kind="bench")
        )
        assert {r.run_id for r in store.query(experiment="e1")} == {
            "a",
            "b",
        }
        assert [r.run_id for r in store.query(profile="smoke")] == ["a"]
        assert [r.run_id for r in store.query(kind="bench")] == ["c"]
        assert [
            r.run_id
            for r in store.query(experiment="e1", label="y")
        ] == ["b"]

    def test_latest_returns_most_recent_record(self, store):
        store.record(
            _record("a", created_at="2026-01-01T00:00:00+00:00")
        )
        store.record(
            _record("b", created_at="2026-01-02T00:00:00+00:00")
        )
        assert store.latest("exp", "base").run_id == "b"

    def test_latest_raises_on_no_match(self, store):
        with pytest.raises(KeyError):
            store.latest("exp", "base")

    def test_metric_across_runs(self, store):
        store.record(_record("a", metrics={"trainer_qps": 1.0}))
        store.record(
            _record(
                "b", experiment="other", metrics={"trainer_qps": 2.0}
            )
        )
        assert store.metric("trainer_qps") == {"a": 1.0, "b": 2.0}
        assert store.metric("trainer_qps", experiment="other") == {
            "b": 2.0
        }


class TestRecordValidation:
    def test_empty_run_id_rejected(self):
        with pytest.raises(ValueError, match="run_id"):
            RunRecord(run_id="", experiment="e", label="l")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            _record(kind="other")

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(ValueError, match="number"):
            _record(metrics={"trainer_qps": "fast"})

    def test_bool_metric_rejected(self):
        with pytest.raises(ValueError, match="number"):
            _record(metrics={"ok": True})
