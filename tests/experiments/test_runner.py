"""The driver: executing grids into the store and resume-on-rerun."""

import pytest

from repro.experiments import (
    RunStore,
    expand_grid,
    get_profile,
    run_grid,
    run_point,
)
from repro.experiments.grid import GridSpec

# deliberately tiny: two points, inprocess, quarter scale
TINY_GRID = GridSpec(
    name="tiny",
    base={
        "workload.scale": 0.25,
        "data.num_sessions": 60,
        "reader.executor": "inprocess",
        "train.train_batches": 2,
    },
    axes={"toggles": ["baseline", "recd"]},
)

ENV = {"python": "test"}


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs.sqlite")


def test_run_point_records_full_provenance(store):
    point = expand_grid(TINY_GRID)[0]
    record = run_point(point, store, profile="smoke", env=ENV)
    assert store.has(point.run_id)
    assert record.spec == dict(point.values)
    assert record.env == ENV
    assert record.profile == "smoke"
    assert record.kind == "grid"
    assert record.created_at  # stamped
    assert record.losses  # loss trajectory captured
    for name in (
        "trainer_qps",
        "reader_qps",
        "storage_compression",
        "goodput_batches_per_second",
    ):
        assert record.metrics[name] > 0
    for name in ("tier", "slo", "training"):
        assert name in record.reports


def test_scaling_trace_is_stored_once(store):
    """An autoscaled run stores its trace in the tier report only."""
    grid = GridSpec("scaled", TINY_GRID.base, {"scaling.target_stall": [0.1]})
    point = expand_grid(grid)[0]
    record = run_point(point, store, env=ENV)
    assert "scaling" not in record.reports
    assert record.reports["tier"]["scaling"]["decisions"]


def test_run_grid_executes_every_point(store):
    outcome = run_grid(TINY_GRID, store, env=ENV)
    points = expand_grid(TINY_GRID)
    assert outcome.executed == [p.run_id for p in points]
    assert outcome.skipped == []
    assert len(outcome.records) == len(points)


def test_rerun_skips_everything_already_in_store(store):
    first = run_grid(TINY_GRID, store, env=ENV)
    second = run_grid(TINY_GRID, store, env=ENV)
    assert second.executed == []
    assert second.skipped == first.executed
    # skipped points still surface their stored records, in order
    assert [r.run_id for r in second.records] == [
        r.run_id for r in first.records
    ]


def test_resume_false_forces_re_execution(store):
    run_grid(TINY_GRID, store, env=ENV)
    again = run_grid(TINY_GRID, store, env=ENV, resume=False)
    assert again.skipped == []
    assert len(again.executed) == 2


def test_partial_store_executes_only_the_missing_points(store):
    points = expand_grid(TINY_GRID)
    run_point(points[0], store, env=ENV)
    outcome = run_grid(TINY_GRID, store, env=ENV)
    assert outcome.skipped == [points[0].run_id]
    assert outcome.executed == [points[1].run_id]


def test_progress_lines_distinguish_run_from_skip(store):
    lines = []
    run_grid(TINY_GRID, store, env=ENV, progress=lines.append)
    run_grid(TINY_GRID, store, env=ENV, progress=lines.append)
    assert sum(line.startswith("run") for line in lines) == 2
    assert sum(line.startswith("skip") for line in lines) == 2


def test_smoke_profile_grids_expand_to_advertised_count():
    profile = get_profile("smoke")
    assert profile.num_runs == sum(
        len(expand_grid(g)) for g in profile.grids
    )


def test_unknown_profile_raises():
    with pytest.raises(KeyError):
        get_profile("warp")
