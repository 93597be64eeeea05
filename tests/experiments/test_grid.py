"""Grid expansion: determinism, matrix semantics, spec building."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import GridSpec, build_job_spec, expand_grid
from repro.experiments.grid import canonical_json, run_id_for
from repro.pipeline import JobSpec


def _grid(**kwargs) -> GridSpec:
    kwargs.setdefault("name", "g")
    return GridSpec(**kwargs)


class TestExpansion:
    def test_product_covers_every_combination(self):
        points = expand_grid(
            _grid(
                axes={
                    "workload.rm": ["RM1", "RM2"],
                    "reader.num_readers": [1, 2, 4],
                }
            )
        )
        assert len(points) == 6
        combos = {
            (p.values["workload.rm"], p.values["reader.num_readers"])
            for p in points
        }
        assert combos == {
            (rm, n) for rm in ("RM1", "RM2") for n in (1, 2, 4)
        }

    def test_base_values_shared_by_every_point(self):
        points = expand_grid(
            _grid(
                base={"data.seed": 7},
                axes={"workload.rm": ["RM1", "RM2"]},
            )
        )
        assert all(p.values["data.seed"] == 7 for p in points)

    def test_expansion_is_deterministic(self):
        grid = _grid(
            base={"data.num_sessions": 50},
            axes={
                "workload.rm": ["RM1", "RM2"],
                "toggles": ["baseline", "recd"],
            },
        )
        a = expand_grid(grid)
        b = expand_grid(grid)
        assert [p.run_id for p in a] == [p.run_id for p in b]
        assert [p.label for p in a] == [p.label for p in b]

    def test_run_id_depends_on_experiment_name(self):
        values = {"workload.rm": "RM1"}
        assert run_id_for("a", values) != run_id_for("b", values)

    def test_run_id_is_order_insensitive(self):
        assert run_id_for(
            "g", {"a.seed": 1, "workload.rm": "RM1"}
        ) == run_id_for("g", {"workload.rm": "RM1", "a.seed": 1})

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_include_appends_extra_points(self):
        points = expand_grid(
            _grid(
                axes={"workload.rm": ["RM1"]},
                include=({"workload.rm": "RM3", "data.seed": 9},),
            )
        )
        assert len(points) == 2
        assert points[-1].values["workload.rm"] == "RM3"

    def test_include_only_grid_emits_no_base_point(self):
        points = expand_grid(
            _grid(
                base={"data.seed": 1},
                include=({"label": "a"}, {"label": "b"}),
            )
        )
        assert [p.label for p in points] == ["a", "b"]

    def test_duplicate_points_deduplicated_by_run_id(self):
        points = expand_grid(
            _grid(
                axes={"workload.rm": ["RM1"]},
                include=({"workload.rm": "RM1"},),
            )
        )
        assert len(points) == 1

    def test_labels_use_axis_leaf_names(self):
        points = expand_grid(
            _grid(axes={"reader.num_readers": [4]})
        )
        assert points[0].label == "num_readers=4"

    def test_explicit_label_wins(self):
        points = expand_grid(
            _grid(include=({"label": "stage-1", "toggles": "recd"},))
        )
        assert points[0].label == "stage-1"

    @given(
        n_rm=st.integers(min_value=1, max_value=3),
        n_readers=st.integers(min_value=1, max_value=4),
        n_seeds=st.integers(min_value=1, max_value=3),
    )
    def test_product_count_is_axis_product(
        self, n_rm, n_readers, n_seeds
    ):
        grid = _grid(
            axes={
                "workload.rm": ["RM1", "RM2", "RM3"][:n_rm],
                "reader.num_readers": [1, 2, 4, 8][:n_readers],
                "data.seed": list(range(n_seeds)),
            }
        )
        points = expand_grid(grid)
        assert len(points) == n_rm * n_readers * n_seeds
        # content-addressing: every point distinct
        assert len({p.run_id for p in points}) == len(points)


class TestValidation:
    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown spec path"):
            _grid(base={"data.bogus": 1})

    def test_direct_workload_path_redirected(self):
        with pytest.raises(ValueError, match="workload.rm"):
            _grid(base={"data.workload": "RM1"})

    def test_non_json_value_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            _grid(base={"data.seed": object()})

    def test_unknown_include_path_rejected(self):
        with pytest.raises(ValueError, match=r"\.include.*unknown spec path"):
            _grid(include=({"data.bogus": 1},))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match=">= 1 value"):
            _grid(axes={"data.seed": []})

    def test_string_axis_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            _grid(axes={"workload.rm": "RM1"})

    def test_unknown_workload_rejected_at_build(self):
        with pytest.raises(ValueError, match="workload.rm"):
            build_job_spec({"workload.rm": "RM9"})


class TestBuildJobSpec:
    def test_defaults(self):
        spec = build_job_spec({})
        assert isinstance(spec, JobSpec)
        assert spec.data.workload.name == "RM1"
        assert spec.scaling is None
        assert spec.stream is None

    def test_same_values_build_equal_specs(self):
        values = {
            "workload.rm": "RM2",
            "workload.scale": 0.25,
            "toggles": "recd",
            "data.num_sessions": 80,
            "reader.num_readers": 4,
            "train.train_batches": 3,
        }
        assert build_job_spec(values) == build_job_spec(values)

    def test_dotted_paths_land_on_their_sections(self):
        spec = build_job_spec(
            {
                "data.num_sessions": 99,
                "reader.num_readers": 3,
                "train.num_gpus": 16,
                "weight": 2.0,
            }
        )
        assert spec.data.num_sessions == 99
        assert spec.reader.num_readers == 3
        assert spec.train.num_gpus == 16
        assert spec.weight == 2.0

    def test_optional_sections_materialize_only_when_touched(self):
        spec = build_job_spec({"scaling.target_stall": 0.2})
        assert spec.scaling is not None
        assert spec.scaling.target_stall == 0.2
        assert spec.retention is None

    def test_toggle_dict_builds_partial_toggles(self):
        spec = build_job_spec(
            {
                "toggles": {
                    "o1_shard_by_session": True,
                    "o2_cluster_table": True,
                }
            }
        )
        assert spec.data.toggles.o1_shard_by_session
        assert not spec.data.toggles.o3_ikjt

    @pytest.mark.parametrize(
        "point", [{"faults.lost_fraction": 0.5}, {"checkpoint.save_as": "x"}]
    )
    def test_faults_and_checkpoint_are_not_point_paths(self, point):
        """Faults are FaultPlan events and resume state belongs to the
        session that preempted a job: neither section is a spec path."""
        with pytest.raises(ValueError, match="unknown spec path"):
            build_job_spec(point)

    def test_label_never_reaches_the_spec(self):
        assert build_job_spec({"label": "x"}) == build_job_spec({})

    def test_transform_lists_become_tuples(self):
        spec = build_job_spec({"data.transforms": ["hash_modulo"]})
        assert spec.data.transforms == ("hash_modulo",)
