"""Spec-surface tests: composed-spec validation (every error names its
spec and field) and the values a ``JobSpec`` derives from its parts."""

import pytest

from repro.cli import main
from repro.datagen import rm1
from repro.experiments import build_job_spec
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    RetentionSpec,
    ScalingSpec,
    StreamSpec,
    TrainSpec,
)
from repro.pipeline.session import build_trainer
from repro.reader import DataLoaderConfig, ReaderFleet
from repro.reader.fleet import _PREFETCH_DEPTH
from repro.reader.tier_scheduler import TierJob


@pytest.fixture(scope="module")
def workload():
    return rm1(scale=0.25)


def _spec(workload, **kw) -> JobSpec:
    kw.setdefault("data", DataSpec(workload=workload))
    return JobSpec(**kw)


#: every numeric field a spec checks for a positive (or, for the
#: landing latency, non-negative) value: NaN and infinity must fail it
#: too, or a modeled clock is left undefined
_NUMERIC_FIELDS = [
    (DataSpec, "num_sessions"),
    (DataSpec, "mean_samples_per_session"),
    (DataSpec, "num_partitions"),
    (ReaderSpec, "num_readers"),
    (TrainSpec, "train_epochs"),
    (TrainSpec, "train_batches"),
    (TrainSpec, "batch_size"),
    (TrainSpec, "num_gpus"),
    (TrainSpec, "gpus_per_node"),
    (TrainSpec, "max_table_rows"),
    (RetentionSpec, "window"),
    (StreamSpec, "interval_seconds"),
    (StreamSpec, "land_latency_seconds"),
    (StreamSpec, "rows_per_file"),
]


def _with(cls, name, value):
    """A builder of ``cls`` with one field set (``DataSpec`` also takes
    the workload)."""
    if cls is DataSpec:
        return lambda w: DataSpec(w, **{name: value})
    return lambda w: cls(**{name: value})


class TestValidationNamesSpecAndField:
    """Spec ``__post_init__`` errors carry the spec and field name."""

    @pytest.mark.parametrize(
        ("build", "needle"),
        [
            (lambda w: DataSpec(w, num_sessions=0), "DataSpec.num_sessions"),
            (
                lambda w: DataSpec(w, num_partitions=0),
                "DataSpec.num_partitions",
            ),
            (
                lambda w: ReaderSpec(num_readers=0),
                "ReaderSpec.num_readers",
            ),
            (
                lambda w: ReaderSpec(executor="threads"),
                "ReaderSpec.executor",
            ),
            (
                lambda w: TrainSpec(train_epochs=0),
                "TrainSpec.train_epochs",
            ),
            (
                lambda w: TrainSpec(train_batches=0),
                "TrainSpec.train_batches",
            ),
            (lambda w: TrainSpec(batch_size=-5), "TrainSpec.batch_size"),
            pytest.param(
                lambda w: TrainSpec(num_gpus=12, gpus_per_node=8),
                "TrainSpec.num_gpus",
                id="TrainSpec.num_gpus=12-on-8-per-node",
            ),
            *(
                pytest.param(
                    lambda w, n=n, per=per: TrainSpec(
                        num_gpus=n, gpus_per_node=per
                    ),
                    "TrainSpec.num_gpus",
                    id=f"TrainSpec.num_gpus={n}-on-{per}-per-node",
                )
                for n, per in [(9, 8), (20, 8), (10, 4), (7, 2)]
            ),
            (
                lambda w: ScalingSpec(target_stall=0.0),
                "ScalingSpec.target_stall",
            ),
            (
                lambda w: ScalingSpec(target_stall=1.0),
                "ScalingSpec.target_stall",
            ),
            (
                lambda w: ScalingSpec(max_readers=0),
                "ScalingSpec.max_readers",
            ),
            (lambda w: RetentionSpec(window=0), "RetentionSpec.window"),
            *(
                pytest.param(
                    _with(ScalingSpec, "max_readers", bad),
                    "ScalingSpec.max_readers",
                    id=f"ScalingSpec.max_readers={bad}",
                )
                for bad in (float("nan"), float("inf"), 2.5)
            ),
            *(
                pytest.param(
                    _with(cls, name, bad),
                    f"{cls.__name__}.{name}",
                    id=f"{cls.__name__}.{name}={bad}",
                )
                for cls, name in _NUMERIC_FIELDS
                for bad in (float("nan"), float("inf"))
            ),
        ],
    )
    def test_error_names_the_offending_field(self, workload, build, needle):
        with pytest.raises(ValueError, match=needle.replace(".", r"\.")):
            build(workload)

    def test_scribe_shards_is_a_constant_not_a_field(self, workload):
        """No run set the Scribe shard count, so a spec cannot: the
        lander logs through ``DataSpec.num_scribe_shards`` = 8."""
        with pytest.raises(TypeError, match="num_scribe_shards"):
            DataSpec(workload, num_scribe_shards=4)
        assert DataSpec(workload).num_scribe_shards == 8

    @pytest.mark.parametrize(
        "surface",
        [
            lambda: main(["pipeline", "--prefetch-depth", "2"]),
            lambda: ReaderSpec(prefetch_depth=2),
            lambda: build_job_spec({"reader.prefetch_depth": 2}),
            lambda: TierJob(
                "j", None, DataLoaderConfig(48), [["p"]], prefetch_depth=2
            ),
            lambda: ReaderFleet(2, DataLoaderConfig(48), prefetch_depth=2),
        ],
        ids=["cli-flag", "reader-spec", "grid-path", "tier-job", "fleet"],
    )
    def test_prefetch_depth_is_a_constant_not_an_option(
        self, surface, capsys
    ):
        """Only the forked workers' queues have a depth, and no run set
        it: every surface that took ``prefetch_depth`` rejects it, and
        the workers' ``Queue(maxsize=)`` is the constant 2."""
        with pytest.raises((TypeError, ValueError, SystemExit)) as exc:
            surface()
        if exc.type is SystemExit:
            assert exc.value.code == 2
            assert "unrecognized arguments: --prefetch-depth" in (
                capsys.readouterr().err
            )
        else:
            assert "prefetch_depth" in str(exc.value)
        assert _PREFETCH_DEPTH == 2

    def test_executor_error_names_both_choices(self):
        with pytest.raises(ValueError) as exc:
            ReaderSpec(executor="async")
        assert "('inprocess', 'process'), got 'async'" in str(exc.value)

    @pytest.mark.parametrize(
        ("num_gpus", "gpus_per_node"),
        [(1, 8), (3, 8), (8, 8), (16, 8), (48, 8), (6, 2)],
    )
    def test_train_spec_takes_every_shape_the_cluster_takes(
        self, workload, num_gpus, gpus_per_node
    ):
        """Any count within one node, else whole nodes: the shape a
        TrainSpec accepts is the trainer's modeled cluster."""
        train = TrainSpec(
            num_gpus=num_gpus, gpus_per_node=gpus_per_node, max_table_rows=64
        )
        cluster = build_trainer(_spec(workload, train=train)).cluster
        assert (cluster.num_gpus, cluster.gpus_per_node) == (
            num_gpus,
            gpus_per_node,
        )
        assert cluster.single_node == (num_gpus <= gpus_per_node)

    def test_cluster_shape_error_states_both_counts(self):
        with pytest.raises(
            ValueError, match=r"num_gpus=12 and gpus_per_node=8"
        ):
            TrainSpec(num_gpus=12, gpus_per_node=8)

    def test_jobspec_weight_and_name(self, workload):
        with pytest.raises(ValueError, match=r"JobSpec\.weight"):
            _spec(workload, weight=0.0)
        with pytest.raises(ValueError, match=r"JobSpec\.weight"):
            _spec(workload, weight=float("nan"))
        with pytest.raises(ValueError, match=r"JobSpec\.weight"):
            _spec(workload, weight=float("inf"))
        with pytest.raises(ValueError, match=r"JobSpec\.name"):
            _spec(workload, name="")

    def test_scaling_bound_must_cover_initial_width(self, workload):
        with pytest.raises(ValueError, match=r"ScalingSpec\.max_readers"):
            _spec(
                workload,
                reader=ReaderSpec(num_readers=8),
                scaling=ScalingSpec(max_readers=4),
            )
        # without scaling the same width is legal (fixed-width fleets
        # are not bounded by the autoscaler's cap)
        _spec(workload, reader=ReaderSpec(num_readers=64))


class TestDerived:
    def test_derived_config_matches_workload(self, workload):
        """effective_batch_size and dataloader_config follow the
        workload's per-path values under both toggle paths."""
        for toggles, own_batch, groups in (
            (RecDToggles.baseline(), workload.baseline_batch_size, ()),
            (
                RecDToggles.full(),
                workload.recd_batch_size,
                workload.dedup_groups,
            ),
        ):
            for batch_size in (None, 99):
                spec = _spec(
                    workload,
                    data=DataSpec(workload=workload, toggles=toggles),
                    train=TrainSpec(batch_size=batch_size),
                )
                expected = own_batch if batch_size is None else batch_size
                assert spec.effective_batch_size == expected
                dl = spec.dataloader_config()
                assert dl.batch_size == expected
                assert dl.dedup_sparse_features == groups
                assert set(dl.all_sparse_names) == set(
                    workload.schema.sparse_names
                )
                assert dl.dense_features == tuple(
                    workload.schema.dense_names
                )
                assert dl.transforms == spec.data.transforms

    def test_reader_dedup_is_the_toggles_at_the_baseline_batch_size(
        self, workload
    ):
        """``ReaderSpec.dedup`` flips O3 + O5–O7 for the reader and
        trainer and nothing else: batch size stays the baseline's."""
        base = _spec(workload)
        dedup = base.with_(reader=ReaderSpec(dedup=True))
        assert base.effective_toggles is base.data.toggles
        assert dedup.effective_toggles == RecDToggles.baseline().with_(
            o3_ikjt=True,
            o5_dedup_emb=True,
            o6_jagged_index_select=True,
            o7_dedup_compute=True,
        )
        assert dedup.trainer_flags == RecDToggles.full().trainer_flags
        assert (
            dedup.dataloader_config().dedup_sparse_features
            == workload.dedup_groups
        )
        assert dedup.effective_batch_size == workload.baseline_batch_size
        full = _spec(
            workload,
            data=DataSpec(workload, toggles=RecDToggles.full()),
            reader=ReaderSpec(dedup=True),
        )
        assert full.effective_toggles == RecDToggles.full()

    def test_with_copies_top_level_fields(self, workload):
        spec = _spec(workload)
        heavier = spec.with_(weight=2.0, name="priority")
        assert heavier.weight == 2.0 and heavier.name == "priority"
        assert heavier.data is spec.data
        assert spec.weight == 1.0
