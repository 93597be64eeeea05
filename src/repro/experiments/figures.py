"""The paper's figures and tables, each declared once.

:data:`FIGURES` maps a ``repro`` subcommand name to a :class:`Figure`:
the driver that runs the figure's configurations and returns its rows,
the cells those rows print as, the paper's value for the cells that
have one, and the CLI flags the driver reads.  The CLI's subparsers,
``repro list``, ``repro experiments report`` (:func:`render_report`)
and the ``benchmarks/test_figures.py`` harness all iterate that one
table and print through one :func:`render` — so "what is a figure", and
what it looks like, has one answer.

A figure whose cells are stored run data (Figs 7–10 and the single-node
speedup) is also declared once: its :attr:`Figure.grid` names its runs
at a size, its :attr:`Figure.rows` reads its rows off their records.
The live driver runs the grid into a throwaway store, the report reads
the same grid back from the results store, and every profile
(:mod:`repro.experiments.profiles`) runs it at the profile's size.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace
from functools import partial, wraps
from inspect import signature
from itertools import zip_longest
from pathlib import Path

import numpy as np

from ..core import FeatureDedupStats, InverseKeyedJaggedTensor, KeyedJaggedTensor
from ..core import select_features_to_dedup
from ..core.analytics import dedupe_factor
from ..core.dedup import measured_dedupe_factor
from ..core.jagged import JaggedTensor
from ..core.partial import PartialJaggedTensor
from ..datagen.characterization import (
    CharacterizationReport,
    batch_samples_per_session,
    characterization_schema,
    characterize_schema,
)
from ..datagen.generator import TraceConfig, TraceGenerator
from ..datagen.schema import DatasetSchema, FeatureKind, SparseFeatureSpec
from ..datagen.session import sample_session_sizes, session_size_stats
from ..datagen.workloads import WORKLOADS, RMWorkload, all_workloads, rm1, rm2
from ..distributed import DistributedTrainer, TrainerCostConstants, sim_cluster
from ..etl import samples_per_session
from ..etl.cluster import cluster_order
from ..etl.downsample import keep_samples, keep_sessions
from ..metrics.breakdown import IterationBreakdown, ReaderCpuBreakdown
from ..metrics.ledger import ByteLedger
from ..pipeline.config import RecDToggles
from ..pipeline.session import MultiJobResult, PipelineResult, Session, land_table
from ..pipeline.spec import DataSpec, JobSpec, StreamSpec, TrainSpec
from ..reader import convert_rows
from ..reader.node import ReaderNode
from ..storage import IntEncoding, RowBlock, best_encoding, encode_int64
from ..trainer import DLRM, DLRMConfig
from .grid import GridSpec
from .store import RunRecord, RunStore

__all__ = [
    "Figure",
    "FIGURES",
    "render",
    "render_report",
    "SpeedupRow",
    "speedup_row",
    "BreakdownRow",
    "AblationStage",
    "ablation_stages",
    "Fig3Result",
    "fig3_session_histogram",
    "fig4_duplication",
    "fig7_end_to_end",
    "fig8_iteration_breakdown",
    "fig9_ablation",
    "Table2Row",
    "table2_resource_util",
    "Table3Row",
    "table3_reader_bytes",
    "table4_opt_summary",
    "fig10_reader_cpu",
    "scribe_sharding_compression",
    "single_node_speedup",
    "AccuracyResult",
    "accuracy_clustering",
    "DedupeModelPoint",
    "dedupe_factor_model_sweep",
    "PartialResult",
    "partial_vs_exact",
    "per_session_downsampling",
    "grouping_ablation",
    "comm_overlap_sweep",
    "dedup_threshold_sweep",
    "encoding_sizes",
    "freshness_scheduling",
    "o6_memory_amplification",
    "FleetScaling",
    "FLEET_SCALING",
]


# -- the shared run helpers --------------------------------------------------

#: the toggle sets between the ``"baseline"`` and ``"recd"`` endpoints,
#: as the O-flag dicts a grid point hashes — only the flags that are on.
#: Each adds the next group on top of the previous (O4 rides with O3, O6
#: with O5 — the paper's pairings).
CLUSTERED = {"o1_shard_by_session": True, "o2_cluster_table": True}
_DEDUP_EMB_FLAGS = {
    **CLUSTERED, "o3_ikjt": True, "o5_dedup_emb": True, "o6_jagged_index_select": True
}

_BASELINE = RecDToggles.baseline()
_CLUSTERED = RecDToggles(**CLUSTERED)
_DEDUP_EMB = RecDToggles(**_DEDUP_EMB_FLAGS)
_RECD = RecDToggles.full()


def _spec(
    workload: RMWorkload,
    toggles: RecDToggles,
    num_sessions: int,
    seed: int,
    data: Mapping | None = None,
    **train,
) -> JobSpec:
    """The one place a live driver composes a spec: ``data`` and
    ``train`` are the figure's overrides of the remaining spec
    defaults."""
    return JobSpec(
        data=DataSpec(
            workload=workload,
            toggles=toggles,
            num_sessions=num_sessions,
            seed=seed,
            **(data or {}),
        ),
        train=TrainSpec(**train),
    )


def _run(*args, **kwargs) -> PipelineResult:
    """One configuration (:func:`_spec`'s arguments) through the run
    surface."""
    return Session(_spec(*args, **kwargs)).run()


def _sized(
    name: str,
    scale: float,
    num_sessions: int,
    seed: int,
    points: Iterable[Mapping],
    shared: Mapping | None = None,
) -> GridSpec:
    """A stored figure's grid: its run ``points`` at one size, plus the
    ``shared`` values every point has."""
    return GridSpec(
        name=name,
        description=FIGURES[name].title,
        base={
            "workload.scale": scale,
            "data.num_sessions": num_sessions,
            "data.seed": seed,
            **(shared or {}),
        },
        include=tuple(points),
    )


def _live(name: str, scale: float, num_sessions: int, seed: int):
    """A stored figure run live: its grid into a throwaway store, then
    its rows off the records."""
    from .runner import run_grid  # the runner imports the profiles, which import this table

    fig = FIGURES[name]
    with tempfile.TemporaryDirectory() as tmp:
        outcome = run_grid(fig.grid(scale, num_sessions, seed), RunStore(Path(tmp) / "runs.sqlite"))
    return fig.rows(outcome.records)


def _endpoints(records: Iterable[RunRecord]) -> list[tuple[str, RunRecord, RunRecord]]:
    """``(workload, baseline record, RecD record)`` per workload, in
    workload order."""
    pairs: dict[str, dict] = {}
    for record in records:
        pairs.setdefault(record.spec["workload.rm"], {})[record.spec["toggles"]] = record
    return [(rm, pair["baseline"], pair["recd"]) for rm, pair in sorted(pairs.items())]


def _latest_by_label(
    store: RunStore, experiment: str, profile: str | None
) -> dict[str, RunRecord]:
    """Latest record per label for one experiment, or a LookupError
    telling the user how to populate the store."""
    out: dict[str, RunRecord] = {}
    for record in store.query(experiment=experiment, profile=profile):
        out[record.label] = record  # query orders oldest -> newest
    if not out:
        raise LookupError(
            f"store {store.path} has no {experiment!r} runs"
            + (f" for profile {profile!r}" if profile else "")
            + "; populate it with "
            "'repro experiments run --profile smoke' first"
        )
    return out


# -- Fig 3: samples/session in partition vs in batch -------------------------


@dataclass
class Fig3Result:
    """Fig 3: samples/session in the partition vs in a batch."""

    partition_stats: dict[str, float]
    batch_mean_interleaved: float
    batch_mean_clustered: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


def fig3_session_histogram(num_sessions: int, seed: int, batch_size: int = 4096) -> Fig3Result:
    """Fig 3: partition-level histogram (left) and per-batch means (right).

    At partition scale only session *sizes* matter, so sizes are drawn
    directly; the in-batch interleaving statistic is computed from a
    materialized (feature-free) trace ordered by timestamp.
    """
    rng = np.random.default_rng(seed)
    sizes = sample_session_sizes(num_sessions, rng=rng)
    stats = session_size_stats(sizes)
    counts, edges = np.histogram(
        sizes,
        bins=np.logspace(0, np.log10(max(sizes.max(), 10) * 1.01), 40),
    )
    # interleaving: simulate timestamp ordering without features
    starts = rng.uniform(0, 3600.0, size=num_sessions)
    durations = rng.uniform(0.3, 1.0, size=num_sessions) * 3600.0
    session_ids = np.repeat(np.arange(num_sessions), sizes)
    ts = np.repeat(starts, sizes) + rng.random(sizes.sum()) * np.repeat(
        durations, sizes
    )
    order = np.argsort(ts, kind="stable")
    interleaved = batch_samples_per_session(session_ids[order], batch_size)
    clustered = batch_samples_per_session(
        np.sort(session_ids), batch_size
    )
    return Fig3Result(
        partition_stats=stats,
        batch_mean_interleaved=float(interleaved.mean()),
        batch_mean_clustered=float(clustered.mean()),
        histogram_counts=counts,
        histogram_edges=edges,
    )


# -- Fig 4: per-feature duplication ------------------------------------------


def fig4_duplication(
    num_sessions: int, seed: int, num_features: int = 733
) -> CharacterizationReport:
    """Fig 4 over a paper-shaped 733-feature schema."""
    return characterize_schema(
        characterization_schema(num_features=num_features),
        num_sessions=num_sessions,
        seed=seed,
    )


# -- Fig 7: end-to-end trainer / reader / storage across RMs -----------------


@dataclass(frozen=True)
class SpeedupRow:
    """Fig 7: one workload's end-to-end RecD-vs-baseline speedups."""

    rm: str
    trainer_x: float
    reader_x: float
    storage_x: float
    scribe_x: float


def speedup_row(rm: str, base: Mapping, recd: Mapping) -> SpeedupRow:
    """Fig 7's four ratios from two runs' headline metrics.

    Args:
        rm: the workload name.
        base: the baseline run's :attr:`RunRecord.metrics`.
        recd: the RecD run's.
    """
    return SpeedupRow(
        rm=rm,
        trainer_x=recd["trainer_qps"] / base["trainer_qps"],
        reader_x=recd["reader_qps"] / base["reader_qps"],
        storage_x=recd["storage_compression"] / base["storage_compression"],
        scribe_x=recd["scribe_compression"] / base["scribe_compression"],
    )


def _fig7_grid(scale: float, num_sessions: int, seed: int) -> GridSpec:
    """Fig 7's runs: every workload at both endpoints.  RM3's production
    table exhibits fewer samples/session, which is why its storage gain
    is smaller (§6.1: 2.06x vs 3.71x)."""
    rm3 = {"data.num_sessions": int(num_sessions * 3.0), "data.mean_samples_per_session": 5.0}
    return _sized("fig7", scale, num_sessions, seed, (
        {"workload.rm": rm, "toggles": toggles, **(rm3 if rm == "RM3" else {})}
        for rm in WORKLOADS
        for toggles in ("baseline", "recd")
    ))


def _fig7_rows(records: Iterable[RunRecord]) -> list[SpeedupRow]:
    """One :class:`SpeedupRow` per workload."""
    return [speedup_row(rm, base.metrics, recd.metrics) for rm, base, recd in _endpoints(records)]


def fig7_end_to_end(scale: float, num_sessions: int, seed: int) -> list[SpeedupRow]:
    """Fig 7: trainer/reader/storage/scribe speedups per workload."""
    return _live("fig7", scale, num_sessions, seed)


# -- Fig 8 / Fig 10: phase breakdowns, baseline vs RecD ----------------------


@dataclass(frozen=True)
class BreakdownRow:
    """One workload's phase breakdown at both endpoints: trainer
    iteration latency (Fig 8) or reader CPU (Fig 10)."""

    rm: str
    baseline: IterationBreakdown | ReaderCpuBreakdown
    recd: IterationBreakdown | ReaderCpuBreakdown

    @property
    def recd_normalized(self) -> dict[str, float]:
        """RecD's phases as fractions of the baseline's total."""
        return self.recd.normalized_to(self.baseline)


def _breakdown_grid(
    name: str, scale: float, num_sessions: int, seed: int, shared: Mapping | None = None
) -> GridSpec:
    """Both endpoints per workload at the *baseline's* batch size."""
    return _sized(name, scale, num_sessions, seed, (
        {"workload.rm": w.name, "toggles": toggles, "train.batch_size": w.baseline_batch_size}
        for w in all_workloads(scale)
        for toggles in ("baseline", "recd")
    ), shared)


def _phase_rows(kind: type, path: tuple[str, ...], records: Iterable[RunRecord]) -> list[BreakdownRow]:
    """Each workload's two ``kind`` breakdowns, read from the reports
    at ``path`` (their stored form ends with the derived total)."""

    def phases(record: RunRecord):
        stored = record.reports
        for key in path:
            stored = stored[key]
        return kind(**{phase: value for phase, value in stored.items() if phase != "total"})

    return [BreakdownRow(rm, phases(base), phases(recd)) for rm, base, recd in _endpoints(records)]


def fig8_iteration_breakdown(scale: float, num_sessions: int, seed: int) -> list[BreakdownRow]:
    """Fig 8 uses the *same batch size* as the baseline for each RM."""
    return _live("fig8", scale, num_sessions, seed)


def fig10_reader_cpu(scale: float, num_sessions: int, seed: int) -> list[BreakdownRow]:
    """Fig 10: Fill/Convert/Process CPU, baseline vs RecD."""
    return _live("fig10", scale, num_sessions, seed)


# -- Fig 9: RM1 ablation -----------------------------------------------------


@dataclass(frozen=True)
class AblationStage:
    """Fig 9: one ablation stage's throughput and normalization."""

    label: str
    qps: float
    normalized: float


def ablation_stages(
    qps_by_stage: Iterable[tuple[str, float]],
) -> list[AblationStage]:
    """A staircase of ``(label, trainer qps)`` normalised to its first
    stage — Fig 9's arithmetic."""
    stages: list[AblationStage] = []
    for label, qps in qps_by_stage:
        base_qps = stages[0].qps if stages else qps
        stages.append(AblationStage(label, qps, qps / base_qps))
    return stages


#: the paper's stages, Baseline(B2048) -> +CT -> +DE/JIS(B4096) ->
#: +DC(B4096) -> +B6144, as (label, toggles, batch size in baseline
#: batches): ours scale as B, B, 2B, 2B, 3B
_FIG9 = (
    ("Baseline B1x", "baseline", 1),
    ("O2 CT", CLUSTERED, 1),
    ("+O5 DE +O6 JIS B2x", _DEDUP_EMB_FLAGS, 2),
    ("+O7 DC B2x", "recd", 2),
    ("+B3x", "recd", 3),
)


def _fig9_grid(scale: float, num_sessions: int, seed: int) -> GridSpec:
    """RM1 once per stage, labelled like the paper's stages."""
    batch = rm1(scale).baseline_batch_size
    return _sized("ablation", scale, num_sessions, seed, (
        {"label": label, "toggles": toggles, "train.batch_size": k * batch}
        for label, toggles, k in _FIG9
    ), {"workload.rm": "RM1"})


def _fig9_rows(records: Iterable[RunRecord]) -> list[AblationStage]:
    """The stages in the paper's order, normalised to the baseline."""
    qps = {record.label: record.metrics["trainer_qps"] for record in records}
    return ablation_stages((label, qps[label]) for label, _, _ in _FIG9)


def fig9_ablation(scale: float, num_sessions: int, seed: int) -> list[AblationStage]:
    """Fig 9: RM1's trainer throughput as the optimizations stack up."""
    return _live("ablation", scale, num_sessions, seed)


# -- Table 2: trainer resource utilization for RM1 ---------------------------


@dataclass
class Table2Row:
    """Table 2: one configuration's resource-utilization summary."""

    config: str
    norm_qps: float
    max_mem_util: float
    avg_mem_util: float
    norm_compute_efficiency: float


def table2_resource_util(scale: float, num_sessions: int, seed: int) -> list[Table2Row]:
    """Table 2: QPS, memory utilization, and compute efficiency."""
    w = rm1(scale)
    B = w.baseline_batch_size
    # The paper reinvests RecD's freed memory in 2x embedding dims (128 ->
    # 256).  Our simulation frees a smaller fraction (the RecD row's
    # max_mem cell beside its paper value), so the equivalent "largest
    # dim that fits" step is 1.5x.
    configs = [
        ("Baseline", w, _BASELINE, B),
        ("RecD", w, _RECD, B),
        (
            "RecD + EMB D1.5x",
            replace(w, embedding_dim=int(1.5 * w.embedding_dim)),
            _RECD,
            B,
        ),
        ("RecD + B3x", w, _RECD, 3 * B),
    ]
    # small hash-capped tables keep dynamic activations the dominant
    # memory term, matching the paper's setting (baseline Table 2 has
    # ~80% of memory in dynamic state)
    runs = [
        (label, _run(workload, toggles, num_sessions, seed, batch_size=batch, max_table_rows=500))
        for label, workload, toggles, batch in configs
    ]
    # capacity chosen so the baseline batch "required the entirety of GPU
    # memory" (§6.2): baseline peak = 99.9% utilization.
    base = runs[0][1]
    capacity = max(
        r.max_mem_bytes for r in base.training.iterations
    ) / 0.999
    base_qps = base.trainer_qps
    base_eff = base.training.mean_flops_per_gpu_second
    rows = []
    for label, res in runs:
        peak = max(r.max_mem_bytes for r in res.training.iterations)
        avg = np.mean(
            [
                (r.static_mem_bytes + 0.4 * r.dynamic_mem_bytes)
                for r in res.training.iterations
            ]
        )
        rows.append(
            Table2Row(
                config=label,
                norm_qps=res.trainer_qps / base_qps,
                max_mem_util=peak / capacity,
                avg_mem_util=float(avg) / capacity,
                norm_compute_efficiency=(
                    res.training.mean_flops_per_gpu_second / base_eff
                ),
            )
        )
    return rows


# -- Table 3: reader ingest & egress bytes for a fixed number of samples -----


@dataclass
class Table3Row:
    """Table 3: one configuration's reader ingest/egress bytes."""

    config: str
    bytes: ByteLedger


def table3_reader_bytes(scale: float, num_sessions: int, seed: int) -> list[Table3Row]:
    """Table 3: bytes read off storage and sent to trainers."""
    w = rm1(scale)
    B = w.baseline_batch_size
    # a fixed number of samples across all variants
    rows: list[Table3Row] = []
    fixed_batches: int | None = None
    for label, toggles in (
        ("Baseline", _BASELINE),
        ("with Cluster", _CLUSTERED),
        ("with IKJT", _RECD),
    ):
        cfg = _spec(w, toggles, num_sessions, seed, batch_size=B)
        table, _, _, partitions, _ = land_table(cfg)
        if fixed_batches is None:
            fixed_batches = partitions[0].num_rows // B
        node = ReaderNode(cfg.dataloader_config())
        node.run_all(table.open_readers("p0"), max_batches=fixed_batches)
        rows.append(Table3Row(config=label, bytes=node.report.bytes))
    return rows


# -- Table 4: each optimization's own impact on RM1 --------------------------


def table4_opt_summary(scale: float, num_sessions: int, seed: int) -> dict[str, float]:
    """Table 4: O1's Scribe gain, O1+O2's storage gain and fill-time
    cut, O3's convert-time rise and O4's process-time cut (one batch at
    the baseline batch size each), then Fig 9's O5+O6 and full-stack
    trainer throughput."""
    w = rm1(scale)
    base, o1, o2, o3 = (
        _run(w, toggles, num_sessions, seed, train_batches=1, batch_size=w.baseline_batch_size)
        for toggles in (
            _BASELINE,
            RecDToggles(o1_shard_by_session=True),
            _CLUSTERED,
            _DEDUP_EMB,
        )
    )
    ablation = fig9_ablation(scale, num_sessions, seed)
    return {
        "scribe_x": o1.scribe_compression / base.scribe_compression,
        "storage_x": o2.storage_compression / base.storage_compression,
        "fill_cut": 1.0 - o2.reader.cpu.fill / base.reader.cpu.fill,
        "convert_up": o3.reader.cpu.convert / o2.reader.cpu.convert - 1.0,
        "process_cut": 1.0 - o3.reader.cpu.process / o2.reader.cpu.process,
        "o56_x": ablation[2].normalized,
        "o7_x": ablation[4].normalized,
    }


# -- §6.1: Scribe sharding compression (O1 alone) ----------------------------


def scribe_sharding_compression(scale: float, num_sessions: int, seed: int) -> dict[str, float]:
    """Paper: 1.50x (random) -> 2.25x (session sharding)."""
    w = rm1(scale)
    ratios = {}
    for policy, toggles in (
        ("random", _BASELINE),
        ("session", RecDToggles(o1_shard_by_session=True)),
    ):
        _, stats, _, _, _ = land_table(_spec(w, toggles, num_sessions, seed))
        ratios[policy] = stats.compression_ratio
    return ratios


# -- §6.2: single-node training ----------------------------------------------


def _single_node_grid(scale: float, num_sessions: int, seed: int) -> GridSpec:
    """RM1 on one 8-GPU node: the baseline at its batch size, RecD at
    its grown one."""
    w = rm1(scale)
    return _sized("single-node", scale, num_sessions, seed, (
        {"toggles": "baseline", "train.batch_size": w.baseline_batch_size},
        {"toggles": "recd", "train.batch_size": w.recd_batch_size},
    ), {"workload.rm": "RM1", "train.num_gpus": 8, "train.gpus_per_node": 8})


def _single_node_rows(records: Iterable[RunRecord]) -> dict[str, float]:
    """Both endpoints' trainer QPS and their ratio."""
    qps = {record.spec["toggles"]: record.metrics["trainer_qps"] for record in records}
    return {"baseline": qps["baseline"], "recd": qps["recd"], "speedup": qps["recd"] / qps["baseline"]}


def single_node_speedup(scale: float, num_sessions: int, seed: int) -> dict[str, float]:
    """Downsized RM1 on one 8-GPU node (NVLink): paper reports 2.18x."""
    return _live("single-node", scale, num_sessions, seed)


# -- §6.2: clustering's accuracy mechanism (repeat sparse updates) -----------


@dataclass
class AccuracyResult:
    """Repeat-update statistics: how many distinct iterations touched each
    embedding row.  Clustering concentrates a session's duplicates into one
    batch, so rows see fewer repeat updates — the §6.2 overfitting
    mechanism."""

    interleaved_repeat_fraction: float
    clustered_repeat_fraction: float
    interleaved_loss: float
    clustered_loss: float


def accuracy_clustering(
    scale: float, num_sessions: int, seed: int, train_batches: int = 6
) -> AccuracyResult:
    """§6.2: training-accuracy parity of clustered vs interleaved."""
    w = rm1(scale)

    def train(toggles: RecDToggles) -> tuple[float, float]:
        """One tracked training run -> (fraction of touched embedding
        rows updated in >1 iteration, mean loss)."""
        session = Session(
            _spec(
                w, toggles, num_sessions, seed,
                train_batches=train_batches, batch_size=w.baseline_batch_size, track_updates=True,
            )
        )
        res = session.run()
        # the finished session still holds the trainer that counted
        model = session.runtime(session.names[0]).trainer.model
        updates = [
            count
            for table in model.sparse_arch.tables()
            for count in table.update_events.values()
        ]
        return (
            sum(c > 1 for c in updates) / max(len(updates), 1),
            float(np.mean([r.loss for r in res.training.iterations])),
        )

    (inter_repeat, inter_loss), (clus_repeat, clus_loss) = (
        train(_BASELINE),
        train(_CLUSTERED),
    )
    return AccuracyResult(
        interleaved_repeat_fraction=inter_repeat,
        clustered_repeat_fraction=clus_repeat,
        interleaved_loss=inter_loss,
        clustered_loss=clus_loss,
    )


# -- §4.2: the DedupeFactor analytical model vs measurement ------------------


@dataclass
class DedupeModelPoint:
    """One point of the §3 dedupe-factor model sweep."""

    samples_per_session: float
    d: float
    modeled: float
    measured: float


def dedupe_factor_model_sweep(seed: int) -> list[DedupeModelPoint]:
    """Sweep S and d(f); compare DedupeFactor(f) with the measured ratio
    on batches generated to the model's assumptions."""
    rng = np.random.default_rng(seed)
    points = []
    for s in (2, 4, 8, 16):
        for d in (0.0, 0.5, 0.8, 0.95):
            rows = []
            next_id = 0
            for _ in range(200):  # sessions
                next_id += 1
                current = next_id
                rows.append([current] * 4)
                for _ in range(s - 1):
                    if rng.random() > d:
                        next_id += 1
                        current = next_id
                    rows.append([current] * 4)
            jt = JaggedTensor.from_lists(rows)
            points.append(
                DedupeModelPoint(
                    samples_per_session=s,
                    d=d,
                    modeled=dedupe_factor(4, len(rows), s, d),
                    measured=measured_dedupe_factor(jt),
                )
            )
    return points


# -- §7: partial IKJTs -------------------------------------------------------


@dataclass
class PartialResult:
    """Exact vs partial dedupe factors and captured fractions."""

    exact_factor: float
    partial_factor: float
    exact_captured_fraction: float
    partial_captured_fraction: float


def partial_vs_exact(num_sessions: int, seed: int) -> PartialResult:
    """§7: partial IKJTs capture shifted lists exact dedup misses."""
    schema = DatasetSchema(
        sparse=(
            SparseFeatureSpec(
                "hist", avg_length=24, change_prob=0.35
            ),  # shifts often: partial's sweet spot
        )
    )
    rows = RowBlock.from_samples(
        TraceGenerator(schema, TraceConfig(seed=seed)).generate_partition(num_sessions)
    )
    # cluster so duplicates are batch-local: by session id, then time
    # (not cluster_order, which orders sessions by their first timestamp)
    rows = rows.take(np.lexsort((rows.timestamp, rows.session_id)))
    offsets, values = rows.sparse["hist"]
    jt = JaggedTensor(values, offsets)
    exact = measured_dedupe_factor(jt)
    partial = PartialJaggedTensor.from_jagged(jt).dedupe_factor()
    return PartialResult(
        exact_factor=exact,
        partial_factor=partial,
        exact_captured_fraction=1.0 - 1.0 / exact,
        partial_captured_fraction=1.0 - 1.0 / partial,
    )


# -- §4.2 / §7 ablations and the repo's own claims ---------------------------


def per_session_downsampling(num_sessions: int, seed: int) -> dict[str, dict[str, float]]:
    """§7: keeping 30 % of whole sessions instead of 30 % of samples
    keeps S — and so the dedupe factor of a clustered 4096-row batch —
    high at about the same retained volume."""
    schema = DatasetSchema(sparse=(SparseFeatureSpec("hist", avg_length=24, change_prob=0.05),))
    full = RowBlock.from_samples(
        TraceGenerator(schema, TraceConfig(seed=seed)).generate_partition(num_sessions)
    )
    rows = {"full partition": {"samples": len(full), "S": samples_per_session(full.session_id)}}
    for label, keep in (
        ("per-sample (base)", keep_samples(len(full), 0.3, seed=1)),
        ("per-session (§7)", keep_sessions(full.session_id, 0.3, seed=1)),
    ):
        kept = full.take(np.flatnonzero(keep))
        batch = kept.take(cluster_order(kept.session_id, kept.timestamp)[:4096])
        offsets, values = batch.sparse["hist"]
        rows[label] = {
            "samples": len(kept),
            "S": samples_per_session(kept.session_id),
            "dedupe factor": measured_dedupe_factor(JaggedTensor(values, offsets)),
        }
    return rows


def grouping_ablation(seed: int) -> dict[str, dict[str, object]]:
    """§4.2's grouped IKJTs over a 2048-row batch of features ``a`` and
    ``b``: one shared inverse_lookup saves bytes when the members update
    in sync (12-row runs; rng ``seed``) and weakens dedup when ``b`` also
    changes every fifth row (rng ``seed + 1``); either way the group
    expands back to its KJT exactly."""
    rows = {}
    for label, rng_seed, synced in (("synced", seed, True), ("unsynced", seed + 1, False)):
        rng, samples = np.random.default_rng(rng_seed), []
        for i in range(2048):
            if i % 12 == 0:
                a = rng.integers(0, 10**6, size=16).tolist()
                b = rng.integers(0, 10**6, size=16).tolist()
            elif not synced and i % 5 == 0:
                b = rng.integers(0, 10**6, size=16).tolist()
            samples.append({"a": a, "b": b})
        kjt = KeyedJaggedTensor.from_rows(samples)
        grouped = InverseKeyedJaggedTensor.from_kjt(kjt, ["a", "b"])
        solo = [InverseKeyedJaggedTensor.from_kjt(kjt, [k]) for k in ("a", "b")]
        rows[label] = {
            "grouped bytes": grouped.nbytes,
            "2x singleton bytes": sum(s.nbytes for s in solo),
            "lookups saved": sum(s.inverse_lookup.nbytes for s in solo)
            - grouped.inverse_lookup.nbytes,
            "grouped dedupe": grouped.dedupe_factor(),
            "solo-a dedupe": solo[0].dedupe_factor(),
            "lossless": grouped.to_kjt() == kjt,
        }
    return rows


def comm_overlap_sweep(scale: float, num_sessions: int, seed: int) -> dict[str, dict[str, float]]:
    """RM1's RecD/baseline trainer multiplier at one batch size as the
    exposed-communication fraction shrinks: the default cost model
    overlaps nothing, which is why Fig 7's trainer cells overshoot."""
    w = rm1(scale)
    B, trace = w.baseline_batch_size, TraceGenerator(w.schema, TraceConfig(seed=seed))
    rows = RowBlock.from_samples(trace.generate_partition(num_sessions))
    samples = rows.take(cluster_order(rows.session_id, rows.timestamp))
    jobs = [
        _spec(w, toggles, num_sessions, seed, {"transforms": ()}, batch_size=B)
        for toggles in (_BASELINE, _RECD)
    ]
    batches = [
        [convert_rows(samples[i * B : (i + 1) * B], job.dataloader_config())[0] for i in range(2)]
        for job in jobs
    ]
    cluster, rows = sim_cluster(num_gpus=48), {}
    for overlap in (0.0, 0.25, 0.5, 0.75):
        costs = TrainerCostConstants(comm_overlap_fraction=overlap)
        base, recd = (
            DistributedTrainer(
                DLRM(
                    list(w.schema.sparse),
                    DLRMConfig.from_workload(w, max_table_rows=1000, seed=1),
                    job.trainer_flags,
                ),
                cluster,
                costs,
            ).run(job_batches).mean_samples_per_second
            for job, job_batches in zip(jobs, batches)
        )
        rows[f"overlap {overlap:.2f}"] = {"RecD/baseline": recd / base}
    return rows


def dedup_threshold_sweep(seed: int) -> dict[str, dict[str, int]]:
    """§7's selection rule (dedup a feature when DedupeFactor > t) over
    a 1024-row batch of four features spanning the duplication spectrum:
    how many it picks and the batch's wire bytes, per threshold ``t``."""
    rng, batch_size = np.random.default_rng(seed), 1024
    specs = (("hot", 0.95, 32), ("warm", 0.7, 16), ("cool", 0.4, 8), ("cold", 0.05, 8))
    samples, state = [], {}
    for i in range(batch_size):
        for name, d, length in specs:
            if i == 0 or rng.random() > d:
                state[name] = rng.integers(0, 10**6, size=length).tolist()
        samples.append({k: list(v) for k, v in state.items()})
    kjt = KeyedJaggedTensor.from_rows(samples)
    stats = [FeatureDedupStats(name, length, d) for name, d, length in specs]
    rows = {}
    for t in (1.0, 1.25, 1.5, 2.0, 4.0, 8.0):
        chosen = select_features_to_dedup(
            stats, batch_size=batch_size, samples_per_session=16.5, threshold=t
        )
        rows[f"threshold {t:.2f}"] = {
            "#dedup": len(chosen),
            "batch bytes": sum(
                (InverseKeyedJaggedTensor.from_kjt(kjt, [n]) if n in chosen else kjt[n]).nbytes
                for n, _, _ in specs
            ),
        }
    return rows


def encoding_sizes(seed: int) -> dict[str, dict[str, int | str]]:
    """Each int64 stream encoding's size on three 8192-value DLRM column
    shapes — a fixed-length lengths stream, a 50-value categorical,
    user-history IDs — and the one :func:`~repro.storage.best_encoding`
    picks."""
    rng, length = np.random.default_rng(seed), 8192
    columns = {
        "lengths_fixed": np.full(length, 48, dtype=np.int64),
        "country_ids": rng.choice(np.arange(50, dtype=np.int64) + 10**6, size=length),
        "history_ids": rng.integers(0, 10**7, size=length, dtype=np.int64),
    }
    return {
        name: {
            **{enc.name: len(encode_int64(col, enc)) for enc in IntEncoding},
            "chosen": best_encoding(col).name,
        }
        for name, col in columns.items()
    }


#: the freshness figure's target p99 lag (modeled seconds): below what
#: the round-robin split achieves, so the boost engages
_FRESHNESS_SLO = 0.05


def freshness_scheduling(scale: float, num_sessions: int, seed: int) -> dict[str, MultiJobResult]:
    """Three streamed jobs share a width-4 pool while their partitions
    land on the live clock: ``round_robin`` splits it evenly, while
    ``stall_weighted`` with a freshness SLO steers workers to the
    laggiest job.  Weights move only modeled time, never a batch, so
    losses match."""
    jobs = [
        replace(
            _spec(
                workload, _BASELINE, sessions, seed + k, {"num_partitions": partitions},
                train_epochs=epochs, train_batches=batches,
            ),
            # sub-second ticks put landing cadence on the scale of the
            # modeled compute, so worker allocation — not waiting for
            # data — dominates each batch's lag
            stream=StreamSpec(interval_seconds=interval, land_latency_seconds=0.002),
            name=name,
        )
        for k, (name, workload, sessions, partitions, epochs, batches, interval) in enumerate(
            (
                ("heavy", rm1(0.3 * scale), 2 * num_sessions, 4, 6, 4, 0.02),
                ("light-a", rm2(0.2 * scale), num_sessions, 3, 5, 3, 0.03),
                ("light-b", rm1(0.2 * scale), num_sessions, 3, 5, 3, 0.04),
            ),
            start=1,
        )
    ]
    policies = {
        "round_robin": {"policy": "round_robin"},
        "freshness-weighted": {"policy": "stall_weighted", "freshness_slo": _FRESHNESS_SLO},
    }
    return {label: Session(jobs, width=4, **policy).run() for label, policy in policies.items()}


def o6_memory_amplification(seed: int) -> dict[str, int]:
    """O6's motivation: gathering 4096 of 512 jagged rows, a dense index
    select pads every row to the longest (B x max_len cells); the jagged
    one moves only the values the rows hold."""
    rng = np.random.default_rng(seed)
    jt = JaggedTensor.from_lists(
        [rng.integers(0, 10**6, size=rng.integers(1, 64)).tolist() for _ in range(512)]
    )
    idx = rng.integers(0, 512, size=4096)
    return {"dense": idx.size * int(jt.lengths.max()), "jagged": int(jt.lengths[idx].sum())}


# -- stored report sections with no live driver or subcommand --------------


@dataclass(frozen=True)
class FleetScaling:
    """The stored ``fleet_scaling`` grid by series, each ``{width:
    record}`` narrowest first: ``curves[(dedup, transport)]`` holds the
    axis points, ``wide[transport]`` the dedup-free ``wide-*`` include
    points."""

    curves: dict[tuple[bool, str], dict[int, RunRecord]]
    wide: dict[str, dict[int, RunRecord]]


def _fleet_rows(records: Iterable[RunRecord]) -> FleetScaling:
    """The ``fleet_scaling`` grid's series.  An include point
    (``wide-*``, ``stream-*``) is never part of an axis curve."""
    curves, wide = {}, {}
    for record in records:
        spec, width = record.spec, int(record.spec["reader.num_readers"])
        if "label" not in spec:
            curves.setdefault((spec["reader.dedup"], spec["reader.transport"]), {})[width] = record
        elif record.label.startswith("wide-") and not spec.get("reader.dedup"):
            wide.setdefault(spec["reader.transport"], {})[width] = record
    return FleetScaling(
        {series: dict(sorted(c.items())) for series, c in sorted(curves.items())},
        {transport: dict(sorted(w.items())) for transport, w in sorted(wide.items())},
    )


def _fleet_cells(rows: FleetScaling) -> dict:
    """Each axis series' width curve, the wide copy-vs-shm bend, then
    the dedup-vs-baseline wall per width on the ``copy`` series."""
    cells = {}
    for (dedup, transport), curve in rows.curves.items():
        serial = curve[min(curve)].metrics["fleet_modeled_samples_per_second"]
        for width, r in curve.items():
            label = f"{transport}{' dedup' if dedup else ''} x{width}"
            cells[label, "samples/s"] = r.metrics["fleet_modeled_samples_per_second"]
            cells[label, "vs serial"] = cells[label, "samples/s"] / serial
            cells[label, "wall"] = r.metrics["fleet_modeled_wall_seconds"] * 1e3
    for transport, points in rows.wide.items():
        for width, r in points.items():
            label = f"wide {transport} x{width}"
            cells[label, "decode wall"] = r.metrics["fleet_modeled_wall_seconds"] * 1e3
            cells[label, "transport wait"] = r.metrics["fleet_transport_wait_seconds"] * 1e3
            cells[label, "delivered samples/s"] = r.metrics["fleet_delivered_samples_per_second"]
    base, dedup = rows.curves.get((False, "copy"), {}), rows.curves.get((True, "copy"), {})
    for width in sorted(base.keys() & dedup.keys()):
        label = f"dedup vs baseline x{width}"
        cells[label, "speedup"] = (
            cells[f"copy x{width}", "wall"] / cells[f"copy dedup x{width}", "wall"]
        )
        cells[label, "dedupe byte factor"] = dedup[width].metrics["dedupe_byte_factor"]
    return cells


def _overlap_rows(records: Iterable[RunRecord]) -> dict[str, dict[str, float]]:
    """The ``ingest_overlap`` grid's wall-clock attribution per reader
    mode (the time streaming overlaps away shows up as the materialized
    mode's ``other`` fraction)."""
    return {
        "streaming" if record.spec.get("reader.streaming", True) else "materialized":
            record.reports["overlap"]["fractions"]
        for record in records
    }


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One paper figure or table.

    Attributes:
        run: the driver — runs the figure's configurations and returns
            its rows.
        cells: the figure's numbers off the driver's rows, in print
            order, as ``{(row label, column): value}``; a column named
            ``""`` prints its value alone.
        flags: the CLI flags ``run`` reads, as ``{flag (argparse dest):
            driver parameter}``; the subcommand registers exactly these.
        title: the heading the benchmark harness prints the figure under.
        formats: ``{column: str.format template}``; a column not named
            prints as ``{:.2f}``.
        paper: the published value of each cell that has one, keyed like
            ``cells`` — a number (formatted like its cell) or text
            printed as given.  The only place a paper number is written.
        grid: for a figure whose cells are stored run data, its runs:
            ``grid(scale, num_sessions, seed)`` is the
            :class:`~repro.experiments.grid.GridSpec` the driver runs
            and every profile stores under the figure's name.
        rows: what ``run`` returns, off the grid's
            :class:`~repro.experiments.store.RunRecord`\\ s — live or
            read back from the store; a missing run raises
            :class:`LookupError`.
    """

    run: Callable | None
    cells: Callable[..., dict[tuple[str, str], float]]
    flags: Mapping[str, str]
    title: str
    formats: Mapping[str, str] = field(default_factory=dict)
    paper: Mapping[tuple[str, str], float | str] = field(default_factory=dict)
    grid: Callable[[float, int, int], GridSpec] | None = None
    rows: Callable[[Iterable[RunRecord]], object] | None = None


def render(fig: Figure, rows) -> list[str]:
    """A figure as text — the one renderer behind the CLI, ``repro
    experiments report`` and the benchmark harness: one line per row
    label, each of its cells as ``column value`` with ``(paper …)``
    beside a cell :attr:`Figure.paper` declares, padded to line up by
    position."""
    table: dict[str, list[str]] = {}
    for (label, column), value in fig.cells(rows).items():
        fmt = fig.formats.get(column, "{:.2f}")
        text = f"{column} {fmt.format(value)}".lstrip()
        if (label, column) in fig.paper:
            paper = fig.paper[label, column]
            text += f" (paper {paper if isinstance(paper, str) else fmt.format(paper)})"
        table.setdefault(label, []).append(text)
    lines = [[label, *cells] for label, cells in table.items()]
    widths = [max(map(len, position)) for position in zip_longest(*lines, fillvalue="")]
    return ["  ".join(map(str.ljust, line, widths)).rstrip() for line in lines]


def _columns(label: str, **columns: str) -> Callable:
    """The ``cells`` of a driver that returns a list of row dataclasses:
    the ``label`` field names the row, each ``column=field`` is a cell."""
    return lambda rows: {
        (getattr(row, label), column): getattr(row, attr)
        for row in rows
        for column, attr in columns.items()
    }


def _paper(columns: Iterable[str], rows: Mapping[str, tuple]) -> dict:
    """A paper table typed row by row (``{label: values under columns}``)
    as :attr:`Figure.paper` keys."""
    return {
        (label, column): value
        for label, values in rows.items()
        for column, value in zip(columns, values)
    }


def _single(
    run: Callable, flags: Mapping[str, str], title: str, *table: tuple, **stored
) -> Figure:
    """The :class:`Figure` of a driver that returns one result, typed
    one cell per line: ``(row label, column, source, format, paper value
    or None)``, where ``source`` is a key or attribute of the result,
    or a function of it; ``stored`` is the figure's ``grid`` and
    ``rows``, if it has them."""

    def cells(res) -> dict:
        get = res.__getitem__ if isinstance(res, dict) else partial(getattr, res)
        return {
            (label, column): source(res) if callable(source) else get(source)
            for label, column, source, _, _ in table
        }

    formats = {column: fmt for _, column, _, fmt, _ in table}
    paper = {(row[0], row[1]): row[4] for row in table if row[4] is not None}
    return Figure(run, cells, flags, title, formats, paper, **stored)


def _mean_exact(kind: FeatureKind, rep: CharacterizationReport) -> float:
    return float(np.mean([f.exact_fraction for f in rep.features if f.kind is kind]))


def _breakdown_cells(rows: list[BreakdownRow]) -> dict:
    """Figs 8 and 10: both endpoints' phases (and their total) as
    fractions of the baseline's total."""
    return {
        (f"{r.rm} {config}", phase): fraction
        for r in rows
        for config, phases in (
            ("baseline", r.baseline.normalized_to(r.baseline)),
            ("RecD", r.recd_normalized),
        )
        for phase, fraction in phases.items()
    }


def _table3_cells(rows: list[Table3Row]) -> dict:
    base = rows[0].bytes
    return {
        (r.config, column): value
        for r in rows
        for column, value in (
            ("read", r.bytes.read / 2**20),
            ("send", r.bytes.decoded / 2**20),
            ("read/baseline", r.bytes.read / base.read),
            ("send/baseline", r.bytes.decoded / base.decoded),
        )
    }


def _dedupe_model_cells(points: list[DedupeModelPoint]) -> dict:
    return {
        (f"S={p.samples_per_session:.0f} d={p.d:.2f}", column): getattr(p, column)
        for p in points
        for column in ("modeled", "measured")
    }


def _nested(rows: Mapping[str, Mapping[str, object]]) -> dict:
    """The ``cells`` of a driver that returns ``{row label: {column:
    value}}``."""
    return {(label, column): v for label, cells in rows.items() for column, v in cells.items()}


def _freshness_cells(runs: Mapping[str, MultiJobResult]) -> dict:
    """Both policies' lag percentiles (per job, its p99), then the p99
    cut and the SLO that drove it."""
    cells = {}
    for label, run in runs.items():
        cells[label, "p50"] = run.tier.freshness.p50_lag_seconds * 1e3
        cells[label, "p99"] = run.tier.freshness.p99_lag_seconds * 1e3
        for job in run.jobs:
            cells[label, job.name] = run.tier.job_freshness(job.name).p99_lag_seconds * 1e3
    rr, wt = (runs[k].tier.freshness.p99_lag_seconds for k in ("round_robin", "freshness-weighted"))
    cells["p99 lag reduction", ""] = 1.0 - wt / rr
    cells["p99 lag reduction", "SLO target"] = _FRESHNESS_SLO * 1e3
    return cells


#: what each driver parameter a flag sets must be: its one input check
_INPUTS = {
    "scale": ("positive", lambda v: v > 0),
    "num_sessions": ("positive", lambda v: v > 0),
    "seed": ("non-negative", lambda v: v >= 0),
}


def _checked(driver: Callable) -> Callable:
    """``driver``, first raising ``ValueError`` naming a parameter its ``_INPUTS`` rule rejects."""
    @wraps(driver)
    def run(*args, **kwargs):
        for param, value in signature(driver).bind(*args, **kwargs).arguments.items():
            if param in _INPUTS and not _INPUTS[param][1](value):
                raise ValueError(f"{param} must be {_INPUTS[param][0]}, got {value}")
        return driver(*args, **kwargs)

    return run


_SEED = {"seed": "seed"}
_SESSIONS = {"sessions": "num_sessions", **_SEED}
_STATS = {"sessions_large": "num_sessions", **_SEED}
_SESSION = {"scale": "scale", **_SESSIONS}

_X, _COUNT, _PERCENT, _FRACTION = "{:.2f}x", "{:.0f}", "{:.0%}", "{:.3f}"
_PARTITION, _BATCH = "partition samples/session", "batch(4096) samples/session"
_EXACT, _PARTIAL = "exact duplicate fraction", "partial duplicate fraction"
_REPEATS = "rows updated in >1 iteration"

#: subcommand name -> the figure it regenerates
FIGURES: dict[str, Figure] = {
    "fig3": _single(
        fig3_session_histogram, _STATS, "Figure 3 — samples per session",
        (_PARTITION, "mean", lambda r: r.partition_stats["mean"], "{:.2f}", "16.5"),
        (_PARTITION, "p50", lambda r: r.partition_stats["p50"], _COUNT, None),
        (_PARTITION, "p99", lambda r: r.partition_stats["p99"], _COUNT, None),
        (_PARTITION, "max", lambda r: r.partition_stats["max"], _COUNT, None),
        ("sessions with >1000 samples", "", lambda r: r.partition_stats["tail_1000"], _COUNT,
         "'significant tail'"),
        (_BATCH, "interleaved", "batch_mean_interleaved", "{:.2f}", 1.15),
        (_BATCH, "clustered", "batch_mean_clustered", "{:.2f}", "~16.5"),
    ),
    "fig4": _single(
        fig4_duplication, _STATS, "Figure 4 — feature duplication",
        (_EXACT, "mean", "mean_exact", _FRACTION, 0.800),
        (_EXACT, "byte-weighted", "byte_weighted_exact", _FRACTION, 0.816),
        (_EXACT, "user features", partial(_mean_exact, FeatureKind.USER), _FRACTION, None),
        (_EXACT, "item features", partial(_mean_exact, FeatureKind.ITEM), _FRACTION, None),
        (_PARTIAL, "mean", "mean_partial", _FRACTION, 0.839),
        (_PARTIAL, "byte-weighted", "byte_weighted_partial", _FRACTION, 0.894),
    ),
    "fig7": Figure(
        fig7_end_to_end,
        _columns("rm", trainer="trainer_x", reader="reader_x", storage="storage_x", scribe="scribe_x"),
        _SESSION,
        "Figure 7 — end-to-end gains",
        dict.fromkeys(("trainer", "reader", "storage", "scribe"), _X),
        _paper(
            ("trainer", "reader", "storage"),
            {"RM1": (2.48, 1.79, 3.71), "RM2": (1.25, 1.38, 3.71), "RM3": (1.43, 1.36, 2.06)},
        ),
        grid=_fig7_grid,
        rows=_fig7_rows,
    ),
    "fig8": Figure(
        fig8_iteration_breakdown, _breakdown_cells, _SESSION,
        "Figure 8 — iteration breakdown (fractions of the baseline iteration)",
        grid=partial(_breakdown_grid, "fig8"),
        rows=partial(_phase_rows, IterationBreakdown, ("training", "mean_breakdown")),
    ),
    "ablation": Figure(
        fig9_ablation,
        _columns("label", qps="qps", normalized="normalized"),
        _SESSION,
        "Figure 9 — RM1 ablation",
        {"qps": "{:.1f}", "normalized": _X},
        {
            ("Baseline B1x", "normalized"): 1.0,
            ("O2 CT", "normalized"): 1.0,
            ("+O5 DE +O6 JIS B2x", "normalized"): 1.34,  # @ B4096
            ("+O7 DC B2x", "normalized"): 2.42,
            ("+B3x", "normalized"): 2.48,  # @ B6144
        },
        grid=_fig9_grid,
        rows=_fig9_rows,
    ),
    "fig10": Figure(
        fig10_reader_cpu, _breakdown_cells, _SESSION,
        "Figure 10 — reader CPU breakdown (fractions of the baseline reader CPU)",
        grid=partial(_breakdown_grid, "fig10", shared={"train.train_batches": 1}),
        rows=partial(_phase_rows, ReaderCpuBreakdown, ("fleet", "merged", "cpu")),
    ),
    "table2": Figure(
        table2_resource_util,
        _columns("config", qps="norm_qps", max_mem="max_mem_util", avg_mem="avg_mem_util",
                 eff="norm_compute_efficiency"),
        _SESSION,
        "Table 2 — RM1 resource utilization",
        {"max_mem": "{:.1%}", "avg_mem": "{:.1%}"},
        _paper(
            ("qps", "max_mem", "avg_mem", "eff"),
            {
                "Baseline": (1.00, 0.999, 0.728, 1.00),
                "RecD": (1.89, 0.278, 0.222, 1.73),
                "RecD + EMB D1.5x": (1.55, 0.409, 0.312, 1.92),  # paper row: D256
                "RecD + B3x": (2.26, 0.918, 0.516, 2.12),  # paper row: B6144
            },
        ),
    ),
    "table3": Figure(
        table3_reader_bytes, _table3_cells, _SESSION, "Table 3 — reader bytes",
        {"read": "{:.2f} MB", "send": "{:.2f} MB"},
        _paper(
            ("read", "send"),
            {
                "Baseline": ("538 GB", "837 GB"),
                "with Cluster": ("179 GB", "837 GB"),
                "with IKJT": ("179 GB", "713 GB"),
            },
        ),
    ),
    "table4": _single(
        table4_opt_summary, _SESSION, "Table 4 — per-optimization impacts (RM1)",
        ("O1", "scribe compression", "scribe_x", _X, 1.50),
        ("O2", "storage compression", "storage_x", _X, 3.71),
        ("O2", "reader fill time cut", "fill_cut", _PERCENT, 0.50),
        ("O3", "convert time increase", "convert_up", _PERCENT, 0.21),
        ("O4", "process time cut", "process_cut", _PERCENT, 0.13),
        ("O5+O6", "trainer throughput", "o56_x", _X, 1.34),  # @ B4096
        ("O7 full stack", "trainer throughput", "o7_x", _X, 2.48),  # @ B6144
    ),
    "scribe": _single(
        scribe_sharding_compression, _SESSION, "Scribe sharding (O1)",
        ("random sharding", "compression", "random", _X, 1.50),
        ("session sharding", "compression", "session", _X, 2.25),
        ("relative gain", "", lambda res: res["session"] / res["random"], _X, 1.50),
    ),
    "single-node": _single(
        single_node_speedup, _SESSION, "Single-node training (§6.2)",
        ("baseline", "QPS", "baseline", _COUNT, None),
        ("RecD", "QPS", "recd", _COUNT, None),
        ("speedup", "", "speedup", _X, 2.18),
        grid=_single_node_grid,
        rows=_single_node_rows,
    ),
    "accuracy": _single(
        accuracy_clustering, _SESSION, "Clustering accuracy mechanism (§6.2)",
        ("interleaved (baseline)", _REPEATS, "interleaved_repeat_fraction", _FRACTION, None),
        ("interleaved (baseline)", "mean training loss", "interleaved_loss", "{:.4f}", None),
        ("clustered (O2)", _REPEATS, "clustered_repeat_fraction", _FRACTION, None),
        ("clustered (O2)", "mean training loss", "clustered_loss", "{:.4f}", None),
    ),
    "dedupe-model": Figure(
        dedupe_factor_model_sweep, _dedupe_model_cells, _SEED,
        "DedupeFactor model validation (§4.2)",
    ),
    "partial": _single(
        partial_vs_exact, _SESSIONS, "Partial IKJTs (§7)",
        # the paper's two fractions are of duplicated *bytes*
        ("exact", "dedupe factor", "exact_factor", _X, None),
        ("exact", "values captured", "exact_captured_fraction", "{:.1%}", 0.816),
        ("partial", "dedupe factor", "partial_factor", _X, None),
        ("partial", "values captured", "partial_captured_fraction", "{:.1%}", 0.894),
    ),
    "downsampling": Figure(
        per_session_downsampling, _nested, _SESSIONS, "Per-session downsampling (§7)",
        {"samples": _COUNT, "dedupe factor": _X},
    ),
    "grouping": Figure(
        grouping_ablation, _nested, _SEED, "Grouping ablation (§4.2)",
        {**dict.fromkeys(("grouped bytes", "2x singleton bytes", "lookups saved"), _COUNT),
         "lossless": "{}"},
    ),
    "comm-overlap": Figure(
        comm_overlap_sweep, _nested, _SESSION, "Overlap ablation (RM1, same batch size)",
        {"RecD/baseline": _X},
        # the paper's overlap is not reported; its number sits beside the
        # most-overlapped point
        {("overlap 0.75", "RecD/baseline"): "RM1 ~1.8x at equal batch, a 44% iteration cut"},
    ),
    "threshold": Figure(
        dedup_threshold_sweep, _nested, _SEED, "Dedup threshold sweep (§7)",
        {"#dedup": _COUNT, "batch bytes": _COUNT},
    ),
    "encodings": Figure(
        encoding_sizes, _nested, _SEED, "Column encoding sizes",
        {**{enc.name: _COUNT for enc in IntEncoding}, "chosen": "{}"},
    ),
    "freshness": Figure(
        freshness_scheduling, _freshness_cells, _SESSION,
        "Stream freshness: lag-boosted weights vs round-robin",
        {
            **dict.fromkeys(("p50", "p99", "heavy", "light-a", "light-b"), "{:.1f} ms"),
            "": "{:.1%}",
            "SLO target": "{:.0f} ms",
        },
    ),
    "o6-memory": _single(
        o6_memory_amplification, _SEED, "O6 memory amplification",
        ("dense intermediate", "cells", "dense", _COUNT, None),
        ("jagged gathered", "cells", "jagged", _COUNT, None),
        ("memory amplification", "", lambda r: r["dense"] / r["jagged"], _X, None),
    ),
}
# a direct call, FIGURES (the CLI) and the benchmark harness all run the checked driver
for _name, _fig in FIGURES.items():
    FIGURES[_name] = replace(_fig, run=_checked(_fig.run))
    globals()[_fig.run.__name__] = FIGURES[_name].run

#: the report sections of the two stored grids no subcommand runs, by
#: the experiment name the profiles store them under
_STORED = {
    "fleet_scaling": Figure(
        None, _fleet_cells, {}, "Fleet scaling: modeled scan throughput vs width",
        {
            **dict.fromkeys(("samples/s", "delivered samples/s"), "{:.1f}"),
            **dict.fromkeys(("wall", "decode wall", "transport wait"), "{:.2f} ms"),
            **dict.fromkeys(("vs serial", "speedup", "dedupe byte factor"), _X),
        },
        rows=_fleet_rows,
    ),
    "ingest_overlap": Figure(
        None, _nested, {}, "Ingest overlap: streaming vs materialized wall-clock attribution",
        dict.fromkeys(("reader_stall", "trainer_stall", "other"), "{:.1%}"),
        rows=_overlap_rows,
    ),
}
#: the ``fleet_scaling`` section, whose rows the benchmark harness checks
FLEET_SCALING = _STORED["fleet_scaling"]


def render_report(store: RunStore, profile: str | None = None) -> str:
    """Render every stored section as one text report: each figure with
    a grid, then :data:`FLEET_SCALING` and the ingest-overlap
    attribution, each from its latest stored run per label, through
    :func:`render`.  With no ``profile``, every profile in the store
    renders under its own heading, so no section mixes two profiles'
    runs.

    Sections missing from the store are noted, not fatal — so a
    partially populated store still renders what it has.
    """
    if profile is None:
        profiles = sorted({record.profile for record in store.query(kind="grid")})
        if profiles:
            return "\n".join(
                f"Profile {name!r}\n{'=' * (len(name) + 10)}\n\n" + render_report(store, name)
                for name in profiles
            )
    sections = {**{name: fig for name, fig in FIGURES.items() if fig.grid}, **_STORED}
    blocks = []
    for name, fig in sections.items():
        lines = [fig.title, "-" * len(fig.title)]
        try:
            lines.extend(render(fig, fig.rows(_latest_by_label(store, name, profile).values())))
        except LookupError as exc:
            lines.append(f"(not in store: {exc})")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
