"""Experiment drivers: one function per paper figure/table (§3, §6).

Each driver runs the relevant configurations through the pipeline and
returns a small result object whose fields mirror the paper's reported
rows/series.  The benchmark harness prints them; EXPERIMENTS.md records
paper-vs-measured.

The matrix-driven successors live in :mod:`repro.experiments`: the
same figures rendered from the results store
(:mod:`repro.experiments.report`), populated by ``repro experiments
run`` instead of re-executing configs inline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
from ..datagen.session import sample_session_sizes, session_size_stats
from ..datagen.workloads import RMWorkload, rm1, rm2, rm3
from ..metrics.breakdown import IterationBreakdown, ReaderCpuBreakdown
from ..metrics.ledger import ByteLedger
from ..reader.node import ReaderNode
from .config import RecDToggles
from .session import PipelineResult, Session, land_table
from .spec import DataSpec, JobSpec, TrainSpec

__all__ = [
    "Fig3Result",
    "fig3_session_histogram",
    "fig4_duplication",
    "Fig7Row",
    "fig7_end_to_end",
    "Fig8Row",
    "fig8_iteration_breakdown",
    "Fig9Stage",
    "fig9_ablation",
    "Table2Row",
    "table2_resource_util",
    "Table3Row",
    "table3_reader_bytes",
    "Fig10Row",
    "fig10_reader_cpu",
    "scribe_sharding_compression",
    "single_node_speedup",
    "AccuracyResult",
    "accuracy_clustering",
    "DedupeModelPoint",
    "dedupe_factor_model_sweep",
    "PartialResult",
    "partial_vs_exact",
]


# ---------------------------------------------------------------------------
# Fig 3: samples/session in partition vs in batch
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    """Fig 3: samples/session in the partition vs in a batch."""

    partition_stats: dict[str, float]
    batch_mean_interleaved: float
    batch_mean_clustered: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


def fig3_session_histogram(
    num_sessions: int = 100_000, batch_size: int = 4096, seed: int = 0
) -> Fig3Result:
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


# ---------------------------------------------------------------------------
# Fig 4: per-feature duplication
# ---------------------------------------------------------------------------


def fig4_duplication(
    num_features: int = 733, num_sessions: int = 20_000, seed: int = 0
) -> CharacterizationReport:
    """Fig 4 over a paper-shaped 733-feature schema."""
    return characterize_schema(
        characterization_schema(num_features=num_features),
        num_sessions=num_sessions,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Fig 7: end-to-end trainer / reader / storage across RMs
# ---------------------------------------------------------------------------


def _workloads(scale: float) -> list[RMWorkload]:
    return [rm1(scale), rm2(scale), rm3(scale)]


@dataclass
class Fig7Row:
    """Fig 7: one workload's end-to-end RecD-vs-baseline speedups."""

    rm: str
    trainer_x: float
    reader_x: float
    storage_x: float
    scribe_x: float
    baseline: PipelineResult
    recd: PipelineResult


def fig7_end_to_end(
    scale: float = 1.0,
    num_sessions: int = 250,
    train_batches: int = 2,
    seed: int = 0,
) -> list[Fig7Row]:
    """Fig 7: trainer/reader/storage/scribe speedups per workload."""
    rows = []
    for w in _workloads(scale):
        # RM3's production table exhibits fewer samples/session, which is
        # why its storage gain is smaller (§6.1: 2.06x vs 3.71x).
        if w.name == "RM3":
            sessions, s_mean = int(num_sessions * 3.0), 5.0
        else:
            sessions, s_mean = num_sessions, 16.5
        base, recd = (
            Session(
                JobSpec(
                    data=DataSpec(
                        workload=w,
                        toggles=toggles,
                        num_sessions=sessions,
                        mean_samples_per_session=s_mean,
                        seed=seed,
                    ),
                    train=TrainSpec(train_batches=train_batches),
                )
            ).run()
            for toggles in (RecDToggles.baseline(), RecDToggles.full())
        )
        rows.append(
            Fig7Row(
                rm=w.name,
                trainer_x=recd.trainer_qps / base.trainer_qps,
                reader_x=recd.reader_qps / base.reader_qps,
                storage_x=recd.storage_compression / base.storage_compression,
                scribe_x=recd.scribe_compression / base.scribe_compression,
                baseline=base,
                recd=recd,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig 8: iteration latency breakdown at equal batch size
# ---------------------------------------------------------------------------


@dataclass
class Fig8Row:
    """Fig 8: one workload's trainer iteration-latency breakdown."""

    rm: str
    baseline: IterationBreakdown
    recd: IterationBreakdown
    recd_normalized: dict[str, float]


def fig8_iteration_breakdown(
    scale: float = 1.0, num_sessions: int = 250, seed: int = 0
) -> list[Fig8Row]:
    """Fig 8 uses the *same batch size* as the baseline for each RM."""
    rows = []
    for w in _workloads(scale):
        base, recd = (
            Session(
                JobSpec(
                    data=DataSpec(
                        workload=w,
                        toggles=toggles,
                        num_sessions=num_sessions,
                        seed=seed,
                    ),
                    train=TrainSpec(batch_size=w.baseline_batch_size),
                )
            ).run()
            for toggles in (RecDToggles.baseline(), RecDToggles.full())
        )
        b = base.training.mean_breakdown
        r = recd.training.mean_breakdown
        rows.append(
            Fig8Row(
                rm=w.name,
                baseline=b,
                recd=r,
                recd_normalized=r.normalized_to(b),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig 9: RM1 ablation
# ---------------------------------------------------------------------------


@dataclass
class Fig9Stage:
    """Fig 9: one ablation stage's throughput and normalization."""

    label: str
    qps: float
    normalized: float


def fig9_ablation(
    scale: float = 1.0, num_sessions: int = 250, seed: int = 0
) -> list[Fig9Stage]:
    """Paper stages: Baseline(B2048) -> +CT -> +DE/JIS(B4096) ->
    +DC(B4096) -> +B6144; our batch sizes scale as B, B, 2B, 2B, 3B."""
    w = rm1(scale)
    B = w.baseline_batch_size
    stages = [
        ("Baseline B1x", RecDToggles.baseline(), B),
        ("O2 CT", RecDToggles(o1_shard_by_session=True, o2_cluster_table=True), B),
        (
            "+O5 DE +O6 JIS B2x",
            RecDToggles(
                o1_shard_by_session=True,
                o2_cluster_table=True,
                o3_ikjt=True,
                o5_dedup_emb=True,
                o6_jagged_index_select=True,
            ),
            2 * B,
        ),
        ("+O7 DC B2x", RecDToggles.full(), 2 * B),
        ("+B3x", RecDToggles.full(), 3 * B),
    ]
    results: list[Fig9Stage] = []
    base_qps: float | None = None
    for label, toggles, batch in stages:
        res = Session(
            JobSpec(
                data=DataSpec(
                    workload=w,
                    toggles=toggles,
                    num_sessions=num_sessions,
                    seed=seed,
                ),
                train=TrainSpec(batch_size=batch),
            )
        ).run()
        qps = res.trainer_qps
        if base_qps is None:
            base_qps = qps
        results.append(Fig9Stage(label=label, qps=qps, normalized=qps / base_qps))
    return results


# ---------------------------------------------------------------------------
# Table 2: trainer resource utilization for RM1
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    """Table 2: one configuration's resource-utilization summary."""

    config: str
    norm_qps: float
    max_mem_util: float
    avg_mem_util: float
    norm_compute_efficiency: float


def table2_resource_util(
    scale: float = 1.0, num_sessions: int = 250, seed: int = 0
) -> list[Table2Row]:
    """Table 2: QPS, memory utilization, and compute efficiency."""
    w = rm1(scale)
    B = w.baseline_batch_size
    # The paper reinvests RecD's freed memory in 2x embedding dims (128 ->
    # 256).  Our simulation frees a smaller fraction (see EXPERIMENTS.md),
    # so the equivalent "largest dim that fits" step is 1.5x.
    configs = [
        ("Baseline", w, RecDToggles.baseline(), B),
        ("RecD", w, RecDToggles.full(), B),
        (
            "RecD + EMB D1.5x",
            replace(w, embedding_dim=int(1.5 * w.embedding_dim)),
            RecDToggles.full(),
            B,
        ),
        ("RecD + B3x", w, RecDToggles.full(), 3 * B),
    ]
    runs = []
    for label, workload, toggles, batch in configs:
        res = Session(
            JobSpec(
                data=DataSpec(
                    workload=workload,
                    toggles=toggles,
                    num_sessions=num_sessions,
                    seed=seed,
                ),
                # small hash-capped tables keep dynamic activations the
                # dominant memory term, matching the paper's setting
                # (baseline Table 2 has ~80% of memory in dynamic state)
                train=TrainSpec(batch_size=batch, max_table_rows=500),
            )
        ).run()
        runs.append((label, res))
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


# ---------------------------------------------------------------------------
# Table 3: reader ingest & egress bytes for a fixed number of samples
# ---------------------------------------------------------------------------


@dataclass
class Table3Row:
    """Table 3: one configuration's reader ingest/egress bytes."""

    config: str
    bytes: ByteLedger


def table3_reader_bytes(
    scale: float = 1.0, num_sessions: int = 250, seed: int = 0
) -> list[Table3Row]:
    """Table 3: bytes read off storage and sent to trainers."""
    w = rm1(scale)
    B = w.baseline_batch_size
    variants = [
        ("Baseline", RecDToggles.baseline()),
        (
            "with Cluster",
            RecDToggles(o1_shard_by_session=True, o2_cluster_table=True),
        ),
        ("with IKJT", RecDToggles.full()),
    ]
    # a fixed number of samples across all variants
    rows: list[Table3Row] = []
    fixed_batches: int | None = None
    for label, toggles in variants:
        cfg = JobSpec(
            data=DataSpec(
                workload=w,
                toggles=toggles,
                num_sessions=num_sessions,
                seed=seed,
            ),
            train=TrainSpec(batch_size=B),
        )
        table, _, _, partitions, _ = land_table(cfg)
        if fixed_batches is None:
            fixed_batches = partitions[0].num_rows // B
        node = ReaderNode(cfg.dataloader_config())
        node.run_all(table.open_readers("p0"), max_batches=fixed_batches)
        rows.append(Table3Row(config=label, bytes=node.report.bytes))
    return rows


# ---------------------------------------------------------------------------
# Fig 10: reader CPU breakdown
# ---------------------------------------------------------------------------


@dataclass
class Fig10Row:
    """Fig 10: one workload's reader CPU-phase breakdown."""

    rm: str
    baseline: ReaderCpuBreakdown
    recd: ReaderCpuBreakdown
    recd_normalized: dict[str, float]


def fig10_reader_cpu(
    scale: float = 1.0, num_sessions: int = 200, seed: int = 0
) -> list[Fig10Row]:
    """Fig 10: Fill/Convert/Process CPU, baseline vs RecD."""
    rows = []
    for w in _workloads(scale):
        base, recd = (
            Session(
                JobSpec(
                    data=DataSpec(
                        workload=w,
                        toggles=toggles,
                        num_sessions=num_sessions,
                        seed=seed,
                    ),
                    train=TrainSpec(
                        train_batches=1, batch_size=w.baseline_batch_size
                    ),
                )
            ).run()
            for toggles in (RecDToggles.baseline(), RecDToggles.full())
        )
        rows.append(
            Fig10Row(
                rm=w.name,
                baseline=base.reader.cpu,
                recd=recd.reader.cpu,
                recd_normalized=recd.reader.cpu.normalized_to(base.reader.cpu),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# §6.1: Scribe sharding compression (O1 alone)
# ---------------------------------------------------------------------------


def scribe_sharding_compression(
    scale: float = 1.0, num_sessions: int = 300, seed: int = 0
) -> dict[str, float]:
    """Paper: 1.50x (random) -> 2.25x (session sharding)."""
    w = rm1(scale)
    ratios = {}
    for policy, toggles in (
        ("random", RecDToggles.baseline()),
        ("session", RecDToggles(o1_shard_by_session=True)),
    ):
        _, stats, _, _, _ = land_table(
            JobSpec(
                data=DataSpec(
                    workload=w,
                    toggles=toggles,
                    num_sessions=num_sessions,
                    seed=seed,
                )
            )
        )
        ratios[policy] = stats.compression_ratio
    return ratios


# ---------------------------------------------------------------------------
# §6.2: single-node training
# ---------------------------------------------------------------------------


def single_node_speedup(
    scale: float = 0.5, num_sessions: int = 250, seed: int = 0
) -> dict[str, float]:
    """Downsized RM1 on one 8-GPU node (NVLink): paper reports 2.18x."""
    w = rm1(scale)
    results = {}
    for name, toggles, batch in [
        ("baseline", RecDToggles.baseline(), w.baseline_batch_size),
        ("recd", RecDToggles.full(), w.recd_batch_size),
    ]:
        res = Session(
            JobSpec(
                data=DataSpec(
                    workload=w,
                    toggles=toggles,
                    num_sessions=num_sessions,
                    seed=seed,
                ),
                train=TrainSpec(
                    batch_size=batch, num_gpus=8, gpus_per_node=8
                ),
            )
        ).run()
        results[name] = res.trainer_qps
    results["speedup"] = results["recd"] / results["baseline"]
    return results


# ---------------------------------------------------------------------------
# §6.2: clustering's accuracy mechanism (repeat sparse updates)
# ---------------------------------------------------------------------------


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
    scale: float = 0.5, num_sessions: int = 200, train_batches: int = 6,
    seed: int = 0,
) -> AccuracyResult:
    """§6.2: training-accuracy parity of clustered vs interleaved."""
    w = rm1(scale)

    def run(clustered: bool):
        """One training run, clustered (O2) or interleaved."""
        toggles = (
            RecDToggles(o1_shard_by_session=True, o2_cluster_table=True)
            if clustered
            else RecDToggles.baseline()
        )
        return Session(
            JobSpec(
                data=DataSpec(
                    workload=w,
                    toggles=toggles,
                    num_sessions=num_sessions,
                    seed=seed,
                ),
                train=TrainSpec(
                    train_batches=train_batches,
                    batch_size=w.baseline_batch_size,
                    track_updates=True,
                ),
            )
        ).run()

    inter = run(False)
    clus = run(True)
    return AccuracyResult(
        interleaved_repeat_fraction=_repeat_fraction_for(w, False, num_sessions, train_batches, seed),
        clustered_repeat_fraction=_repeat_fraction_for(w, True, num_sessions, train_batches, seed),
        interleaved_loss=float(np.mean([r.loss for r in inter.training.iterations])),
        clustered_loss=float(np.mean([r.loss for r in clus.training.iterations])),
    )


def _repeat_fraction_for(
    w: RMWorkload, clustered: bool, num_sessions: int, train_batches: int,
    seed: int,
) -> float:
    """Fraction of touched embedding rows updated in >1 iteration."""
    from ..distributed.costmodel import sim_cluster
    from ..distributed.trainer import DistributedTrainer
    from ..trainer.model import DLRM, DLRMConfig

    toggles = (
        RecDToggles(o1_shard_by_session=True, o2_cluster_table=True)
        if clustered
        else RecDToggles.baseline()
    )
    cfg = JobSpec(
        data=DataSpec(
            workload=w,
            toggles=toggles,
            num_sessions=num_sessions,
            seed=seed,
        ),
        train=TrainSpec(
            train_batches=train_batches, batch_size=w.baseline_batch_size
        ),
    )
    table, _, _, _, _ = land_table(cfg)
    node = ReaderNode(cfg.dataloader_config())
    batches = node.run_all(table.open_readers("p0"), max_batches=train_batches)
    model = DLRM(
        list(w.schema.sparse),
        DLRMConfig.from_workload(w, max_table_rows=cfg.train.max_table_rows, seed=seed),
        toggles.trainer_flags,
    )
    trainer = DistributedTrainer(model, sim_cluster(num_gpus=8))
    trainer.run(batches, track_updates=True)
    touched = 0
    repeated = 0
    for t in model.sparse_arch.tables():
        for _, count in t.update_events.items():
            touched += 1
            if count > 1:
                repeated += 1
    return repeated / max(touched, 1)


# ---------------------------------------------------------------------------
# §4.2: the DedupeFactor analytical model vs measurement
# ---------------------------------------------------------------------------


@dataclass
class DedupeModelPoint:
    """One point of the §3 dedupe-factor model sweep."""

    samples_per_session: float
    d: float
    modeled: float
    measured: float


def dedupe_factor_model_sweep(seed: int = 0) -> list[DedupeModelPoint]:
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


# ---------------------------------------------------------------------------
# §7: partial IKJTs
# ---------------------------------------------------------------------------


@dataclass
class PartialResult:
    """Exact vs partial dedupe factors and captured fractions."""

    exact_factor: float
    partial_factor: float
    exact_captured_fraction: float
    partial_captured_fraction: float


def partial_vs_exact(
    num_sessions: int = 150, seed: int = 0
) -> PartialResult:
    """§7: partial IKJTs capture shifted lists exact dedup misses."""
    from ..datagen.schema import DatasetSchema, SparseFeatureSpec

    schema = DatasetSchema(
        sparse=(
            SparseFeatureSpec(
                "hist", avg_length=24, change_prob=0.35
            ),  # shifts often: partial's sweet spot
        )
    )
    samples = TraceGenerator(
        schema, TraceConfig(seed=seed)
    ).generate_partition(num_sessions)
    # cluster so duplicates are batch-local
    samples.sort(key=lambda s: (s.session_id, s.timestamp))
    rows = [s.sparse["hist"] for s in samples]
    jt = JaggedTensor.from_lists(rows)
    exact = measured_dedupe_factor(jt)
    partial = PartialJaggedTensor.from_jagged(jt).dedupe_factor()
    return PartialResult(
        exact_factor=exact,
        partial_factor=partial,
        exact_captured_fraction=1.0 - 1.0 / exact,
        partial_captured_fraction=1.0 - 1.0 / partial,
    )
