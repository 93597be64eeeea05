"""Ablation: communication/compute overlap and the throughput gap.

The default latency model exposes all communication (overlap = 0), which
is why this reproduction's trainer multipliers overshoot the paper's
(the measured and paper cells of ``benchmarks/results/fig7.txt``'s
trainer column).  This bench sweeps the overlap fraction
and shows the RecD-vs-baseline multiplier shrinking toward the paper's
band as overlap grows — quantifying that the gap is an overlap-modeling
artifact, not a dedup-accounting one.
"""

from repro.datagen import TraceConfig, generate_partition, rm1
from repro.distributed import (
    DistributedTrainer,
    TrainerCostConstants,
    sim_cluster,
)
from repro.etl import cluster_by_session
from repro.reader import DataLoaderConfig, convert_rows
from repro.trainer import DLRM, DLRMConfig, TrainerOptFlags


def _batches(w, dedup, batch_size, n=2, seed=0):
    samples = cluster_by_session(
        generate_partition(w.schema, 220, TraceConfig(seed=seed))
    )
    if dedup:
        cfg = DataLoaderConfig(
            batch_size=batch_size,
            sparse_features=tuple(
                f.name for f in w.schema.sparse
                if f.name not in w.dedup_feature_names
            ),
            dedup_sparse_features=w.dedup_groups,
            dense_features=tuple(w.schema.dense_names),
        )
    else:
        cfg = DataLoaderConfig(
            batch_size=batch_size,
            sparse_features=tuple(w.schema.sparse_names),
            dense_features=tuple(w.schema.dense_names),
        )
    return [
        convert_rows(samples[i * batch_size : (i + 1) * batch_size], cfg)[0]
        for i in range(n)
    ]


def test_overlap_sweep(benchmark, emit):
    w = rm1(scale=1.0)
    cluster = sim_cluster(num_gpus=48)
    base_batches = _batches(w, False, w.baseline_batch_size)
    recd_batches = _batches(w, True, w.baseline_batch_size)

    def sweep():
        rows = []
        for overlap in (0.0, 0.25, 0.5, 0.75):
            cc = TrainerCostConstants(comm_overlap_fraction=overlap)
            qps = {}
            for name, flags, batches in [
                ("base", TrainerOptFlags.baseline(), base_batches),
                ("recd", TrainerOptFlags.full(), recd_batches),
            ]:
                model = DLRM(
                    list(w.schema.sparse),
                    DLRMConfig.from_workload(w, max_table_rows=1000, seed=1),
                    flags,
                )
                rep = DistributedTrainer(model, cluster, cc).run(batches)
                qps[name] = rep.mean_samples_per_second
            rows.append((overlap, qps["recd"] / qps["base"]))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["overlap  RecD/baseline multiplier (same batch size)"]
    for overlap, mult in rows:
        lines.append(f"{overlap:7.2f}  {mult:6.2f}x")
    lines.append("paper RM1 at equal batch: ~1.8x (44% iteration cut)")
    emit("Overlap ablation", lines)

    mults = dict(rows)
    # more overlap -> baseline hides more A2A -> RecD's relative win shrinks
    assert mults[0.75] < mults[0.25] <= mults[0.0]
    # RecD still wins at every overlap level
    assert all(m > 1.2 for m in mults.values())
