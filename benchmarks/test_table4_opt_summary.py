"""E9 / Table 4: per-optimization impact summary for RM1.

Paper: O1 improves Scribe compression 1.50x; O1+O2 improve storage
compression 3.71x and cut reader fill time 50%; O3 raises convert time
21% (net -0.01x reader); O4 cuts process time 13% (net +0.01x); O5+O6
give 1.34x training throughput @ 2x batch; O7 reaches 2.48x @ 3x batch.
"""

import pytest

from repro.datagen import rm1
from repro.experiments.figures import fig9_ablation
from repro.pipeline import (
    DataSpec,
    JobSpec,
    RecDToggles,
    Session,
    TrainSpec,
)


@pytest.fixture(scope="module")
def summary():
    w = rm1(scale=1.0)
    sessions = 220

    def pipeline(toggles):
        return Session(
            JobSpec(
                data=DataSpec(
                    workload=w, toggles=toggles, num_sessions=sessions
                ),
                train=TrainSpec(
                    train_batches=1, batch_size=w.baseline_batch_size
                ),
            )
        ).run()

    base = pipeline(RecDToggles.baseline())
    o1 = pipeline(RecDToggles(o1_shard_by_session=True))
    o2 = pipeline(
        RecDToggles(o1_shard_by_session=True, o2_cluster_table=True)
    )
    o3 = pipeline(
        RecDToggles(
            o1_shard_by_session=True,
            o2_cluster_table=True,
            o3_ikjt=True,
            o5_dedup_emb=True,
            o6_jagged_index_select=True,
        )
    )
    ablation = fig9_ablation(scale=1.0, num_sessions=sessions)
    return {"base": base, "o1": o1, "o2": o2, "o3": o3, "ablation": ablation}


def test_table4_opt_summary(benchmark, emit, summary):
    benchmark.pedantic(lambda: summary, rounds=1, iterations=1)
    base, o1, o2, o3 = (
        summary["base"],
        summary["o1"],
        summary["o2"],
        summary["o3"],
    )
    ablation = summary["ablation"]
    scribe_x = o1.scribe_compression / base.scribe_compression
    storage_x = o2.storage_compression / base.storage_compression
    fill_cut = 1.0 - o2.reader.cpu.fill / base.reader.cpu.fill
    convert_up = o3.reader.cpu.convert / o2.reader.cpu.convert - 1.0
    process_cut = 1.0 - o3.reader.cpu.process / o2.reader.cpu.process
    o56_x = ablation[2].normalized
    o7_x = ablation[4].normalized
    lines = [
        f"O1 scribe compression gain   : {scribe_x:.2f}x  (paper: 1.50x)",
        f"O2 storage compression gain  : {storage_x:.2f}x  (paper: 3.71x)",
        f"O2 reader fill time cut      : {100 * fill_cut:.0f}%  (paper: 50%)",
        f"O3 convert time increase     : {100 * convert_up:.0f}%  (paper: +21%)",
        f"O4 process time cut          : {100 * process_cut:.0f}%  (paper: 13%)",
        f"O5+O6 trainer throughput     : {o56_x:.2f}x  (paper: 1.34x @ B4096)",
        f"O7 full-stack throughput     : {o7_x:.2f}x  (paper: 2.48x @ B6144)",
    ]
    emit("Table 4 — per-optimization impacts (RM1)", lines)

    assert scribe_x > 1.15
    assert storage_x > 1.5
    assert fill_cut > 0.3
    assert convert_up > 0.0
    assert process_cut > 0.0
    assert o56_x > 1.0
    assert o7_x > o56_x
