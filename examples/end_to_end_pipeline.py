"""The full Figure-1 pipeline, baseline vs RecD, side by side.

Runs RM1 through every stage — inference logging, Scribe transport (O1),
ETL join + clustering (O2), DWRF landing on Tectonic, the reader tier
(O3/O4), and distributed training (O5–O7) — and prints a miniature
version of Figure 7's end-to-end comparison.

Run:  python examples/end_to_end_pipeline.py
"""

from repro.datagen import rm1
from repro.experiments import FIGURES
from repro.pipeline import (
    DataSpec,
    JobSpec,
    RecDToggles,
    Session,
    TrainSpec,
)


def describe(tag: str, res) -> None:
    bd = res.training.mean_breakdown
    t = bd.total or 1.0
    print(f"\n[{tag}]")
    print(f"  samples landed            : {res.samples_landed}")
    print(f"  scribe compression        : {res.scribe_compression:.2f}x")
    print(f"  storage compression       : {res.storage_compression:.2f}x")
    print(
        f"  reader                    : {res.reader_qps:,.0f} samples/cpu-s, "
        f"read {res.reader.bytes.read / 2**20:.1f} MB, "
        f"sent {res.reader.bytes.decoded / 2**20:.1f} MB"
    )
    print(
        f"  trainer                   : {res.trainer_qps:,.0f} samples/s "
        f"(iteration: emb {bd.emb_lookup / t:.0%}, gemm {bd.gemm / t:.0%}, "
        f"a2a {bd.a2a / t:.0%}, other {bd.other / t:.0%})"
    )


def main() -> None:
    workload = rm1(scale=0.5)
    print(
        f"workload {workload.name}: "
        f"{len(workload.schema.sparse)} sparse features, "
        f"{len(workload.dedup_groups)} dedup groups, "
        f"batch {workload.baseline_batch_size} -> {workload.recd_batch_size}"
    )

    def run(toggles: RecDToggles):
        return Session(
            JobSpec(
                data=DataSpec(
                    workload=workload, toggles=toggles, num_sessions=200
                ),
                train=TrainSpec(train_batches=3),
            )
        ).run()

    base = run(RecDToggles.baseline())
    describe("baseline", base)

    recd = run(RecDToggles.full())
    describe("RecD (O1-O7)", recd)

    # the paper's values are declared once, in the FIGURES table
    fig7, scribe = FIGURES["fig7"].paper, FIGURES["scribe"].paper
    print("\n== end-to-end gains (Fig 7 shape) ==")
    for name, metric, paper in (
        ("trainer throughput", "trainer_qps", fig7["RM1", "trainer"]),
        ("reader throughput", "reader_qps", fig7["RM1", "reader"]),
        ("storage compression", "storage_compression", fig7["RM1", "storage"]),
        ("scribe compression", "scribe_compression", scribe["relative gain", ""]),
    ):
        gain = getattr(recd, metric) / getattr(base, metric)
        print(f"  {name:<19}: {gain:.2f}x  (paper RM1: {paper:.2f}x)")


if __name__ == "__main__":
    main()
