"""Reader-fleet sizing: RecD's reader wins translate to fewer machines.

The deployed system scales the reader tier to match trainer ingestion
bandwidth (§2.1); because RecD speeds up each reader (Fig 7: 1.79x for
RM1) *and* speeds up the trainers it must feed, the fleet math changes
on both sides.  This example measures both throughputs on a landed
partition, prints the provisioning outcome, then runs a streaming
multi-partition epoch to show where the wall-clock actually goes:
reader-stall (trainers starved) vs trainer-stall (readers ahead).

Run:  python examples/reader_tier_sizing.py
"""

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    Session,
    TrainSpec,
    land_table,
)
from repro.reader import ReaderFleet, readers_required


def main() -> None:
    w = rm1(scale=0.5)

    results = {}
    for name, toggles in [
        ("baseline", RecDToggles.baseline()),
        ("RecD", RecDToggles.full()),
    ]:
        results[name] = Session(
            JobSpec(
                data=DataSpec(workload=w, toggles=toggles, num_sessions=200),
                train=TrainSpec(train_batches=2),
            )
        ).run()

    print("per-node throughputs:")
    for name, res in results.items():
        print(
            f"  {name:8s}: reader {res.reader_qps:10,.0f} samples/cpu-s, "
            f"trainer {res.trainer_qps:10,.0f} samples/s"
        )

    print("\nreader fleet needed to keep trainers fed (10% headroom):")
    for name, res in results.items():
        plan = readers_required(res.trainer_qps, res.reader_qps)
        print(
            f"  {name:8s}: {plan.num_readers:4d} readers "
            f"(trainers demand {plan.trainer_samples_per_s:,.0f}/s, "
            f"each reader supplies {plan.reader_samples_per_s:,.0f}/s)"
        )

    # run an actual sharded fleet over the RecD partitions: N worker
    # processes (named explicitly — the default executor is the serial
    # in-process one) scan disjoint row-range shards and stream batches
    # through bounded prefetch queues (depth 2), bit-identical to the
    # serial reader's output; only these real queues have waits
    recd_data = DataSpec(
        workload=w,
        toggles=RecDToggles.full(),
        num_sessions=200,
        num_partitions=2,
    )
    recd_job = JobSpec(data=recd_data)
    table, _, _, partitions, _ = land_table(recd_job)
    plan = readers_required(
        results["RecD"].trainer_qps, results["RecD"].reader_qps
    )
    fleet = ReaderFleet(
        min(plan.num_readers, 8),
        recd_job.dataloader_config(),
        executor="process",
    )
    batches = fleet.run_epoch(table, [p.name for p in partitions])
    rep = fleet.report
    merged = rep.merged
    print(
        f"\nfleet epoch over {len(partitions)} partitions: "
        f"{len(rep.workers)} shard workers ({rep.executor_used}) "
        f"processed {merged.samples} samples in {len(batches)} batches; "
        f"modeled wall-clock {rep.modeled_wall_seconds * 1e3:.1f} ms "
        f"(vs {merged.cpu.total * 1e3:.1f} ms single-node CPU); "
        f"queue wait put {rep.queue.put_wait * 1e3:.1f} ms / "
        f"get {rep.queue.get_wait * 1e3:.1f} ms"
    )

    # A/B the streaming hand-off: same batches, same losses — but only
    # the streaming path overlaps reader decode (in real worker
    # processes) with trainer steps, and only there does OverlapReport
    # show who stalls whom
    print("\nstreaming vs materialized (2 partitions x 2 epochs):")
    for label, streaming in [("streaming", True), ("materialized", False)]:
        res = Session(
            JobSpec(
                data=recd_data,
                reader=ReaderSpec(
                    num_readers=4, executor="process", streaming=streaming
                ),
                train=TrainSpec(train_epochs=2, train_batches=4),
            )
        ).run()
        ov = res.overlap
        print(
            f"  {label:12s}: {len(res.training.iterations)} steps in {ov.wall_seconds:.3f}s "
            f"wall — reader-stall {100 * ov.reader_stall_fraction:5.1f}%, "
            f"trainer {100 * ov.trainer_stall_fraction:5.1f}%, "
            f"other {100 * ov.other_fraction:5.1f}% "
            f"(losses fingerprint {sum(res.training.losses):.6f})"
        )


if __name__ == "__main__":
    main()
