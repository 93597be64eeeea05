"""Multi-job sharing: one reader tier vs statically partitioned fleets.

The paper's disaggregated preprocessing tier serves *many* training
jobs from one pool of readers.  This example shows why that beats
giving each job its own statically sized fleet, on two jobs with
deliberately different reader demand:

* **job A** — baseline toggles: the reader pipeline decodes duplicated
  sessions the expensive way (reader-heavy);
* **job B** — full RecD (O1–O7): IKJT readers do a fraction of the
  work (reader-light).

Three deployments of the same 2N workers, same jobs, same batches:

1. **isolated halves** — each job owns a private N-worker fleet (the
   static split a per-job platform would provision).  The reader-heavy
   job straggles while the reader-light job's workers idle.
2. **shared tier** — one ``SharedReaderTier`` of 2N workers with the
   stall-weighted allocation: after the first (evenly split) round the
   scheduler follows observed reader demand and shifts workers from B
   to A, so the tier's per-round wall drops below the static split's.
3. **sequential isolation** — each job alone on the full 2N workers,
   one after the other: what you pay without any sharing at all.

Per-job losses are bit-identical in all three deployments — sharing
moves wall-clock, never training results.

A coda shows two per-job knobs that compose with sharing because every
shape runs the same ``Session`` loop: a scheduling **weight** biasing the
stall-weighted surplus toward a priority job, and **rolling-window
retention** (land → train → age) running *inside* the shared tier with
losses bit-identical to the solo retention run.

Run:  python examples/multi_job_sharing.py
"""

from dataclasses import replace

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    RetentionSpec,
    Session,
    TrainSpec,
)

WIDTH = 16  # the shared tier's pooled workers (2N; halves get N each)


def _job(name: str, toggles: RecDToggles, seed: int) -> JobSpec:
    return JobSpec(
        data=DataSpec(
            workload=rm1(scale=0.25),
            toggles=toggles,
            num_sessions=60,
            seed=seed,
        ),
        reader=ReaderSpec(executor="inprocess"),
        train=TrainSpec(batch_size=32, train_batches=2, train_epochs=4),
        name=name,
    )


def main() -> None:
    job_a = _job("A", RecDToggles.baseline(), seed=1)  # reader-heavy
    job_b = _job("B", RecDToggles.full(), seed=2)      # reader-light

    shared = Session([job_a, job_b], width=WIDTH).run()
    half_a = Session([job_a], width=WIDTH // 2).run()
    half_b = Session([job_b], width=WIDTH // 2).run()
    full_a = Session([job_a], width=WIDTH).run()
    full_b = Session([job_b], width=WIDTH).run()

    print(f"shared tier ({WIDTH} workers, stall-weighted):")
    for rnd in shared.tier.rounds:
        alloc = " ".join(
            f"{name}={w}" for name, w in sorted(rnd.allocation.items())
        )
        print(
            f"  round {rnd.index}: {alloc}  "
            f"wall {rnd.modeled_wall_seconds * 1e3:.2f} ms"
        )

    shared_wall = shared.modeled_wall_seconds
    halves_wall = max(
        half_a.modeled_wall_seconds, half_b.modeled_wall_seconds
    )
    sequential_wall = (
        full_a.modeled_wall_seconds + full_b.modeled_wall_seconds
    )
    print(f"\nshared tier of {WIDTH}        : {shared_wall * 1e3:.2f} ms")
    print(
        f"two isolated fleets of {WIDTH // 2}: {halves_wall * 1e3:.2f} ms "
        "(concurrent, static split)"
    )
    print(
        f"jobs run back to back    : {sequential_wall * 1e3:.2f} ms "
        f"(each alone on {WIDTH})"
    )
    assert shared_wall < halves_wall, "sharing must beat the static split"
    assert shared_wall < sequential_wall

    # sharing never changes training results, only wall-clock
    assert (
        shared.job("A").training.losses == full_a.job("A").training.losses
    )
    assert (
        shared.job("B").training.losses == full_b.job("B").training.losses
    )
    print(
        f"\nsharing saves {100 * (1 - shared_wall / halves_wall):.1f}% "
        "of the static split's wall-clock; per-job losses bit-identical "
        "in every deployment"
    )

    # -- coda: weights and retention compose with sharing ------------------

    weighted = Session(
        [job_a.with_(name="vip", weight=3.0), job_a.with_(name="std")],
        width=WIDTH,
    ).run()
    rnd = weighted.tier.rounds[1]  # first demand-informed round
    print(
        f"\nweight 3:1 on equal-demand clones -> round 1 allocation "
        f"vip={rnd.allocation['vip']} std={rnd.allocation['std']}"
    )
    assert rnd.allocation["vip"] > rnd.allocation["std"]

    retained = job_a.with_(
        name="ret",
        data=replace(job_a.data, num_partitions=4),
        train=replace(job_a.train, train_epochs=3),
        retention=RetentionSpec(window=2),
    )
    mixed = Session([retained, job_b], width=WIDTH).run()
    solo = Session(retained).run()
    assert mixed.job("ret").training.losses == solo.training.losses
    assert mixed.job("ret").dropped_partitions == solo.dropped_partitions
    print(
        "retention under sharing: windows "
        f"{mixed.job('ret').epoch_partitions}, dropped "
        f"{mixed.job('ret').dropped_partitions} — losses bit-identical "
        "to the solo retention run"
    )


if __name__ == "__main__":
    main()
