"""Fault injection: chaos that never changes a single loss bit.

The paper's shared reader tier serves jobs in a world where reader
workers crash, shards straggle, and jobs get preempted for higher
priorities — yet training results must not depend on any of it.  This
example runs the ``churn`` scenario (two jobs, a mid-run arrival, two
crashes, a straggler, and a preempt/checkpoint/resume cycle) and then
proves the two guarantees the simulator is built around:

1. **Bit-identity** — every job's stitched loss trajectory (the epochs
   before preemption + the resumed tail, restored from the snapshot the
   session kept in its own ``ModelStore``) equals the same job run on a
   clean, fault-free tier (``Scenario.baseline()``), float for float;
2. **Replayability** — rerunning the same seed reproduces the identical
   fault trace and ``SLOReport``, so a chaos run is as debuggable as a
   deterministic test.

What *does* change under faults is the modeled cost surface: the SLO
report shows the wasted CPU the crash redid, the straggler-dilated
rounds, and the queue time the preempted job paid while descheduled.

Run:  python examples/fault_injection.py
"""

from repro.sim import build_scenario

SEED = 7


def main() -> None:
    scenario = build_scenario("churn", seed=SEED, scale=0.2)
    result = scenario.run()

    print(f"scenario: {scenario.name} — {scenario.description}\n")
    print("fault trace (as applied):")
    for ev in result.trace:
        extras = {
            k: v
            for k, v in ev.items()
            if k not in ("round", "job", "event")
        }
        print(f"  round {ev['round']}: {ev['event']} {ev['job']} {extras}")

    # Guarantee 1: chaos never touches training results.
    baseline = scenario.baseline()
    for name, losses in sorted(result.losses.items()):
        assert losses == baseline[name], f"{name} diverged under faults!"
        print(
            f"  {name}: {len(losses)} losses, bit-identical to clean run"
        )

    # Guarantee 2: the same seed replays to the same fingerprint.
    replay = scenario.run()
    assert replay.fingerprint() == result.fingerprint()
    print("\nreplay of the same seed: identical fingerprint")

    # What faults *do* change: the modeled SLO surface.
    slo = result.slo
    print(
        f"\nSLO under churn: p50 wall {slo.p50_wall_seconds * 1e3:.2f} ms,"
        f" p99 wall {slo.p99_wall_seconds * 1e3:.2f} ms"
    )
    print(
        f"  {slo.crashes} crash(es) wasted "
        f"{slo.wasted_cpu_seconds * 1e3:.2f} ms of reader CPU "
        f"({100 * (1 - slo.useful_cpu_fraction):.1f}% of the total); "
        f"{slo.straggler_shards} straggler shard(s); "
        f"{slo.preemptions} preemption(s)"
    )
    worst = max(slo.jobs, key=lambda j: j.queue_fraction)
    print(
        f"  worst queue share: {worst.job} spent "
        f"{100 * worst.queue_fraction:.1f}% of its in-system wall "
        "waiting (starved or descheduled)"
    )


if __name__ == "__main__":
    main()
