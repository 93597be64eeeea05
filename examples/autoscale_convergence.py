"""Autoscaler convergence: feedback sizing vs the static-sweep optimum.

The reader tier must be wide enough that trainer steps never stall on
decode, and no wider (idle reader machines).  The statically-optimal
width can be found by sweeping fleet widths and checking each one's
modeled reader-stall — but production can't sweep; it has to *converge*.
This example does both on the same reader-bound workload:

1. run once, take the modeled per-epoch reader CPU and trainer step
   time, and sweep the width analytically (reader wall ~ CPU / width)
   to find the smallest width inside the target stall band;
2. run with a ``ScalingSpec`` and show the ``ScalingTrace`` converging
   to that same width in a couple of epochs, from below (grow) and from
   above (shrink with hysteresis).

Run:  python examples/autoscale_convergence.py
"""

from repro.datagen import rm1
from repro.pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    ScalingSpec,
    Session,
    TrainSpec,
)

TARGET_STALL = 0.10


def _job(
    num_readers: int,
    train_epochs: int = 1,
    scaling: ScalingSpec | None = None,
) -> JobSpec:
    return JobSpec(
        data=DataSpec(workload=rm1(scale=0.25), num_sessions=150, seed=3),
        reader=ReaderSpec(num_readers=num_readers),
        train=TrainSpec(
            train_epochs=train_epochs,
            train_batches=None,  # train the whole partition
            batch_size=64,
        ),
        scaling=scaling,
    )


def static_sweep(max_width: int = 32) -> int:
    """Find the statically-optimal width from one profiled run."""
    res = Session(_job(num_readers=1)).run()
    reader_cpu = res.fleet.merged.cpu.total
    trainer_busy = sum(
        it.iteration_seconds for it in res.training.iterations
    )
    print(
        f"profiled epoch: reader CPU {reader_cpu * 1e3:.1f} ms, "
        f"trainer busy {trainer_busy * 1e3:.1f} ms "
        f"({len(res.training.iterations)} steps)"
    )
    print(f"\n{'width':>5}  {'reader wall':>11}  {'stall':>6}  in band?")
    best = max_width
    for width in range(1, max_width + 1):
        wall = reader_cpu / width
        stall = max(0.0, wall - trainer_busy) / max(wall, trainer_busy)
        ok = stall <= TARGET_STALL
        if ok and width < best:
            best = width
        if width <= 4 or abs(width - best) <= 2 or width == max_width:
            print(
                f"{width:5d}  {wall * 1e3:9.1f}ms  {stall:6.2f}  "
                f"{'yes' if ok else 'no'}"
            )
    print(f"\nstatically-optimal width: {best}")
    return best


def autoscaled_run(initial: int, label: str) -> int:
    """One autoscaled run; print its ScalingTrace."""
    res = Session(
        _job(
            num_readers=initial,
            train_epochs=5,
            scaling=ScalingSpec(target_stall=TARGET_STALL),
        )
    ).run()
    trace = res.scaling
    print(f"\n{label} (initial width {initial}):")
    for d in trace.decisions:
        print(
            f"  epoch {d.epoch}: width {d.width_before:3d}, "
            f"reader-stall {d.reader_stall_fraction:.2f} / "
            f"trainer {d.trainer_stall_fraction:.2f} -> "
            f"{d.action:6s} -> width {d.width_after}"
        )
    print(
        f"  converged at epoch {trace.converged_epoch}, "
        f"final width {trace.final_width}"
    )
    return trace.final_width


def main() -> None:
    optimal = static_sweep()
    from_below = autoscaled_run(1, "autoscale from under-provisioned")
    from_above = autoscaled_run(32, "autoscale from over-provisioned")
    print(
        f"\nstatic optimum {optimal}, autoscaled from below -> "
        f"{from_below}, from above -> {from_above}"
    )


if __name__ == "__main__":
    main()
