"""Command-line entry points: regenerate paper experiments from a shell.

Usage::

    python -m repro fig3
    python -m repro fig7 --scale 0.5 --sessions 150
    python -m repro ablation --scale 1.0
    python -m repro pipeline --rm RM2 --recd
    python -m repro multijob --jobs 2 --num-readers 8
    python -m repro multijob --job RM1 --job RM2:recd:sessions=80
    python -m repro stream --num-partitions 4 --freshness-slo 120 --verify
    python -m repro simulate --scenario stream-crash-resume --verify
    python -m repro list

The figure subcommands are the entries of
:data:`repro.experiments.figures.FIGURES`: each runs its driver with
the flags that driver reads and prints its rows.  The benchmark
harness (``benchmarks/test_*.py``) runs the same drivers but writes its
own rows to ``benchmarks/results/`` — several add paper reference
columns or baseline fractions these subcommands do not print.
"""

from __future__ import annotations

import argparse
import sys

from .datagen import WORKLOADS
from .experiments import (
    DEFAULT_STORE_PATH,
    FIGURES,
    PROFILES,
    RunStore,
    expand_grid,
    get_profile,
    render_report,
    run_grid,
    run_profile,
)
from .pipeline import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RecDToggles,
    RetentionSpec,
    ScalingSpec,
    Session,
    StreamSpec,
    TrainSpec,
)
from .sim import build_scenario, scenario_names

__all__ = ["main", "build_parser"]


def _cmd_figure(args) -> int:
    """Run the ``FIGURES`` entry the subcommand names, with the flags
    its driver reads, and print its rows."""
    fig = FIGURES[args.command]
    rows = fig.run(
        **{param: getattr(args, flag) for flag, param in fig.flags.items()}
    )
    print("\n".join(fig.lines(rows)))
    return 0


def _spec_from_args(
    args,
    *,
    shared: bool = False,
    rm: str | None = None,
    recd: bool | None = None,
    scale: float | None = None,
    name: str | None = None,
    weight: float = 1.0,
    dedup: bool | None = None,
    **overrides,
) -> JobSpec:
    """One :class:`JobSpec` from the spec-derived argument groups.

    Shared by ``pipeline`` (one job) and ``multijob`` (clones and
    ``--job`` specs): the flags each argument group contributes map
    1:1 onto the spec the group is named after, and ``overrides`` are
    per-job ``key=value`` refinements keyed like ``_JOB_SPEC_KEYS``.

    With ``shared=True`` the pool-level knobs (``--num-readers``,
    ``--autoscale``/``--target-stall``/``--max-readers``) stay off the
    per-job spec — they size and scale the *shared pool*, which the
    multijob command passes to ``Session(width=..., scaling=...)``.
    """
    rm = args.rm if rm is None else rm
    recd = args.recd if recd is None else recd
    scale = args.scale if scale is None else scale
    dedup = args.dedup if dedup is None else dedup
    toggles = RecDToggles.full() if recd else RecDToggles.baseline()
    get = overrides.get
    retain = get("retain_partitions", args.retain_partitions)
    return JobSpec(
        data=DataSpec(
            workload=WORKLOADS[rm](scale),
            toggles=toggles,
            num_sessions=get("num_sessions", args.sessions),
            num_partitions=get("num_partitions", args.num_partitions),
            seed=get("seed", args.seed),
        ),
        reader=ReaderSpec(
            num_readers=1 if shared else args.num_readers,
            prefetch_depth=args.prefetch_depth,
            executor=args.reader_executor,
            transport=args.transport,
            streaming=args.streaming,
            dedup=dedup,
        ),
        train=TrainSpec(
            train_epochs=get("train_epochs", args.train_epochs),
            train_batches=get("train_batches", args.train_batches),
            batch_size=get("batch_size", None),
        ),
        scaling=(
            ScalingSpec(
                target_stall=args.target_stall,
                max_readers=args.max_readers,
            )
            if args.autoscale and not shared
            else None
        ),
        retention=(
            RetentionSpec(window=retain) if retain is not None else None
        ),
        weight=weight,
        name=name,
    )


def _cmd_pipeline(args) -> int:
    res = Session(_spec_from_args(args)).run()
    mode = "RecD" if args.recd else "baseline"
    print(f"{args.rm} ({mode}):")
    print(f"  samples landed      : {res.samples_landed}")
    print(
        f"  partitions          : {len(res.partitions)} "
        f"({res.partition.num_rows} rows), {res.spec.train.train_epochs} epoch(s)"
    )
    print(f"  scribe compression  : {res.scribe_compression:.2f}x")
    print(f"  storage compression : {res.storage_compression:.2f}x")
    print(f"  reader throughput   : {res.reader_qps:,.0f} samples/cpu-s")
    print(f"  trainer throughput  : {res.trainer_qps:,.0f} samples/s")
    fleet = res.fleet
    if fleet is not None:
        print(
            f"  reader fleet        : {len(fleet.workers)} workers "
            f"({fleet.executor_used}), modeled wall "
            f"{fleet.modeled_wall_seconds * 1e3:.1f} ms, queue wait "
            f"put {fleet.queue.put_wait * 1e3:.1f} ms / "
            f"get {fleet.queue.get_wait * 1e3:.1f} ms"
        )
        wire = fleet.merged.bytes
        if wire.copied or wire.avoided:
            print(
                f"  transport           : "
                f"copied {wire.copied:,} B / "
                f"avoided {wire.avoided:,} B, transport wait "
                f"{fleet.queue.transport * 1e3:.1f} ms, delivered wall "
                f"{fleet.modeled_delivered_wall_seconds * 1e3:.1f} ms"
            )
    ov = res.overlap
    if ov is not None:
        mode = "streaming" if ov.streaming else "materialized"
        print(
            f"  overlap ({mode[:6]})  : reader-stall "
            f"{100 * ov.reader_stall_fraction:.1f}% / trainer "
            f"{100 * ov.trainer_stall_fraction:.1f}% / other "
            f"{100 * ov.other_fraction:.1f}% of "
            f"{ov.wall_seconds * 1e3:.1f} ms wall"
        )
        if ov.bytes.decoded:
            print(
                f"  bytes               : read {ov.bytes.read:,}, "
                f"decoded {ov.bytes.decoded:,}, expanded "
                f"{ov.bytes.expanded:,} (saved {ov.bytes.saved:,}, "
                f"{ov.bytes.dedupe_factor:.2f}x)"
            )
    if res.dropped_partitions:
        print(
            f"  retention           : window {args.retain_partitions}, "
            f"dropped {', '.join(res.dropped_partitions)}; live "
            f"{', '.join(res.epoch_partitions[-1])}"
        )
    trace = res.scaling
    if trace is not None:
        converged = (
            f"converged at epoch {trace.converged_epoch}"
            if trace.converged_epoch is not None
            else "did not converge"
        )
        print(
            f"  autoscale           : target reader-stall "
            f"<= {trace.target_stall:.2f}, {converged}, "
            f"final width {trace.final_width}"
        )
        for d in trace.decisions:
            print(
                f"    epoch {d.epoch}: width {d.width_before:3d} "
                f"stall {d.reader_stall_fraction:.2f}/"
                f"{d.trainer_stall_fraction:.2f} -> {d.action:6s} "
                f"-> {d.width_after}"
            )
    return 0


#: keys a ``--job`` spec may set, mapped to (spec-override key, cast)
_JOB_SPEC_KEYS = {
    "seed": ("seed", int),
    "sessions": ("num_sessions", int),
    "epochs": ("train_epochs", int),
    "batches": ("train_batches", int),
    "partitions": ("num_partitions", int),
    "batch_size": ("batch_size", int),
    "retain": ("retain_partitions", int),
}


def _parse_job_spec(spec: str, args, name: str) -> JobSpec:
    """One ``--job`` spec -> a :class:`JobSpec`.

    Format: ``RM[:recd|baseline][:key=value ...]``, e.g.
    ``RM2:recd:sessions=80:seed=3:weight=2``.  Unset keys inherit the
    subcommand's argument-group defaults
    (``--scale/--sessions/--seed/--train-epochs/...``).
    """
    parts = spec.split(":")
    rm = parts[0].upper()
    if rm not in WORKLOADS:
        raise SystemExit(
            f"--job {spec!r}: workload must be one of "
            f"{sorted(WORKLOADS)}, got {parts[0]!r}"
        )
    recd = False
    dedup = None
    kw = {}
    for token in parts[1:]:
        if token == "recd":
            recd = True
        elif token == "baseline":
            recd = False
        elif token == "dedup":
            dedup = True
        elif "=" in token:
            key, value = token.split("=", 1)
            if key in ("scale", "weight"):
                field, cast = key, float
            elif key in _JOB_SPEC_KEYS:
                field, cast = _JOB_SPEC_KEYS[key]
            else:
                raise SystemExit(
                    f"--job {spec!r}: unknown key {key!r}; known: "
                    f"scale, weight, {', '.join(sorted(_JOB_SPEC_KEYS))}"
                )
            try:
                kw[field] = cast(value)
            except ValueError:
                raise ValueError(
                    f"--job {spec!r}: {key} needs {cast.__name__}, "
                    f"got {value!r}"
                ) from None
        else:
            raise SystemExit(
                f"--job {spec!r}: unknown token {token!r} (expected "
                "'recd', 'baseline', 'dedup', or key=value)"
            )
    return _spec_from_args(
        args,
        shared=True,
        rm=rm,
        recd=recd,
        name=name,
        dedup=dedup,
        **kw,
    )


def _cmd_multijob(args) -> int:
    if args.job:
        specs = [
            _parse_job_spec(spec, args, f"job{i}")
            for i, spec in enumerate(args.job)
        ]
        labels = [spec.split(":")[0].upper() for spec in args.job]
    elif args.jobs <= 0:
        raise SystemExit(f"--jobs must be positive, got {args.jobs}")
    else:
        specs = [
            _spec_from_args(
                args, shared=True, seed=args.seed + i, name=f"job{i}"
            )
            for i in range(args.jobs)
        ]
        labels = [args.rm] * args.jobs

    res = Session(
        specs,
        width=args.num_readers,
        policy=args.policy,
        scaling=(
            ScalingSpec(
                target_stall=args.target_stall,
                max_readers=args.max_readers,
            )
            if args.autoscale
            else None
        ),
    ).run()
    tier = res.tier
    print(
        f"shared reader tier: {len(res.jobs)} jobs, width "
        f"{args.num_readers}, policy {tier.policy}"
    )
    for rnd in tier.rounds:
        alloc = " ".join(
            f"{name}={w}" for name, w in sorted(rnd.allocation.items())
        )
        print(
            f"  round {rnd.index}: width {rnd.width:3d}  {alloc}  "
            f"wall {rnd.modeled_wall_seconds * 1e3:.2f} ms"
        )
    agg = tier.aggregate
    print(
        f"  modeled wall {tier.modeled_wall_seconds * 1e3:.2f} ms, "
        f"aggregate reader-stall {100 * agg.reader_stall_fraction:.1f}% / "
        f"trainer {100 * agg.trainer_stall_fraction:.1f}%"
    )
    trace = tier.scaling
    if trace is not None:
        converged = (
            f"converged at round {trace.converged_epoch}"
            if trace.converged_epoch is not None
            else "did not converge"
        )
        print(
            f"  autoscale: target aggregate stall <= "
            f"{trace.target_stall:.2f}, {converged}, final width "
            f"{trace.final_width}"
        )
    for label, job in zip(labels, res.jobs):
        mode = "RecD" if job.spec.data.toggles.o3_ikjt else "baseline"
        ov = job.overlap
        print(
            f"{job.name} ({label}, {mode}): "
            f"{len(job.training.iterations)} steps over "
            f"{len(job.epoch_partitions)} epoch(s), "
            f"reader-stall {100 * ov.reader_stall_fraction:.1f}% / "
            f"trainer {100 * ov.trainer_stall_fraction:.1f}%, "
            f"{job.fleet.merged.samples} samples read"
        )
    return 0


def _cmd_stream(args) -> int:
    """Run N streamed job clones through the live loop and report
    landing progress plus freshness percentiles; with ``--verify``,
    assert the losses are bit-identical to a land-everything-first
    baseline (exit 1 on divergence)."""
    if args.jobs <= 0:
        raise SystemExit(f"--jobs must be positive, got {args.jobs}")
    stream = StreamSpec(
        interval_seconds=args.stream_interval,
        land_latency_seconds=args.land_latency,
        rows_per_file=args.stream_rows_per_file,
    )

    def build_session() -> Session:
        specs = [
            _spec_from_args(
                args, shared=True, seed=args.seed + i, name=f"job{i}"
            ).with_(stream=stream)
            for i in range(args.jobs)
        ]
        return Session(
            specs,
            width=args.num_readers,
            policy=args.policy,
            scaling=(
                ScalingSpec(
                    target_stall=args.target_stall,
                    max_readers=args.max_readers,
                )
                if args.autoscale
                else None
            ),
            freshness_slo=args.freshness_slo,
        )

    session = build_session()
    res = session.run()
    tier = res.tier
    mode = "RecD" if args.recd else "baseline"
    print(
        f"live loop: {len(res.jobs)} x {args.rm} ({mode}), width "
        f"{args.num_readers}, policy {tier.policy}, interval "
        f"{args.stream_interval:g} s + latency {args.land_latency:g} s"
    )
    for job in res.jobs:
        lander = session.runtime(job.name).lander
        fresh = tier.job_freshness(job.name)
        window = (
            f", window {args.retain_partitions}"
            f" (dropped {len(job.dropped_partitions)})"
            if args.retain_partitions is not None
            else ""
        )
        print(
            f"  {job.name}: landed {lander.landed_count}/"
            f"{lander.num_partitions} micro-partitions{window}, "
            f"{len(job.epoch_partitions)} epoch(s), "
            f"{len(job.training.iterations)} steps, freshness "
            f"p50 {fresh.p50_lag_seconds:.2f} s / "
            f"p99 {fresh.p99_lag_seconds:.2f} s"
        )
    fresh = tier.freshness
    slo_note = (
        f" (SLO target {args.freshness_slo:g} s)"
        if args.freshness_slo is not None
        else ""
    )
    print(
        f"  clock {session.tier.clock:.2f} modeled s over "
        f"{len(tier.rounds)} rounds; tier freshness "
        f"p50 {fresh.p50_lag_seconds:.2f} s / "
        f"p99 {fresh.p99_lag_seconds:.2f} s / "
        f"max {fresh.max_lag_seconds:.2f} s across "
        f"{fresh.batches} batches{slo_note}"
    )
    if args.verify:
        clean = build_session()
        clean.prepare()
        clean.land_all_streams()
        base = clean.run()
        diverged = sorted(
            job.name
            for job in res.jobs
            if list(job.training.losses)
            != list(base.job(job.name).training.losses)
        )
        if diverged:
            print(
                "VERIFY FAILED: live-loop losses diverged from the "
                f"land-everything-first baseline for {diverged}"
            )
            return 1
        print(
            f"verify: {len(res.jobs)} job loss trajectories "
            "bit-identical to the land-everything-first baseline"
        )
    return 0


def _cmd_simulate(args) -> int:
    scenario = build_scenario(
        args.scenario, seed=args.seed, scale=args.scale
    )
    runner = scenario.runner()
    res = runner.run()
    print(f"scenario {scenario.name}: {scenario.description}")
    print(
        f"  jobs {len(res.slo.jobs)}, width {scenario.width}, "
        f"seed {args.seed}"
    )
    print("fault trace:")
    if not res.trace:
        print("  (clean run — no events fired)")
    for ev in res.trace:
        detail = ", ".join(
            f"{k}={v}"
            for k, v in ev.items()
            if k not in ("round", "job", "event")
        )
        print(
            f"  round {ev['round']}: {ev['event']:12s} {ev['job']}"
            + (f"  ({detail})" if detail else "")
        )
    slo = res.slo
    print("SLO report:")
    print(
        f"  wall p50 {slo.p50_wall_seconds * 1e3:8.2f} ms  "
        f"p99 {slo.p99_wall_seconds * 1e3:8.2f} ms  "
        f"total {slo.total_wall_seconds * 1e3:8.2f} ms"
    )
    print(
        f"  goodput {slo.goodput_batches_per_second:,.0f} batches/s  "
        f"useful-cpu {100 * slo.useful_cpu_fraction:.1f}%  "
        f"max starved rounds {slo.max_starved_rounds}"
    )
    print(
        f"  churn: {slo.crashes} crash(es), "
        f"{slo.straggler_shards} straggler shard(s), "
        f"{slo.preemptions} preemption(s)"
    )
    if slo.freshness.batches:
        print(
            f"  freshness p50 {slo.freshness_p50_seconds:8.2f} s  "
            f"p99 {slo.freshness_p99_seconds:8.2f} s  "
            f"max {slo.freshness.max_lag_seconds:8.2f} s  "
            f"({slo.freshness.batches} streamed batches)"
        )
    for j in slo.jobs:
        print(
            f"  {j.job:8s} rounds {j.admitted_round}-{j.finished_round}  "
            f"wall {j.wall_seconds * 1e3:8.2f} ms  "
            f"queue {100 * j.queue_fraction:5.1f}%  "
            f"epochs {j.epochs}  batches {j.batches}"
        )
    if args.verify:
        base = runner.baseline()
        diverged = sorted(
            name for name in base if res.losses.get(name) != base[name]
        )
        if diverged:
            print(f"VERIFY FAILED: losses diverged for {diverged}")
            return 1
        replay = scenario.runner().run()
        if replay.fingerprint() != res.fingerprint():
            print("VERIFY FAILED: replaying the seed changed the result")
            return 1
        print(
            f"verify: {len(base)} job loss trajectories bit-identical "
            "to the clean baseline; replay fingerprint identical"
        )
    return 0


def _cmd_experiments(args) -> int:
    """Dispatch ``repro experiments {run,list,query,report}``."""
    if args.exp_command == "list":
        for name in sorted(PROFILES):
            profile = PROFILES[name]
            print(f"{name}: {profile.description} "
                  f"({profile.num_runs} runs)")
            for grid in profile.grids:
                points = expand_grid(grid)
                print(f"  {grid.name} ({len(points)} points): "
                      f"{grid.description}")
                if args.verbose:
                    for p in points:
                        print(f"    {p.run_id}  {p.label}")
        return 0

    store = RunStore(args.store)
    if args.exp_command == "run":
        profile = get_profile(args.profile)
        if args.experiment is not None:
            outcome = run_grid(
                profile.grid(args.experiment),
                store,
                profile=profile.name,
                resume=args.resume,
                progress=print,
            )
        else:
            outcome = run_profile(
                profile, store, resume=args.resume, progress=print
            )
        print(
            f"profile {profile.name}: executed {len(outcome.executed)}, "
            f"skipped {len(outcome.skipped)} (store: {store.path})"
        )
        return 0
    if args.exp_command == "query":
        records = store.query(
            experiment=args.experiment,
            label=args.label,
            profile=args.profile,
        )
        if not records:
            print("no matching runs", file=sys.stderr)
            return 1
        for r in records:
            print(f"{r.run_id}  {r.experiment}/{r.label}  "
                  f"[{r.kind}{'/' + r.profile if r.profile else ''}]  "
                  f"{r.created_at}")
            if args.metric is not None:
                value = r.metrics.get(args.metric)
                print(f"  {args.metric} = "
                      f"{value if value is not None else '(not recorded)'}")
            elif args.verbose:
                for name in sorted(r.metrics):
                    print(f"  {name} = {r.metrics[name]:.6g}")
        return 0
    if args.exp_command == "report":
        print(render_report(store, args.profile), end="")
        return 0
    raise SystemExit(f"unknown experiments command {args.exp_command!r}")


#: the non-figure subcommands; every other name is a ``FIGURES`` entry
_COMMANDS = {
    "pipeline": _cmd_pipeline,
    "multijob": _cmd_multijob,
    "stream": _cmd_stream,
    "simulate": _cmd_simulate,
    "experiments": _cmd_experiments,
}

#: the flags every figure driver draws from (a figure subcommand
#: registers only the ones its ``Figure.flags`` names)
_COMMON_FLAGS = {
    "scale": dict(type=float, default=0.5,
                  help="workload scale factor (default 0.5)"),
    "sessions": dict(type=int, default=200,
                     help="sessions in the generated partition"),
    "sessions_large": dict(type=int, default=50_000,
                           help="sessions for statistics-only experiments"),
    "seed": dict(type=int, default=0),
}


def _add_common_flags(p, flags) -> None:
    """Register the named ``_COMMON_FLAGS`` on one subparser."""
    for flag in flags:
        p.add_argument(f"--{flag.replace('_', '-')}", **_COMMON_FLAGS[flag])


def _add_data_args(p, *, shared: bool) -> None:
    """The ``DataSpec`` argument group (what lands)."""
    g = p.add_argument_group(
        "data (DataSpec)", "workload, toggles, and landing shape"
    )
    suffix = " for --jobs clones" if shared else ""
    g.add_argument("--rm", choices=sorted(WORKLOADS), default="RM1",
                   help=f"workload{suffix}")
    g.add_argument("--recd", action="store_true",
                   help=f"enable all RecD optimizations (O1-O7){suffix}")
    g.add_argument("--num-partitions", type=int, default=1,
                   help="time partitions the table lands as")


def _add_reader_args(p, *, shared: bool) -> None:
    """The ``ReaderSpec`` argument group (how the fleet scans)."""
    g = p.add_argument_group(
        "reader fleet (ReaderSpec)", "width, prefetch, executor, hand-off"
    )
    g.add_argument("--num-readers", type=int, default=8 if shared else 1,
                   help="shared pool width (workers serving every "
                        "registered job)" if shared else
                        "reader-fleet width (sharded workers)")
    g.add_argument("--prefetch-depth", type=int, default=2,
                   help="bounded prefetch per reader worker")
    g.add_argument("--reader-executor",
                   choices=("auto", "process", "inprocess", "async"),
                   default="auto",
                   help="fleet executor (batch stream is bit-identical "
                        "for all of them; async interleaves every shard "
                        "worker deterministically, so wide fleets run "
                        "fast)")
    g.add_argument("--transport", choices=("copy", "shm"), default="copy",
                   help="batch transport across the worker->trainer "
                        "boundary: copy charges a modeled per-batch "
                        "serialize cost, shm models the zero-copy "
                        "handoff (stream stays bit-identical)")
    g.add_argument("--streaming",
                   action=argparse.BooleanOptionalAction,
                   default=True,
                   help="stream reader batches into the trainers "
                        "(--no-streaming materializes first)")
    g.add_argument("--dedup", action="store_true",
                   help="ship session-deduplicated IKJT batches over "
                        "the prefetch queues; the trainer expands after "
                        "the pooled lookup (losses stay bit-identical, "
                        "bytes-decoded shrink)")


def _add_train_args(p, *, shared: bool) -> None:
    """The ``TrainSpec`` argument group (what the trainers run)."""
    g = p.add_argument_group(
        "training (TrainSpec)", "epochs and per-epoch batch caps"
    )
    per_job = " per job" if shared else ""
    g.add_argument("--train-epochs", type=int, default=2 if shared else 1,
                   help=f"epochs over the landed partitions{per_job}")
    g.add_argument("--train-batches", type=int, default=2,
                   help=f"per-epoch batch cap{per_job}")


def _add_scaling_args(p, *, shared: bool) -> None:
    """The ``ScalingSpec`` argument group (adaptive width)."""
    g = p.add_argument_group(
        "autoscaling (ScalingSpec)", "adaptive fleet/pool width"
    )
    what = "shared pool between rounds from the aggregate stall" if shared \
        else "reader fleet between epochs from the modeled overlap"
    g.add_argument("--autoscale", action="store_true",
                   help=f"resize the {what} "
                        "(--num-readers sets the initial width)")
    g.add_argument("--target-stall", type=float, default=0.10,
                   help="autoscaler target band: grow while the "
                        "reader-stall fraction exceeds this")
    g.add_argument("--max-readers", type=int, default=32,
                   help="autoscaler upper bound on the width")


def _add_retention_args(p) -> None:
    """The ``RetentionSpec`` argument group (rolling window)."""
    g = p.add_argument_group(
        "retention (RetentionSpec)", "rolling-window partition lifecycle"
    )
    g.add_argument("--retain-partitions", type=int, default=None,
                   help="rolling-window retention: keep at most this "
                        "many partitions live; between epochs the next "
                        "partition lands and the oldest is dropped")


def _add_stream_args(p) -> None:
    """The ``StreamSpec`` argument group plus live-loop knobs."""
    g = p.add_argument_group(
        "streaming (StreamSpec)",
        "continuous ingestion: micro-partitions land on the modeled "
        "clock while the jobs train (--num-partitions sets how many "
        "ticks the trace is cut into)",
    )
    g.add_argument("--stream-interval", type=float, default=60.0,
                   help="modeled seconds between micro-partition "
                        "sealing ticks")
    g.add_argument("--land-latency", type=float, default=5.0,
                   help="modeled scribe->ETL->Hive landing latency "
                        "after each tick seals")
    g.add_argument("--stream-rows-per-file", type=int, default=256,
                   help="DWRF rows-per-file for freshly streamed "
                        "micro-partitions (the between-tick compactor "
                        "rewrites them at the table's full size)")
    g.add_argument("--freshness-slo", type=float, default=None,
                   help="target p99 event-time -> trained-on lag in "
                        "modeled seconds; the tier boosts allocation "
                        "weight for jobs lagging past it")
    g.add_argument("--jobs", type=int, default=2,
                   help="streamed clones of the base job sharing the "
                        "pool (seeds seed..seed+N-1)")
    g.add_argument("--policy", choices=("stall_weighted", "round_robin"),
                   default="stall_weighted",
                   help="worker-allocation policy")
    g.add_argument("--verify", action="store_true",
                   help="also land the whole stream up front and rerun, "
                        "asserting the live loop's losses are "
                        "bit-identical (exit 1 on divergence)")


def _add_experiments_parser(sub) -> None:
    """The ``experiments`` subcommand tree (matrix harness + store).

    Unlike the figure subcommands, these take no ``--scale/--sessions``
    knobs: run shapes come from the declared profiles, which is what
    makes run IDs content-addressed and results comparable.
    """
    p = sub.add_parser(
        "experiments",
        help="experiment-matrix harness: run profiles, query the store",
    )
    esub = p.add_subparsers(dest="exp_command", required=True)

    run = esub.add_parser(
        "run", help="execute a profile's grids (resume-on-rerun)"
    )
    run.add_argument("--profile", choices=sorted(PROFILES),
                     default="smoke",
                     help="which run profile to execute")
    run.add_argument("--experiment", default=None, metavar="NAME",
                     help="run only this experiment of the profile")
    run.add_argument("--store", default=str(DEFAULT_STORE_PATH),
                     help="results store (SQLite) path")
    run.add_argument("--resume", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="skip runs already in the store "
                          "(--no-resume forces re-execution)")

    lst = esub.add_parser(
        "list", help="list profiles, their grids, and run points"
    )
    lst.add_argument("--verbose", "-v", action="store_true",
                     help="also print every point's run ID and label")

    query = esub.add_parser("query", help="inspect stored runs")
    query.add_argument("--store", default=str(DEFAULT_STORE_PATH),
                       help="results store (SQLite) path")
    query.add_argument("--experiment", default=None,
                       help="filter: experiment name")
    query.add_argument("--label", default=None,
                       help="filter: run label within the experiment")
    query.add_argument("--profile", default=None,
                       help="filter: recording profile")
    query.add_argument("--metric", default=None,
                       help="print this metric's value per run")
    query.add_argument("--verbose", "-v", action="store_true",
                       help="print every metric per run")

    report = esub.add_parser(
        "report", help="render paper figures from the store"
    )
    report.add_argument("--store", default=str(DEFAULT_STORE_PATH),
                        help="results store (SQLite) path")
    report.add_argument("--profile", default=None,
                        help="restrict to one profile's runs")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    The ``pipeline`` and ``multijob`` subcommands share spec-derived
    argument groups — one group per spec dataclass in
    :mod:`repro.pipeline.spec` — so the CLI surface mirrors the
    :class:`~repro.pipeline.spec.JobSpec` composition 1:1.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate RecD (MLSys 2023) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    for name, fig in FIGURES.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common_flags(p, fig.flags)
    for name in _COMMANDS:
        if name == "experiments":
            _add_experiments_parser(sub)
            continue
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common_flags(p, _COMMON_FLAGS)
        if name in ("pipeline", "multijob", "stream"):
            shared = name in ("multijob", "stream")
            _add_data_args(p, shared=shared)
            _add_reader_args(p, shared=shared)
            _add_train_args(p, shared=shared)
            _add_scaling_args(p, shared=shared)
            _add_retention_args(p)
        if name == "stream":
            _add_stream_args(p)
        if name == "simulate":
            g = p.add_argument_group(
                "scenario (repro.sim)", "which chaos experiment to run"
            )
            g.add_argument("--scenario", choices=scenario_names(),
                           default="crash-resume",
                           help="named scenario from the catalog")
            g.add_argument("--verify", action="store_true",
                           help="also run the clean baseline and a "
                                "seed replay, asserting bit-identical "
                                "losses and fingerprint (exit 1 on "
                                "divergence)")
        if name == "multijob":
            g = p.add_argument_group(
                "job set (JobSpec)", "which jobs share the pool"
            )
            g.add_argument("--jobs", type=int, default=2,
                           help="run this many clones of the base job "
                                "(seeds seed..seed+N-1) when no --job "
                                "specs are given")
            g.add_argument("--job", action="append", default=[],
                           metavar="SPEC",
                           help="one job spec: RM[:recd|baseline][:dedup]"
                                "[:key=value ...] with keys scale, seed, "
                                "sessions, epochs, batches, partitions, "
                                "batch_size, retain, weight; repeatable")
            g.add_argument("--policy", choices=("stall_weighted",
                                                "round_robin"),
                           default="stall_weighted",
                           help="worker-allocation policy")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted([*FIGURES, *_COMMANDS]):
            print(name)
        return 0
    try:
        return _COMMANDS.get(args.command, _cmd_figure)(args)
    except (ValueError, TypeError) as exc:
        # The specs validate their own domains and name spec + field
        # ("ReaderSpec.num_readers must be positive, got 0"), so a bad
        # flag value exits like any other usage error, not a traceback.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
