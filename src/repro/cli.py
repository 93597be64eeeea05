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
the flags that driver reads and prints its rows through the table's
one ``render`` — the lines ``benchmarks/test_figures.py`` writes to
``benchmarks/results/``, at the sizes the flags give.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Collection, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .datagen import WORKLOADS
from .experiments import (
    DEFAULT_STORE_PATH,
    FIGURES,
    PROFILES,
    RunStore,
    build_job_spec,
    expand_grid,
    get_profile,
    render,
    render_report,
    run_grid,
    run_profile,
)
from .experiments.grid import spec_default
from .pipeline import Session
from .reader.costmodel import TRANSPORT_MODES
from .reader.fleet import EXECUTORS
from .reader.tier_scheduler import POLICIES
from .sim import build_scenario, scenario_names

__all__ = ["main", "build_parser"]

_SHARED = ("multijob", "stream")
_RUN = ("pipeline", *_SHARED)
_ALL = (*_RUN, "simulate")


class _Flag(NamedTuple):
    """One knob of the run surface, declared once: the subparsers, the
    ``--job`` mini-language and the point handed to
    :func:`~repro.experiments.grid.build_job_spec` all derive from
    ``_FLAGS``, so a new flag is one new row."""

    #: the command-line flag (``None``: settable only by its ``--job`` key)
    flag: str | None
    #: the dotted point path ``build_job_spec`` reads (``None``: the
    #: command reads the flag itself)
    path: str | None
    #: the key a ``--job`` spec sets it by, if it may
    key: str | None
    #: the non-figure subcommands that register it (a figure subcommand
    #: registers the flags its ``Figure.flags`` names)
    on: tuple[str, ...]
    #: ``add_argument`` keywords; a typed row naming no ``default``
    #: offers its spec field's own (a literal is a default that differs
    #: from the spec's on purpose)
    kwargs: dict

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _flag(flag, path=None, key=None, on=_RUN, **kwargs) -> _Flag:
    if flag and "default" not in kwargs and kwargs.keys() & {"type", "choices"}:
        kwargs["default"] = spec_default(path)
    return _Flag(flag, path, key, on, kwargs)


_FLAGS = (
    _flag("--scale", "workload.scale", "scale", on=_ALL, type=float,
          default=0.5, help="workload scale factor (default 0.5)"),
    _flag("--sessions", "data.num_sessions", "sessions", on=_ALL, type=int,
          default=200, help="sessions in the generated partition"),
    _flag("--sessions-large", on=_ALL, type=int, default=50_000,
          help="sessions for statistics-only experiments"),
    _flag("--seed", "data.seed", "seed", on=_ALL, type=int, default=0),
    _flag("--rm", "workload.rm", choices=sorted(WORKLOADS), default="RM1",
          help="workload (of the --jobs clones when sharing)"),
    _flag("--recd", "toggles", "recd", action="store_true",
          help="enable all RecD optimizations (O1-O7)"),
    _flag("--num-partitions", "data.num_partitions", "partitions",
          type=int,
          help="time partitions the table lands as (stream: the ticks "
               "the trace is cut into)"),
    _flag("--num-readers", "reader.num_readers", type=int, default=1,
          help="reader-fleet width; under multijob/stream the width of "
               "the pool serving every job"),
    _flag("--reader-executor", "reader.executor", choices=EXECUTORS,
          help="fleet executor (the batch stream is bit-identical under "
               "both): inprocess scans serially, so wide fleets run "
               "fast; process forks real workers and measures their "
               "queue waits"),
    _flag("--transport", "reader.transport", choices=TRANSPORT_MODES,
          default=spec_default("reader.transport").mode,
          help="batch transport across the worker->trainer boundary: "
               "copy charges a modeled per-batch serialize cost, shm "
               "models the zero-copy handoff (stream stays bit-identical)"),
    _flag("--streaming", "reader.streaming",
          action=argparse.BooleanOptionalAction, default=True,
          help="stream reader batches into the trainers "
               "(--no-streaming materializes first)"),
    _flag("--dedup", "reader.dedup", "dedup", action="store_true",
          help="ship session-deduplicated IKJT batches over the prefetch "
               "queues; the trainer expands after the pooled lookup "
               "(losses stay bit-identical, bytes-decoded shrink)"),
    _flag("--train-epochs", "train.train_epochs", "epochs", type=int,
          help="epochs over the landed partitions, per job"),
    _flag("--train-batches", "train.train_batches", "batches", type=int,
          help="per-epoch batch cap, per job"),
    _flag(None, "train.batch_size", "batch_size", type=int),
    _flag(None, "weight", "weight", type=float),
    _flag("--autoscale", action="store_true",
          help="resize the fleet between epochs from the modeled overlap "
               "(multijob/stream: the pool between rounds from the "
               "aggregate stall); --num-readers sets the initial width"),
    _flag("--target-stall", "scaling.target_stall", type=float,
          help="autoscaler target band: grow while the reader-stall "
               "fraction exceeds this"),
    _flag("--max-readers", "scaling.max_readers", type=int,
          help="autoscaler upper bound on the width"),
    _flag("--retain-partitions", "retention.window", "retain", type=int,
          default=None,
          help="rolling-window retention: keep at most this many "
               "partitions live; between epochs the next partition lands "
               "and the oldest is dropped"),
    _flag("--stream-interval", "stream.interval_seconds", on=("stream",),
          type=float,
          help="modeled seconds between micro-partition sealing ticks"),
    _flag("--land-latency", "stream.land_latency_seconds", on=("stream",),
          type=float,
          help="modeled scribe->ETL->Hive landing latency after each "
               "tick seals"),
    _flag("--stream-rows-per-file", "stream.rows_per_file", on=("stream",),
          type=int,
          help="DWRF rows-per-file for freshly streamed micro-partitions "
               "(the between-tick compactor rewrites them at the table's "
               "full size)"),
    _flag("--freshness-slo", on=("stream",), type=float, default=None,
          help="target p99 event-time -> trained-on lag in modeled "
               "seconds; the tier boosts allocation weight for jobs "
               "lagging past it"),
    _flag("--jobs", on=_SHARED, type=int, default=2,
          help="clones of the base job sharing the pool (seeds "
               "seed..seed+N-1; multijob: when no --job is given)"),
    _flag("--policy", on=_SHARED, choices=POLICIES,
          default="stall_weighted", help="worker-allocation policy"),
    _flag("--scenario", on=("simulate",), choices=scenario_names(),
          default="crash-resume", help="named scenario from the catalog"),
    _flag("--verify", on=("stream", "simulate"), action="store_true",
          help="also rerun the clean baseline (stream: land the whole "
               "stream up front; simulate: no faults, plus a seed "
               "replay), asserting bit-identical losses (exit 1 on "
               "divergence)"),
)
#: the flags a ``--job`` spec may set, by key
_JOB_KEYS = {f.key: f for f in _FLAGS if f.key}
#: a ``store_true`` flag's key is a bare token, the rest take ``=value``
_JOB_TOKENS = [
    f"{key}=value" if "type" in f.kwargs else key
    for key, f in _JOB_KEYS.items()
]
_FLAGS += (
    _flag("--job", on=("multijob",), action="append", default=[],
          metavar="SPEC",
          help="one job spec, RM[:token ...] with tokens baseline, "
               f"{', '.join(_JOB_TOKENS)}; repeatable"),
)
#: defaults that differ when the pool is shared (multijob, stream)
_SHARED_DEFAULTS = {"num_readers": 8, "train_epochs": 2}


#: the ``Session`` keywords a shared-pool command passes from its flags
_SESSION_KWARGS = ("policy", "freshness_slo")


class _UsageError(Exception):
    """A bad flag value, found before the first scheduling round;
    :func:`main` turns it into ``parser.error`` (exit 2)."""


def _name_flags(message: str, typed: Collection[str] = (), params: Mapping[str, str] = {}) -> str:
    """A spec error names ``ReaderSpec.num_readers``; the user typed
    ``--num-readers`` (path section ``reader`` is ``ReaderSpec``, and so
    on for every section; a path with no section is a ``JobSpec``
    field, and the workload factories say ``workload scale``).  A path
    in ``typed`` was set by a ``--job`` spec, so its ``--job`` key is
    named instead of its flag.  A ``Session`` keyword error opens with
    the keyword (``freshness_slo`` is ``--freshness-slo``), a figure
    driver's with a parameter in ``params``, mapped to its flag."""
    for f in _FLAGS:
        if f.path:
            section, _, leaf = f.path.rpartition(".")
            owner = f"{section.capitalize()}Spec." if section else "JobSpec."
            if section == "workload":  # the workload factories' wording
                owner = "workload "
            typed_key = not f.flag or f.path in typed
            message = message.replace(
                owner + leaf, f"--job key {f.key!r}" if typed_key else f.flag
            )
    for kw, flag in {**{kw: kw for kw in _SESSION_KWARGS}, **params}.items():
        if message.startswith(f"{kw} "):
            message = f"--{flag.replace('_', '-')}" + message.removeprefix(kw)
    return message


@contextmanager
def _usage_boundary(typed: Collection[str] = (), params: Mapping[str, str] = {}):
    """Everything before the first scheduling round — spec build,
    ``Session(...)``, ``prepare()`` — runs inside this: a ``ValueError``
    there is a bad flag value and exits 2 naming the flag (or the
    ``--job`` key, for a path in ``typed``), while one raised by the
    run proper stays a traceback."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(_name_flags(str(exc), typed, params)) from None


def _point(args, overrides=None) -> dict:
    """The ``build_job_spec`` point one job's flags describe: every
    registered flag's value under its path, then ``overrides``."""
    values = {
        f.path: getattr(args, f.dest)
        for f in _FLAGS
        if f.flag and f.path and hasattr(args, f.dest)
    }
    values.update(overrides or {})
    values["toggles"] = "recd" if values["toggles"] else "baseline"
    return {
        path: value
        for path, value in values.items()
        # an unset flag leaves its section to the spec's own default;
        # the scaling flags only count behind --autoscale
        if value is not None
        and (args.autoscale or not path.startswith("scaling."))
    }


def _clone_points(args) -> list[dict]:
    """``--jobs`` clones of the base job, seeds ``seed..seed+N-1``."""
    if args.jobs <= 0:
        raise _UsageError(f"--jobs must be positive, got {args.jobs}")
    return [
        _point(args, {"data.seed": args.seed + i}) for i in range(args.jobs)
    ]


def _job_point(spec: str, args) -> dict:
    """One ``--job`` spec -> a point, its spec built once here so a
    bad value names the ``--job`` key it came from.

    Format: ``RM[:recd|baseline][:dedup][:key=value ...]``, e.g.
    ``RM2:recd:sessions=80:seed=3:weight=2``.  A job names its own
    workload and toggles; every other unset key inherits the
    subcommand's flags.
    """
    rm, *tokens = spec.split(":")
    if rm.upper() not in WORKLOADS:
        raise _UsageError(
            f"--job {spec!r}: workload must be one of "
            f"{sorted(WORKLOADS)}, got {rm!r}"
        )
    values = {"workload.rm": rm.upper(), "toggles": False}
    for token in tokens:
        key, eq, text = token.partition("=")
        f = _JOB_KEYS.get(key)
        cast = f.kwargs.get("type") if f is not None else None
        if token == "baseline":
            values["toggles"] = False
        elif f is not None and cast is None and not eq:
            values[f.path] = True
        elif cast is not None and eq:
            try:
                values[f.path] = cast(text)
            except ValueError:
                raise _UsageError(
                    f"--job {spec!r}: {key} needs {cast.__name__}, "
                    f"got {text!r}"
                ) from None
        else:
            raise _UsageError(
                f"--job {spec!r}: unknown token {token!r}; expected "
                f"baseline, {', '.join(_JOB_TOKENS)}"
            )
    point = _point(args, values)
    with _usage_boundary(typed=values):
        build_job_spec(point)
    return point


def _open_session(args, points: list[dict]) -> Session:
    """The points' jobs as one prepared :class:`Session`, ready to
    ``run()``."""
    with _usage_boundary():
        specs = [build_job_spec(point) for point in points]
        session = Session(
            specs[0] if args.command == "pipeline" else specs,
            width=args.num_readers,
            **{
                kw: getattr(args, kw)
                for kw in _SESSION_KWARGS
                if hasattr(args, kw)
            },
        )
        session.prepare()
    return session


def _cmd_figure(args) -> int:
    """Run the ``FIGURES`` entry the subcommand names, with the flags
    its driver reads, and print its rows."""
    fig = FIGURES[args.command]
    # a driver is one call with no prepare/run seam to split at; it
    # names a bad parameter, the boundary names that parameter's flag
    with _usage_boundary(params={p: f for f, p in fig.flags.items()}):
        rows = fig.run(**{p: getattr(args, f) for f, p in fig.flags.items()})
    print("\n".join(render(fig, rows)))
    return 0


def _cmd_pipeline(args) -> int:
    res = _open_session(args, [_point(args)]).run()
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
    waits = (
        f", queue wait put {fleet.queue.put_wait * 1e3:.1f} ms / "
        f"get {fleet.queue.get_wait * 1e3:.1f} ms"
        if fleet.executor_used == "process"  # the only executor with queues
        else ""
    )
    print(
        f"  reader fleet        : {len(fleet.workers)} workers "
        f"({fleet.executor_used}), modeled wall "
        f"{fleet.modeled_wall_seconds * 1e3:.1f} ms{waits}"
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
    mode = "streaming" if res.spec.reader.streaming else "materialized"
    print(
        f"  overlap ({mode[:6]})  : reader-stall "
        f"{100 * ov.reader_stall_fraction:.1f}% / trainer "
        f"{100 * ov.trainer_stall_fraction:.1f}% / other "
        f"{100 * ov.other_fraction:.1f}% of "
        f"{ov.wall_seconds * 1e3:.1f} ms wall"
    )
    ledger = res.reader.bytes
    if ledger.decoded:
        print(
            f"  bytes               : read {ledger.read:,}, "
            f"decoded {ledger.decoded:,}, expanded "
            f"{ledger.expanded:,} (saved {ledger.saved:,}, "
            f"{ledger.dedupe_factor:.2f}x)"
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


def _cmd_multijob(args) -> int:
    points = (
        [_job_point(spec, args) for spec in args.job]
        if args.job
        else _clone_points(args)
    )
    res = _open_session(args, points).run()
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
    for point, job in zip(points, res.jobs):
        mode = "RecD" if point["toggles"] == "recd" else "baseline"
        ov = job.overlap
        print(
            f"{job.name} ({point['workload.rm']}, {mode}): "
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
    points = _clone_points(args)
    session = _open_session(args, points)
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
        clean = _open_session(args, points)
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
    with _usage_boundary():
        scenario = build_scenario(
            args.scenario, seed=args.seed, scale=args.scale
        )
    res = scenario.run()
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
        base = scenario.baseline()
        diverged = sorted(
            name for name in base if res.losses.get(name) != base[name]
        )
        if diverged:
            print(f"VERIFY FAILED: losses diverged for {diverged}")
            return 1
        replay = scenario.run()
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

    # only ``run`` creates a store: opening a mistyped path would make an
    # empty one and report it as a store with no runs
    if args.exp_command != "run" and not Path(args.store).is_file():
        raise _UsageError(f"--store {args.store}: no results store there")
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
    """The ``repro`` argument parser: every subcommand's flags are the
    ``_FLAGS`` rows registered on it."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate RecD (MLSys 2023) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    for name in [*FIGURES, *_COMMANDS]:
        if name == "experiments":
            _add_experiments_parser(sub)
            continue
        p = sub.add_parser(name, help=f"run the {name} experiment")
        fig = FIGURES.get(name)
        for f in _FLAGS:
            if f.flag and (f.dest in fig.flags if fig else name in f.on):
                p.add_argument(f.flag, **f.kwargs)
        if name in _SHARED:
            p.set_defaults(**_SHARED_DEFAULTS)
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
    except _UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
