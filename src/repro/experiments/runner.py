"""The experiment driver: grids → :class:`~repro.pipeline.session.Session`
runs → the :class:`~repro.experiments.store.RunStore`.

:func:`run_point` executes one resolved :class:`~repro.experiments.grid.RunPoint`
end to end and records everything the run produced — the resolved spec
values (the provenance), the environment fingerprint, the loss
trajectory, the scalar headline metrics, and every report object in
serialized form.  :func:`run_grid` drives a whole matrix with
**resume-on-rerun**: a point whose content-addressed run ID is already
in the store is skipped, so re-invoking an interrupted or unchanged
sweep only executes what is missing.  :func:`run_profile` runs a named
profile's grids in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

from ..metrics.slo import SLOReport
from ..metrics.tier import TierReport
from ..pipeline.session import PipelineResult, Session
from .env import environment_fingerprint
from .grid import GridSpec, RunPoint, expand_grid
from .profiles import Profile, get_profile
from .store import RunRecord, RunStore

__all__ = [
    "RunOutcome",
    "run_point",
    "run_grid",
    "run_profile",
    "extract_metrics",
    "extract_reports",
]


def extract_metrics(result: PipelineResult, slo: SLOReport) -> dict:
    """The scalar headline metrics one run contributes to the store.

    These are the individually queryable numbers the regression gate
    compares against baselines; everything richer lives in the
    serialized reports (:func:`extract_reports`).

    Args:
        result: the session's single-job result.
        slo: the run's tier-level SLO scoreboard.

    Returns:
        Metric name → float.
    """
    losses = result.training.losses
    metrics = {
        # Fig 7's four headline numbers
        "trainer_qps": result.trainer_qps,
        "reader_qps": result.reader_qps,
        "storage_compression": result.storage_compression,
        "scribe_compression": result.scribe_compression,
        "samples_landed": float(result.samples_landed),
        "loss_mean": sum(losses) / len(losses) if losses else 0.0,
        "loss_final": losses[-1] if losses else 0.0,
        "goodput_batches_per_second": slo.goodput_batches_per_second,
    }
    if slo.freshness.batches:
        # streamed live-loop runs only: the event-time → trained-on lag
        # percentiles the freshness SLO defends
        metrics["freshness_p50_seconds"] = slo.freshness_p50_seconds
        metrics["freshness_p99_seconds"] = slo.freshness_p99_seconds
    fleet = result.fleet
    metrics["fleet_modeled_samples_per_second"] = (
        fleet.modeled_samples_per_second
    )
    metrics["fleet_modeled_wall_seconds"] = fleet.modeled_wall_seconds
    # the transport-floored delivery view: where wide-fleet scaling
    # bends under the copy transport (equals the modeled wall under
    # shm, whose transport charge is zero)
    metrics["fleet_delivered_samples_per_second"] = (
        fleet.modeled_delivered_samples_per_second
    )
    metrics["fleet_transport_wait_seconds"] = fleet.queue.transport
    metrics["reader_stall_fraction"] = result.overlap.reader_stall_fraction
    metrics["trainer_stall_fraction"] = result.overlap.trainer_stall_fraction
    # bytes-read vs bytes-decoded vs bytes-expanded: the dedup
    # transport savings the regression gate tracks
    ledger = result.reader.bytes
    metrics["reader_bytes_read"] = float(ledger.read)
    metrics["reader_bytes_decoded"] = float(ledger.decoded)
    metrics["reader_bytes_expanded"] = float(ledger.expanded)
    metrics["bytes_saved"] = float(ledger.saved)
    metrics["dedupe_byte_factor"] = ledger.dedupe_factor
    # copy-vs-shm transport accounting (exactly one is non-zero)
    metrics["reader_bytes_copied"] = float(ledger.copied)
    metrics["reader_copies_avoided"] = float(ledger.avoided)
    return metrics


def extract_reports(
    result: PipelineResult, slo: SLOReport, tier: TierReport
) -> dict:
    """Every report object the run produced, serialized for the store.

    Args:
        result: the session's single-job result.
        slo: the run's tier-level SLO scoreboard.
        tier: the finished session's tier report.

    Returns:
        Report name → JSON-ready dict (``fleet``/``overlap``/``tier``/
        ``slo``/``training``); an autoscaled run's scaling trace is the
        tier report's ``scaling``.
    """
    return {
        "tier": tier.as_dict(),
        "slo": slo.as_dict(),
        "training": result.training.as_dict(),
        "fleet": result.fleet.as_dict(),
        "overlap": result.overlap.as_dict(),
    }


def run_point(
    point: RunPoint,
    store: RunStore,
    *,
    profile: str = "",
    env: dict | None = None,
) -> RunRecord:
    """Execute one resolved point and record it (unconditionally).

    Args:
        point: the resolved run point.
        store: the store to record into.
        profile: profile name stamped onto the record.
        env: environment fingerprint to stamp (computed when ``None``).

    Returns:
        The recorded :class:`~repro.experiments.store.RunRecord`.
    """
    session = Session(point.job_spec())
    result = session.run()
    slo = SLOReport.from_session(session)
    record = RunRecord(
        run_id=point.run_id,
        experiment=point.experiment,
        label=point.label,
        profile=profile,
        kind="grid",
        created_at=datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        spec=dict(point.values),
        env=env if env is not None else environment_fingerprint(),
        losses=tuple(result.training.losses),
        metrics=extract_metrics(result, slo),
        reports=extract_reports(result, slo, session.tier.report),
    )
    store.record(record)
    return record


@dataclass
class RunOutcome:
    """What one grid/profile invocation did.

    Attributes:
        executed: run IDs executed this invocation, in order.
        skipped: run IDs skipped because the store already had them
            (the resume-on-rerun path).
        records: every point's record — freshly executed or loaded from
            the store — in expansion order.
    """

    executed: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def merge(self, other: "RunOutcome") -> None:
        """Fold another grid's outcome in (profile aggregation);
        hand-written: three ID lists, not a serialized report."""
        self.executed.extend(other.executed)
        self.skipped.extend(other.skipped)
        self.records.extend(other.records)


def run_grid(
    grid: GridSpec,
    store: RunStore,
    *,
    profile: str = "",
    resume: bool = True,
    env: dict | None = None,
    progress=None,
) -> RunOutcome:
    """Drive one experiment matrix through the store.

    Args:
        grid: the matrix to expand and execute.
        store: the results store (also the resume ledger).
        profile: profile name stamped onto fresh records.
        resume: skip points whose run ID the store already has (pass
            ``False`` to force re-execution of everything).
        env: environment fingerprint shared across the grid's runs
            (computed once when ``None``).
        progress: optional ``callable(str)`` for per-point status lines.

    Returns:
        The grid's :class:`RunOutcome`.
    """
    if env is None:
        env = environment_fingerprint()
    say = progress if progress is not None else (lambda msg: None)
    outcome = RunOutcome()
    for point in expand_grid(grid):
        if resume and store.has(point.run_id):
            say(
                f"skip {grid.name}/{point.label} "
                f"({point.run_id}: already in store)"
            )
            outcome.skipped.append(point.run_id)
            outcome.records.append(store.get(point.run_id))
            continue
        say(f"run  {grid.name}/{point.label} ({point.run_id})")
        record = run_point(point, store, profile=profile, env=env)
        outcome.executed.append(point.run_id)
        outcome.records.append(record)
    return outcome


def run_profile(
    name_or_profile: str | Profile,
    store: RunStore,
    *,
    resume: bool = True,
    progress=None,
) -> RunOutcome:
    """Run every grid of a profile, in declaration order.

    Args:
        name_or_profile: a profile name (``"smoke"``/``"paper"``) or a
            :class:`~repro.experiments.profiles.Profile`.
        store: the results store.
        resume: skip points already in the store.
        progress: optional ``callable(str)`` for status lines.

    Returns:
        The merged :class:`RunOutcome` across the profile's grids.
    """
    profile = (
        get_profile(name_or_profile)
        if isinstance(name_or_profile, str)
        else name_or_profile
    )
    env = environment_fingerprint()
    outcome = RunOutcome()
    for grid in profile.grids:
        outcome.merge(
            run_grid(
                grid,
                store,
                profile=profile.name,
                resume=resume,
                env=env,
                progress=progress,
            )
        )
    return outcome
