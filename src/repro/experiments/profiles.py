"""Run profiles: every stored figure's grid at one size.

A :class:`Profile` is the grid of every ``FIGURES`` row that has one
(:attr:`~repro.experiments.figures.Figure.grid`, the same declaration
the figure's live driver runs), at the profile's scale, session count
and seed, plus the two grids no subcommand runs: ``fleet_scaling``
(the reader-fleet sweep) and ``ingest_overlap`` (streaming vs
materialized ingestion).  Two sizes ship:

* ``smoke`` — CI-sized: every experiment present, every axis swept,
  but at quarter workload scale and a small session count, so the full
  suite lands in a couple of minutes on a shared runner.  This is what
  the ``experiments-smoke`` CI job runs on every PR.
* ``paper`` — the full sweep the nightly benchmark workflow runs:
  half workload scale (the repo's standard figure-generation size),
  the full session count, and wider fleet sweeps.

Both profiles declare the *same experiments* — only sizes and axis
extents differ — so a metric regression caught by the smoke gate
points at the same (experiment, label) the paper profile tracks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .figures import CLUSTERED, FIGURES
from .grid import GridSpec, expand_grid

__all__ = ["Profile", "PROFILES", "get_profile"]


@dataclass(frozen=True)
class Profile:
    """One named suite of experiment grids.

    Attributes:
        name: the profile name (``repro experiments run --profile``).
        description: one line for ``repro experiments list``.
        sizes: the ``scale``, ``num_sessions`` and ``seed`` every
            figure's grid runs at.
        grids: the experiment matrices, in run order.
    """

    name: str
    description: str
    sizes: Mapping
    grids: tuple

    @property
    def num_runs(self) -> int:
        """Total run points across every grid (before resume skips)."""
        return sum(len(expand_grid(g)) for g in self.grids)

    def grid(self, name: str) -> GridSpec:
        """Look one grid up by experiment name.

        Raises:
            KeyError: if the profile has no such experiment.
        """
        for g in self.grids:
            if g.name == name:
                return g
        raise KeyError(
            f"profile {self.name!r} has no experiment {name!r}; "
            f"experiments: {[g.name for g in self.grids]}"
        )


def _wide_points(
    wide_widths: tuple, wide_batch_size: int
) -> tuple[dict, ...]:
    """The fleet_scaling grid's wide-width include points.

    Wide fleets need many batches (an epoch never plans more shards
    than batches), so these points shrink the batch size and lift the
    per-epoch batch cap; the serial executor runs them in tier-1 time.
    The widest width also carries a dedup pair — shm+dedup is the
    compounding configuration the tentpole benchmark headlines.
    """
    points = [
        {
            "label": f"wide-{w}-{transport}",
            "reader.num_readers": w,
            "reader.transport": transport,
            "train.batch_size": wide_batch_size,
            "train.train_batches": None,
        }
        for w in wide_widths
        for transport in ("copy", "shm")
    ]
    points += [
        {
            "label": f"wide-{max(wide_widths)}-{transport}-dedup",
            "reader.num_readers": max(wide_widths),
            "reader.dedup": True,
            "reader.transport": transport,
            "train.batch_size": wide_batch_size,
            "train.train_batches": None,
        }
        for transport in ("copy", "shm")
    ]
    return tuple(points)


def _stream_points() -> tuple[dict, ...]:
    """The fleet_scaling grid's streaming include points.

    Micro-partitions land on the live clock while the job trains (the
    continuous-training subsystem), so these points record the
    ``freshness_p50/p99_seconds`` lag percentiles the regression gate
    tracks — with and without a rolling retention window.  Everything
    is modeled time, so the lags are bit-reproducible.
    """
    base = {
        "reader.num_readers": 4,
        "data.num_partitions": 3,
        "train.train_epochs": 3,
        "stream.interval_seconds": 60.0,
        "stream.land_latency_seconds": 5.0,
    }
    return (
        {"label": "stream-live", **base},
        {"label": "stream-retained", **base, "retention.window": 2},
    )


def _build_profile(
    name: str,
    description: str,
    *,
    scale: float,
    sessions: int,
    widths: tuple,
    wide_widths: tuple,
    wide_batch_size: int,
) -> Profile:
    """The shared experiment set at one size (see module docstring)."""
    sizes = {"scale": scale, "num_sessions": sessions, "seed": 0}
    base = {"workload.scale": scale, "data.num_sessions": sessions}
    return Profile(
        name=name,
        description=description,
        sizes=sizes,
        grids=(
            *(fig.grid(**sizes) for fig in FIGURES.values() if fig.grid),
            GridSpec(
                name="fleet_scaling",
                description=(
                    "Reader-fleet scan throughput vs fleet width x "
                    "session-dedup x batch transport (the shared-tier "
                    "sizing curve, the dedup compounding wall, and the "
                    "copy-vs-shm handoff bend at wide widths)"
                ),
                # O1+O2 layout only: duplicates are batch-local but the
                # transport stays KJT, so the reader.dedup axis is a
                # pure bit-identity A/B (same losses, fewer decoded
                # bytes, smaller modeled wall at every width).  The
                # default in-process executor keeps the whole grid —
                # wide include points most of all — deterministic and
                # CI-fast.
                base={**base, "workload.rm": "RM1", "toggles": CLUSTERED},
                axes={
                    "reader.num_readers": list(widths),
                    "reader.dedup": [False, True],
                    "reader.transport": ["copy", "shm"],
                },
                include=_wide_points(wide_widths, wide_batch_size)
                + _stream_points(),
            ),
            GridSpec(
                name="ingest_overlap",
                description=(
                    "Streaming vs materialized ingestion overlap on "
                    "one RecD job"
                ),
                base={
                    **base,
                    "workload.rm": "RM1",
                    "toggles": "recd",
                    "reader.num_readers": 2,
                },
                axes={"reader.streaming": [True, False]},
            ),
        ),
    )


#: every profile the CLI and CI can name
PROFILES = {
    "smoke": _build_profile(
        "smoke",
        "CI-sized sweep: every experiment at quarter scale",
        scale=0.25,
        sessions=120,
        widths=(1, 2, 4),
        wide_widths=(16, 64),
        wide_batch_size=24,
    ),
    "paper": _build_profile(
        "paper",
        "Full nightly sweep at figure-generation size",
        scale=0.5,
        sessions=250,
        widths=(1, 2, 4, 8),
        wide_widths=(16, 32, 64),
        wide_batch_size=48,
    ),
}


def get_profile(name: str) -> Profile:
    """Look a profile up by name.

    Raises:
        KeyError: naming the known profiles when ``name`` is unknown.
    """
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; profiles: {sorted(PROFILES)}"
        ) from None
