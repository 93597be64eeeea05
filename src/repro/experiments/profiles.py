"""Run profiles: the named experiment suites the harness executes.

A :class:`Profile` bundles the grids behind the paper's figures at one
of two sizes:

* ``smoke`` — CI-sized: every experiment present, every axis swept,
  but at quarter workload scale and a small session count, so the full
  suite lands in a couple of minutes on a shared runner.  This is what
  the ``experiments-smoke`` CI job runs on every PR.
* ``paper`` — the full sweep the nightly benchmark workflow runs:
  half workload scale (the repo's standard figure-generation size),
  the full session count, and wider fleet sweeps.

Both profiles declare the *same experiments* — only ``base`` values and
axis extents differ — so a metric regression caught by the smoke gate
points at the same (experiment, label) the paper profile tracks.

The ablation grid is the showcase for ``include`` points: Fig 9's
stages pair a toggle set with a label (a cumulative O1→O7 staircase),
which is a list of explicit points, not an axis product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import GridSpec

__all__ = ["Profile", "PROFILES", "get_profile"]

#: The toggle sets between the ``"baseline"`` and ``"recd"`` endpoints,
#: as the O-flag dicts a grid point hashes — only the flags that are on,
#: so run IDs stay what ``benchmarks/baselines/*.json`` pins.  Each adds
#: the next group on top of the previous (O4 rides with O3, O6 with O5 —
#: the paper's pairings); ``RecDToggles(**CLUSTERED)`` is the spec form.
CLUSTERED = {"o1_shard_by_session": True, "o2_cluster_table": True}
IKJT = {**CLUSTERED, "o3_ikjt": True}
DEDUP_EMB = {**IKJT, "o5_dedup_emb": True, "o6_jagged_index_select": True}

#: Fig 9's cumulative optimization staircase, as (label, toggles).
ABLATION_STAGES = (
    ("baseline", "baseline"),
    ("o1-o2", CLUSTERED),
    ("o1-o4", IKJT),
    ("o1-o6", DEDUP_EMB),
    ("recd", "recd"),
)


@dataclass(frozen=True)
class Profile:
    """One named suite of experiment grids.

    Attributes:
        name: the profile name (``repro experiments run --profile``).
        description: one line for ``repro experiments list``.
        grids: the experiment matrices, in run order.
    """

    name: str
    description: str
    grids: tuple

    @property
    def num_runs(self) -> int:
        """Total run points across every grid (before resume skips)."""
        from .grid import expand_grid

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
    per-epoch batch cap; the async executor runs them in tier-1 time.
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
    base = {
        "workload.scale": scale,
        "data.num_sessions": sessions,
        "reader.executor": "inprocess",
    }
    return Profile(
        name=name,
        description=description,
        grids=(
            GridSpec(
                name="fig7_throughput",
                description=(
                    "Trainer/reader throughput, baseline vs RecD, "
                    "across RM workloads (Fig 7)"
                ),
                base=base,
                axes={
                    "workload.rm": ["RM1", "RM2", "RM3"],
                    "toggles": ["baseline", "recd"],
                },
            ),
            GridSpec(
                name="fig9_ablation",
                description=(
                    "Cumulative O1-O7 optimization staircase on RM1 "
                    "(Fig 9)"
                ),
                base={**base, "workload.rm": "RM1"},
                include=tuple(
                    {"label": label, "toggles": toggles}
                    for label, toggles in ABLATION_STAGES
                ),
            ),
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
                # async executor keeps the whole grid — wide include
                # points most of all — deterministic and CI-fast; its
                # batch stream is bit-identical to the other executors.
                base={
                    **base,
                    "workload.rm": "RM1",
                    "reader.executor": "async",
                    "toggles": CLUSTERED,
                },
                axes={
                    "reader.num_readers": list(widths),
                    "reader.dedup": [False, True],
                    "reader.transport": ["copy", "shm"],
                },
                include=_wide_points(wide_widths, wide_batch_size)
                + _stream_points(),
            ),
            GridSpec(
                name="single_node",
                description=(
                    "Streaming vs materialized ingestion overlap on "
                    "one RecD job (Fig 8's attribution)"
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
