"""The results store: every run's provenance and reports, queryable.

A :class:`RunStore` is a single SQLite file (default
``benchmarks/results/store/runs.sqlite``) holding one row per run plus
a flat ``metrics`` table for the scalar headline numbers.  The store is
the system of record the figure/table drivers and the regression gate
read from; the free-form ``.txt`` files under ``benchmarks/results/``
are rendered *views* of what lives here.

Two properties carry the harness:

* **Provenance is the key.**  A grid run's primary key is its
  content-addressed :attr:`RunRecord.run_id`
  (:func:`~repro.experiments.grid.run_id_for` over the resolved point
  values), and the row stores those exact values — so
  :meth:`RunStore.has` is what gives the driver resume-on-rerun, and
  :func:`~repro.experiments.grid.build_job_spec` over a stored row's
  ``spec`` rebuilds the precise :class:`~repro.pipeline.spec.JobSpec`
  that produced it.
* **Writes are idempotent.**  ``INSERT OR REPLACE`` on the run ID:
  re-recording a run overwrites its row instead of duplicating it.

Every method opens its own connection, so a store handle is cheap and
safe to share across pytest workers and CLI invocations.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunRecord", "RunStore", "DEFAULT_STORE_PATH"]

#: where the CLI and CI put the store unless told otherwise
DEFAULT_STORE_PATH = Path("benchmarks/results/store/runs.sqlite")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id     TEXT PRIMARY KEY,
    experiment TEXT NOT NULL,
    label      TEXT NOT NULL,
    profile    TEXT NOT NULL DEFAULT '',
    kind       TEXT NOT NULL DEFAULT 'grid',
    created_at TEXT NOT NULL DEFAULT '',
    spec       TEXT NOT NULL DEFAULT '{}',
    env        TEXT NOT NULL DEFAULT '{}',
    losses     TEXT NOT NULL DEFAULT '[]',
    reports    TEXT NOT NULL DEFAULT '{}',
    artifact   TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS runs_experiment ON runs (experiment, label);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL,
    name   TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, name)
);
"""


@dataclass(frozen=True)
class RunRecord:
    """One stored run: identity, provenance, and everything measured.

    Attributes:
        run_id: content-addressed identity (grid runs) or a stable name
            (``bench`` runs, keyed by benchmark node ID).
        experiment: owning experiment (grid name or benchmark module).
        label: short human-readable identity within the experiment.
        profile: the profile the run executed under (``"smoke"``,
            ``"paper"``, or ``""`` for ad-hoc runs).
        kind: ``"grid"`` for matrix runs, ``"bench"`` for benchmark
            scripts routing results through the store.
        created_at: ISO-8601 UTC timestamp of the recording.
        spec: the resolved dotted-path point values (grid runs) or the
            benchmark's parameters — the full provenance.
        env: the environment fingerprint
            (:func:`~repro.experiments.env.environment_fingerprint`).
        losses: the run's per-step loss trajectory (the bit-identity
            fingerprint; empty for runs without one).
        metrics: scalar headline numbers, individually queryable.
        reports: every report object the run produced, serialized
            (``fleet``/``overlap``/``tier``/``slo``/…, per producer).
        artifact: rendered text view of the run, when one exists.
    """

    run_id: str
    experiment: str
    label: str
    profile: str = ""
    kind: str = "grid"
    created_at: str = ""
    spec: Mapping = field(default_factory=dict)
    env: Mapping = field(default_factory=dict)
    losses: tuple = ()
    metrics: Mapping = field(default_factory=dict)
    reports: Mapping = field(default_factory=dict)
    artifact: str = ""

    def __post_init__(self) -> None:
        if not self.run_id:
            raise ValueError("RunRecord.run_id must be non-empty")
        if not self.experiment:
            raise ValueError("RunRecord.experiment must be non-empty")
        if self.kind not in ("grid", "bench"):
            raise ValueError(
                f"RunRecord.kind must be 'grid' or 'bench', got "
                f"{self.kind!r}"
            )
        for name, value in self.metrics.items():
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ):
                raise ValueError(
                    f"RunRecord.metrics[{name!r}] must be a number, "
                    f"got {value!r}"
                )


class RunStore:
    """The SQLite-backed results store (see module docstring)."""

    def __init__(self, path: str | Path = DEFAULT_STORE_PATH):
        """Open (creating if needed) the store at ``path``.

        Args:
            path: the SQLite file; parent directories are created.
        """
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    def _connect(self) -> sqlite3.Connection:
        """A fresh connection (one per method call; see module doc)."""
        return sqlite3.connect(self.path)

    # -- writes --------------------------------------------------------------

    def record(self, record: RunRecord) -> None:
        """Persist one run, replacing any prior row with its ID."""
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO runs VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run_id,
                    record.experiment,
                    record.label,
                    record.profile,
                    record.kind,
                    record.created_at,
                    json.dumps(dict(record.spec), sort_keys=True),
                    json.dumps(dict(record.env), sort_keys=True),
                    json.dumps(list(record.losses)),
                    json.dumps(dict(record.reports), sort_keys=True),
                    record.artifact,
                ),
            )
            conn.execute(
                "DELETE FROM metrics WHERE run_id = ?", (record.run_id,)
            )
            conn.executemany(
                "INSERT INTO metrics VALUES (?, ?, ?)",
                [
                    (record.run_id, name, float(value))
                    for name, value in record.metrics.items()
                ],
            )

    def delete(self, run_id: str) -> None:
        """Drop one run (and its metrics) if present."""
        with self._connect() as conn:
            conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
            conn.execute(
                "DELETE FROM metrics WHERE run_id = ?", (run_id,)
            )

    # -- reads ---------------------------------------------------------------

    def has(self, run_id: str) -> bool:
        """Whether a run with this ID is already recorded (the driver's
        resume-on-rerun check)."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return row is not None

    def get(self, run_id: str) -> RunRecord:
        """Load one run by ID.

        Raises:
            KeyError: if no run with this ID is recorded.
        """
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"no run {run_id!r} in {self.path}")
            metrics = dict(
                conn.execute(
                    "SELECT name, value FROM metrics WHERE run_id = ?",
                    (run_id,),
                ).fetchall()
            )
        return self._to_record(row, metrics)

    def query(
        self,
        experiment: str | None = None,
        label: str | None = None,
        profile: str | None = None,
        kind: str | None = None,
    ) -> list[RunRecord]:
        """Every recorded run matching the given filters.

        Args:
            experiment: keep runs of this experiment only.
            label: keep runs with this label only.
            profile: keep runs recorded under this profile only.
            kind: keep ``"grid"`` or ``"bench"`` runs only.

        Returns:
            Matching records ordered by (experiment, label, created_at)
            — so the *last* record per (experiment, label) is the most
            recently recorded one.
        """
        clauses, params = [], []
        for column, value in (
            ("experiment", experiment),
            ("label", label),
            ("profile", profile),
            ("kind", kind),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM runs" + where
                + " ORDER BY experiment, label, created_at, run_id",
                params,
            ).fetchall()
            out = []
            for row in rows:
                metrics = dict(
                    conn.execute(
                        "SELECT name, value FROM metrics "
                        "WHERE run_id = ?",
                        (row[0],),
                    ).fetchall()
                )
                out.append(self._to_record(row, metrics))
        return out

    def latest(self, experiment: str, label: str) -> RunRecord:
        """The most recently recorded run for (experiment, label).

        Raises:
            KeyError: if nothing matches.
        """
        matches = self.query(experiment=experiment, label=label)
        if not matches:
            raise KeyError(
                f"no runs for experiment={experiment!r} "
                f"label={label!r} in {self.path}"
            )
        return matches[-1]

    def metric(
        self, name: str, experiment: str | None = None
    ) -> dict[str, float]:
        """One metric's value across runs, keyed by run ID.

        Args:
            name: the metric name.
            experiment: restrict to one experiment's runs when given.
        """
        sql = (
            "SELECT m.run_id, m.value FROM metrics m "
            "JOIN runs r ON r.run_id = m.run_id WHERE m.name = ?"
        )
        params: list = [name]
        if experiment is not None:
            sql += " AND r.experiment = ?"
            params.append(experiment)
        with self._connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        return dict(rows)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _to_record(row: Iterable, metrics: Mapping) -> RunRecord:
        """One ``runs`` row + its metrics → a :class:`RunRecord`."""
        (
            run_id,
            experiment,
            label,
            profile,
            kind,
            created_at,
            spec,
            env,
            losses,
            reports,
            artifact,
        ) = row
        return RunRecord(
            run_id=run_id,
            experiment=experiment,
            label=label,
            profile=profile,
            kind=kind,
            created_at=created_at,
            spec=json.loads(spec),
            env=json.loads(env),
            losses=tuple(json.loads(losses)),
            metrics=dict(metrics),
            reports=json.loads(reports),
            artifact=artifact,
        )
