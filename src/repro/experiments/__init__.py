"""The experiment-matrix harness: grids, run store, profiles, gate.

The paper's figures are points in a configuration space; this package
makes that space declarative and its results durable.  A
:class:`~repro.experiments.grid.GridSpec` expands into deterministic,
content-addressed :class:`~repro.experiments.grid.RunPoint`\\ s; the
driver (:func:`~repro.experiments.runner.run_profile`) executes them
through :class:`~repro.pipeline.session.Session` with resume-on-rerun;
every run's provenance, fingerprint, losses, metrics, and reports land
in the :class:`~repro.experiments.store.RunStore`; the report renderer
and the CI regression gate (:mod:`repro.experiments.gate`) read from
the store.

The figures themselves — driver, printed cells, paper values, CLI
flags, store rendering — are declared once, in
:data:`~repro.experiments.figures.FIGURES`, and printed by one
:func:`~repro.experiments.figures.render`; import a driver from
:mod:`repro.experiments.figures`.

CLI surface: one subcommand per :data:`FIGURES` entry plus ``repro
experiments {run,list,query,report}``; the gate is
``benchmarks/check_regression.py``.  See ``docs/experiments.md``.
"""

from .env import environment_fingerprint
from .figures import FIGURES, render, render_report
from .gate import (
    GateResult,
    check_store,
    load_baselines,
    markdown_summary,
    update_baselines,
)
from .grid import GridSpec, RunPoint, build_job_spec, expand_grid
from .profiles import PROFILES, Profile, get_profile
from .runner import (
    RunOutcome,
    extract_metrics,
    extract_reports,
    run_grid,
    run_point,
    run_profile,
)
from .store import DEFAULT_STORE_PATH, RunRecord, RunStore

__all__ = [
    "GridSpec",
    "RunPoint",
    "expand_grid",
    "build_job_spec",
    "RunRecord",
    "RunStore",
    "DEFAULT_STORE_PATH",
    "Profile",
    "PROFILES",
    "get_profile",
    "RunOutcome",
    "run_point",
    "run_grid",
    "run_profile",
    "extract_metrics",
    "extract_reports",
    "environment_fingerprint",
    "GateResult",
    "load_baselines",
    "check_store",
    "update_baselines",
    "markdown_summary",
    "FIGURES",
    "render",
    "render_report",
]
