"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables/figures, prints the
paper-style rows, and persists them twice: the rendered text block lands
in ``benchmarks/results/{name}.txt`` (the human-readable view; ``name``
is the figure's ``FIGURES`` key for ``test_figures.py``, the test's node
name elsewhere), and the run — with any machine-readable ``metrics``
the benchmark passes — is recorded in the results store
(``benchmarks/results/store/runs.sqlite``) as a ``kind="bench"``
:class:`~repro.experiments.store.RunRecord`, where the regression gate
(``check_regression.py``) and ``repro experiments query`` can reach it.
Benchmarks run the experiment once (``benchmark.pedantic(rounds=1)``) —
the interesting output is the rows, not the harness's wall time.
"""

from __future__ import annotations

import pathlib
from datetime import datetime, timezone

import pytest

from repro.experiments import RunRecord, RunStore, environment_fingerprint

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
STORE_PATH = RESULTS_DIR / "store" / "runs.sqlite"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def run_store() -> RunStore:
    """The session-wide results store benchmarks record into."""
    return RunStore(STORE_PATH)


@pytest.fixture(scope="session")
def bench_env() -> dict:
    """One environment fingerprint shared by the whole bench session."""
    return environment_fingerprint()


@pytest.fixture()
def emit(results_dir, run_store, bench_env, request):
    """Print a block of result lines and persist them per-benchmark.

    The ``.txt`` file keeps the rendered view; passing ``metrics=``
    additionally records the numbers in the results store under
    ``bench:<name>`` (a stable run ID, so re-runs replace); ``name``
    defaults to the test's node name.
    """

    def _emit(
        title: str, lines: list[str], metrics: dict | None = None, name: str | None = None
    ) -> None:
        name = name or request.node.name
        block = [f"== {title} =="] + lines
        text = "\n".join(block)
        print("\n" + text)
        out = results_dir / f"{name}.txt"
        out.write_text(text + "\n")
        run_store.record(
            RunRecord(
                run_id=f"bench:{name}",
                experiment=request.node.module.__name__,
                label=name,
                kind="bench",
                created_at=datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                spec={"node": request.node.nodeid, "title": title},
                env=bench_env,
                metrics=metrics or {},
                artifact=text + "\n",
            )
        )

    return _emit
