"""Shared dataset, trace, and landed-table fixtures for the test suite.

The reader/pipeline tests all need the same scaffolding — a small schema
with one slow-changing history feature and one fast-changing item
feature, a generated trace, and a partition landed on an in-memory
Hive/DWRF table.  These helpers replace the per-module copies of that
setup; module-level code can import the ``make_*``/``land_samples``
functions (``from tests.conftest import ...``), tests take the fixtures.
"""

from __future__ import annotations

import functools

import pytest

from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
    rm1,
)
from repro.etl.cluster import cluster_order
from repro.experiments import FIGURES
from repro.pipeline import Session
from repro.storage import HiveTable, RowBlock, TectonicFS

__all__ = [
    "SMALL",
    "make_reader_schema",
    "make_trace",
    "land_samples",
]


#: the figure-subcommand flag values ``tests/pipeline/golden_figures.json``
#: was recorded at: ``--scale 0.25 --sessions 60 --sessions-large 3000
#: --seed 1``
SMALL = {"scale": 0.25, "sessions": 60, "sessions_large": 3000, "seed": 1}


@pytest.fixture(scope="session")
def small():
    """``small(name)``: the ``FIGURES`` entry's rows at :data:`SMALL`,
    run once per test session however many tests read them."""

    @functools.cache
    def rows(name):
        fig = FIGURES[name]
        return fig.run(**{param: SMALL[f] for f, param in fig.flags.items()})

    return rows


@pytest.fixture(scope="session")
def run_of():
    """``run_of(jobs, land_first=False, **session_kw)``:
    ``Session(jobs, **session_kw).run()``, run once per test session
    however many tests read that reference run.  ``jobs`` is one spec
    or a tuple of them; ``land_first=True`` lands every job's whole
    stream before round one (the live loop's reference).  Sound because
    a ``JobSpec`` is frozen, hashable and fully determines its run —
    ``test_autoscale_pipeline.py::test_trace_reproducible_across_runs``
    runs one spec twice *uncached* and is the licence for every hit.
    Results are shared between tests: read them, never mutate them."""

    @functools.cache
    def run(jobs, land_first=False, **session_kw):
        session = Session(jobs, **session_kw)
        if land_first:
            session.prepare()
            session.land_all_streams()
        return session.run()

    return run


def make_reader_schema(
    hist_avg_length: int = 16,
    hist_change_prob: float = 0.05,
) -> DatasetSchema:
    """The canonical small reader-path schema: a sticky session-level
    ``hist`` feature, a volatile per-sample ``item`` feature, one dense."""
    return DatasetSchema(
        sparse=(
            SparseFeatureSpec(
                "hist",
                avg_length=hist_avg_length,
                change_prob=hist_change_prob,
            ),
            SparseFeatureSpec("item", avg_length=2, change_prob=0.9),
        ),
        dense=(DenseFeatureSpec("d"),),
    )


def make_trace(
    schema: DatasetSchema,
    sessions: int = 60,
    seed: int = 0,
    clustered: bool = False,
) -> RowBlock:
    """Generate one partition's samples as one block (columnarised once),
    optionally session-clustered (O2)."""
    rows = RowBlock.from_samples(
        generate_partition(schema, sessions, TraceConfig(seed=seed))
    )
    if clustered:
        rows = rows.take(cluster_order(rows.session_id, rows.timestamp))
    return rows


def land_samples(
    schema: DatasetSchema,
    samples: RowBlock,
    rows_per_file: int = 4096,
    stripe_rows: int = 256,
) -> HiveTable:
    """Land the block ``samples`` as partition ``"p"`` of an in-memory
    table ``"t"``."""
    table = HiveTable(
        "t",
        schema,
        TectonicFS(),
        rows_per_file=rows_per_file,
        stripe_rows=stripe_rows,
    )
    table.land_partition("p", samples)
    return table


@pytest.fixture
def reader_schema() -> DatasetSchema:
    return make_reader_schema()


@pytest.fixture
def landed_table():
    """Factory fixture: ``landed_table(clustered=..., seed=...)`` returns
    ``(table, samples)`` with the trace landed as partition ``"p"``."""

    def make(
        clustered: bool = False,
        seed: int = 0,
        sessions: int = 60,
        schema: DatasetSchema | None = None,
        rows_per_file: int = 4096,
        stripe_rows: int = 256,
    ):
        schema = schema or make_reader_schema()
        samples = make_trace(
            schema, sessions=sessions, seed=seed, clustered=clustered
        )
        table = land_samples(
            schema,
            samples,
            rows_per_file=rows_per_file,
            stripe_rows=stripe_rows,
        )
        return table, samples

    return make


@pytest.fixture
def rm1_half():
    """The workload most pipeline tests run: RM1 at half scale."""
    return rm1(scale=0.5)


@pytest.fixture
def count_constructions(monkeypatch):
    """``count_constructions(cls, ...)`` spies on each class's
    ``__init__`` and returns a one-element list holding how many
    instances have been built since — the "no row object on the hot
    path" probe."""

    def install(*classes):
        built = [0]

        def counting(init):
            def spy(self, *args, **kwargs):
                built[0] += 1
                init(self, *args, **kwargs)

            return spy

        for cls in classes:
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        return built

    return install
