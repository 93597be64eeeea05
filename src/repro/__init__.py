"""repro — a full-pipeline reproduction of RecD (MLSys 2023).

RecD (Recommendation Deduplication) is a suite of end-to-end
infrastructure optimizations for DLRM training pipelines that exploit
session-centric feature duplication.  This package reproduces the
paper's primary contribution — the InverseKeyedJaggedTensor (IKJT)
format and its reader/trainer integrations — together with every
substrate the evaluation depends on: a synthetic session-overlap trace
generator, a Scribe-like message bus, ETL jobs, a DWRF-like columnar
store on an instrumented filesystem, a reader tier, a NumPy DLRM, and a
hybrid-parallel distributed-training simulator.

Quickstart::

    from repro.pipeline import DataSpec, JobSpec, RecDToggles, Session
    from repro.datagen import rm1

    result = Session(
        JobSpec(data=DataSpec(workload=rm1(scale=0.5),
                              toggles=RecDToggles.full()))
    ).run()
    print(result.trainer_qps, result.storage_compression)

``JobSpec`` + ``Session`` is the one run surface — pass a list of
specs and a ``width`` to share one reader tier across jobs;
``docs/api.md`` is the reference.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "core",
    "datagen",
    "scribe",
    "etl",
    "storage",
    "reader",
    "trainer",
    "distributed",
    "metrics",
    "pipeline",
    "experiments",
    "__version__",
]


def __getattr__(name: str):
    """Import a subpackage on first use (PEP 562), so ``import
    repro.core`` loads no more than the packages it uses."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
