"""The top-level package resolves its subpackages on first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _loaded_after(statement: str, modules: list[str]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``statement``."""
    probe = f"import sys\n{statement}\nprint([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": _SRC}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(out.stdout)


def test_a_subpackage_import_loads_no_experiments():
    """``import repro.pipeline`` (and ``repro.core``) does not pull in
    the experiment system, nor the ``sqlite3`` its store needs."""
    for statement in ("import repro.pipeline", "import repro.core"):
        assert _loaded_after(statement, ["repro.experiments", "sqlite3"]) == []


def test_every_listed_subpackage_resolves_on_first_use():
    assert _loaded_after("import repro", ["repro.experiments"]) == []
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert repro.experiments.__name__ == "repro.experiments"
    with pytest.raises(AttributeError, match="no_such_package"):
        repro.no_such_package
