"""The public-API snapshot: ``repro.pipeline.__all__``,
``repro.experiments.__all__``, ``repro.storage.__all__`` (the layer
surface the stopwatch benchmark and ``RowBlock`` callers use),
``repro.streaming.__all__`` (the one landing path), and every
spec dataclass's field names
are diffed against a checked-in manifest
(``tests/docs/api_manifest.json``), so run-surface changes are always
deliberate — adding, renaming, or removing a public name or spec field
fails CI until the manifest is updated in the same change."""

import json
from pathlib import Path

import pytest

import repro.experiments
import repro.pipeline
import repro.storage
import repro.streaming
from repro.pipeline.spec import spec_field_names

MANIFEST_PATH = Path(__file__).with_name("api_manifest.json")


def _current_surface() -> dict:
    """The live public surface, in the manifest's shape."""
    return {
        "pipeline_all": sorted(repro.pipeline.__all__),
        "experiments_all": sorted(repro.experiments.__all__),
        "storage_all": sorted(repro.storage.__all__),
        "streaming_all": sorted(repro.streaming.__all__),
        "spec_fields": spec_field_names(),
    }


def test_public_surface_matches_manifest():
    """The snapshot diff.  On an intentional surface change, regenerate
    the manifest:

    ``python -c "import json, tests.docs.test_api_surface as t;
    print(json.dumps(t._current_surface(), indent=2))"
    > tests/docs/api_manifest.json``
    """
    manifest = json.loads(MANIFEST_PATH.read_text())
    current = _current_surface()
    assert current == manifest, (
        "the public API surface changed; if intentional, "
        f"update {MANIFEST_PATH.name} (see this test's docstring) and "
        "document the change in docs/api.md or docs/experiments.md"
    )


@pytest.mark.parametrize(
    "module",
    [repro.pipeline, repro.experiments, repro.storage, repro.streaming],
    ids=lambda m: m.__name__,
)
def test_all_names_resolve(module):
    """Everything advertised in __all__ actually exists."""
    missing = [
        name for name in module.__all__ if not hasattr(module, name)
    ]
    assert not missing, f"__all__ advertises missing names: {missing}"
