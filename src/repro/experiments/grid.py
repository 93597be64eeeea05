"""Declarative config matrices over the :class:`~repro.pipeline.spec.JobSpec` surface.

A :class:`GridSpec` names an experiment and describes a matrix of runs
in *point space*: flat dicts mapping dotted spec paths
(``"data.num_sessions"``, ``"reader.num_readers"``,
``"retention.window"``, …) to JSON-native values.  ``base`` holds
the values every run shares, each entry in ``axes`` sweeps one path
over a list of values (the matrix is their cartesian product), and
``include`` adds explicit extra points (GitHub-matrix semantics).  :func:`expand_grid`
resolves the matrix into deterministic :class:`RunPoint`\\ s.

Determinism is the load-bearing property: a point's :attr:`RunPoint.run_id`
is the SHA-256 of the canonical JSON of its fully resolved values (plus
the experiment name), so the same declared matrix always expands to the
same IDs — in the same order — on every machine.  That is what lets the
driver (:mod:`repro.experiments.runner`) skip runs already present in
the :class:`~repro.experiments.store.RunStore` and what makes a stored
run's provenance content-addressed.

Point space exists (instead of hashing ``JobSpec`` objects directly)
because workloads are constructed, not enumerated: a point names its
workload as ``{"workload.rm": "RM2", "workload.scale": 0.5}`` and its
toggles as ``"baseline"``/``"recd"`` (or a dict of O-flags), and
:func:`build_job_spec` rebuilds the exact :class:`JobSpec` from those
constructor inputs.  Everything else maps 1:1 onto spec fields.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields

from ..datagen.workloads import WORKLOADS
from ..pipeline.config import RecDToggles
from ..pipeline.spec import (
    DataSpec,
    JobSpec,
    ReaderSpec,
    RetentionSpec,
    ScalingSpec,
    StreamSpec,
    TrainSpec,
)

__all__ = [
    "GridSpec",
    "RunPoint",
    "expand_grid",
    "build_job_spec",
    "spec_default",
]

#: spec sections reachable by dotted paths, mapped to their dataclasses
#: (faults are FaultPlan events and resume state belongs to the session
#: that preempted a job, so neither is a spec field)
_SECTIONS = {
    "data": DataSpec,
    "reader": ReaderSpec,
    "train": TrainSpec,
    "scaling": ScalingSpec,
    "retention": RetentionSpec,
    "stream": StreamSpec,
}

#: point keys that do not map onto a spec section field
_SYNTHETIC_KEYS = ("workload.rm", "workload.scale", "toggles", "weight", "label")


def _known_paths() -> list[str]:
    """Every dotted path a point may set, for validation messages."""
    paths = list(_SYNTHETIC_KEYS)
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            if section == "data" and f.name in ("workload", "toggles"):
                continue
            paths.append(f"{section}.{f.name}")
    return sorted(paths)


def spec_default(path: str):
    """What a point that leaves ``section.field`` unset runs with: the
    spec dataclass's own default (a CLI flag that offers the same
    default reads it here instead of retyping it)."""
    section, _, leaf = path.partition(".")
    f = _SECTIONS[section].__dataclass_fields__[leaf]
    return f.default_factory() if f.default is MISSING else f.default


def _validate_path(path: str, where: str) -> None:
    """Reject a dotted path no spec field answers to, naming the grid."""
    if path in _SYNTHETIC_KEYS:
        return
    section, _, leaf = path.partition(".")
    cls = _SECTIONS.get(section)
    if cls is not None and leaf in {f.name for f in fields(cls)}:
        if section == "data" and leaf in ("workload", "toggles"):
            raise ValueError(
                f"{where}: set {path!r} via the synthetic keys "
                "'workload.rm'/'workload.scale'/'toggles', not directly"
            )
        return
    raise ValueError(
        f"{where}: unknown spec path {path!r}; known paths: "
        f"{', '.join(_known_paths())}"
    )


def _validate_value(path: str, value, where: str) -> None:
    """Reject values that would not survive the canonical-JSON hash."""
    try:
        encoded = json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{where}: value for {path!r} is not JSON-native "
            f"({value!r}): {exc}"
        ) from None
    if json.loads(encoded) != value:
        raise ValueError(
            f"{where}: value for {path!r} does not round-trip through "
            f"JSON ({value!r}); use lists/dicts/str/int/float/bool"
        )


def canonical_json(values: Mapping) -> str:
    """The canonical (sorted-key, compact) JSON text of a point's values.

    This exact text is what :func:`run_id_for` hashes, so it defines
    run identity: two points are the same run iff their canonical JSON
    is byte-identical.
    """
    return json.dumps(values, sort_keys=True, separators=(",", ":"))


def run_id_for(experiment: str, values: Mapping) -> str:
    """The content-addressed run ID for one resolved point.

    Args:
        experiment: the grid's experiment name (part of the identity —
            the same values under two experiments are two runs).
        values: the point's fully resolved dotted-path values.

    Returns:
        16 hex chars of SHA-256 over ``experiment`` + canonical JSON.
    """
    digest = hashlib.sha256(
        f"{experiment}\n{canonical_json(values)}".encode()
    )
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class RunPoint:
    """One fully resolved run of an experiment matrix.

    Attributes:
        experiment: the owning grid's name.
        values: the resolved dotted-path values (base + assignment).
        run_id: content-addressed identity (:func:`run_id_for`).
        label: short human-readable identity within the experiment —
            derived from the axis assignment (``"readers=4,rm=RM2"``),
            or the point's explicit ``"label"`` value.
    """

    experiment: str
    values: Mapping
    run_id: str
    label: str

    def job_spec(self) -> JobSpec:
        """The executable :class:`JobSpec` this point describes."""
        return build_job_spec(self.values)


@dataclass(frozen=True)
class GridSpec:
    """A declarative experiment matrix (GitHub-matrix semantics).

    Attributes:
        name: the experiment name runs are stored under.
        base: dotted-path values every run shares.
        axes: dotted path → swept values; the matrix is the cartesian
            product over every axis (in sorted path order).
        include: explicit extra points, each merged over ``base`` and
            appended after the product.
        description: one line for ``repro experiments list``.
    """

    name: str
    base: Mapping = field(default_factory=dict)
    axes: Mapping = field(default_factory=dict)
    include: tuple = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("GridSpec.name must be non-empty")
        for path, value in self.base.items():
            _validate_path(path, f"GridSpec({self.name!r}).base")
            _validate_value(path, value, f"GridSpec({self.name!r}).base")
        for path, values in self.axes.items():
            where = f"GridSpec({self.name!r}).axes[{path!r}]"
            _validate_path(path, where)
            if not isinstance(values, Sequence) or isinstance(values, str):
                raise ValueError(f"{where}: axis values must be a sequence")
            if not values:
                raise ValueError(f"{where}: axis must sweep >= 1 value")
            for value in values:
                _validate_value(path, value, where)
        for point in self.include:
            for path, value in point.items():
                where = f"GridSpec({self.name!r}).include"
                _validate_path(path, where)
                _validate_value(path, value, where)


def _short(path: str) -> str:
    """The label-friendly last segment of a dotted path."""
    return path.rsplit(".", 1)[-1]


def _label_for(values: Mapping, keys: Sequence[str]) -> str:
    """A point's label from its distinguishing keys (sorted by path)."""
    explicit = values.get("label")
    if explicit is not None:
        return str(explicit)
    if not keys:
        return "base"
    return ",".join(f"{_short(k)}={values[k]}" for k in sorted(keys))


def expand_grid(grid: GridSpec) -> list[RunPoint]:
    """Resolve a grid into its deterministic list of run points.

    The axis product is walked in sorted-axis-path order with each
    axis's values in declaration order, and includes append — so the returned list (points *and* their
    order) is a pure function of the grid declaration.

    Args:
        grid: the declared matrix.

    Returns:
        The resolved :class:`RunPoint`\\ s, deduplicated by ``run_id``
        (first occurrence wins).
    """
    axis_paths = sorted(grid.axes)
    points: list[RunPoint] = []
    seen: set[str] = set()

    def _emit(values: dict, label_keys: Sequence[str]) -> None:
        """Append one resolved point unless its run_id already exists."""
        run_id = run_id_for(grid.name, values)
        if run_id in seen:
            return
        seen.add(run_id)
        points.append(
            RunPoint(
                experiment=grid.name,
                values=values,
                run_id=run_id,
                label=_label_for(values, label_keys),
            )
        )

    if axis_paths:  # include-only grids have no product to walk
        for combo in itertools.product(
            *(grid.axes[path] for path in axis_paths)
        ):
            values = dict(grid.base)
            values.update(zip(axis_paths, combo))
            _emit(values, axis_paths)
    for extra in grid.include:
        values = dict(grid.base)
        values.update(extra)
        _emit(values, list(extra))
    return points


def _build_toggles(value) -> RecDToggles:
    """A point's ``"toggles"`` value → :class:`RecDToggles`."""
    if value == "baseline":
        return RecDToggles.baseline()
    if value == "recd":
        return RecDToggles.full()
    if isinstance(value, Mapping):
        return RecDToggles(**value)
    raise ValueError(
        f"toggles must be 'baseline', 'recd', or a dict of O-flags, "
        f"got {value!r}"
    )


def build_job_spec(values: Mapping) -> JobSpec:
    """Build the :class:`JobSpec` a resolved point describes.

    Args:
        values: dotted-path values (a :attr:`RunPoint.values` mapping).
            Unset paths take the spec dataclasses' own defaults; the
            optional sections (``scaling``/``retention``/``stream``)
            stay ``None`` unless some path touches them.

    Returns:
        The executable spec — rebuilt purely from constructor inputs,
        so the same values always yield an equal spec.

    Raises:
        ValueError: on an unknown path, unknown workload, or any spec
            ``__post_init__`` validation failure.
    """
    sections: dict[str, dict] = {name: {} for name in _SECTIONS}
    rm, scale, toggles, weight = "RM1", 0.5, "baseline", 1.0
    for path in sorted(values):
        _validate_path(path, "build_job_spec")
        value = values[path]
        if path == "workload.rm":
            rm = value
        elif path == "workload.scale":
            scale = value
        elif path == "toggles":
            toggles = value
        elif path == "weight":
            weight = value
        elif path == "label":
            pass  # display-only; never a spec field
        else:
            section, _, leaf = path.partition(".")
            if isinstance(value, list):
                value = tuple(value)
            sections[section][leaf] = value
    if rm not in WORKLOADS:
        raise ValueError(
            f"workload.rm must be one of {sorted(WORKLOADS)}, got {rm!r}"
        )
    data = sections["data"]
    if "transforms" in data:
        data["transforms"] = tuple(data["transforms"])
    return JobSpec(
        data=DataSpec(
            workload=WORKLOADS[rm](scale),
            toggles=_build_toggles(toggles),
            **data,
        ),
        reader=ReaderSpec(**sections["reader"]),
        train=TrainSpec(**sections["train"]),
        scaling=(
            ScalingSpec(**sections["scaling"])
            if sections["scaling"]
            else None
        ),
        retention=(
            RetentionSpec(**sections["retention"])
            if sections["retention"]
            else None
        ),
        stream=(
            StreamSpec(**sections["stream"])
            if sections["stream"]
            else None
        ),
        weight=weight,
    )
