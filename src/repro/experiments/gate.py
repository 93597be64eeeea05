"""The store-backed regression gate: stored metrics vs committed baselines.

Because every gated metric is *modeled* (cost-model seconds), values
are bit-reproducible across machines, so baselines can live in the
repo (``benchmarks/baselines/{smoke,paper}.json``) and be compared on
any runner.  The tolerance absorbs intentional cost-model retuning,
not machine noise.

A baselines file is JSON:

.. code-block:: json

    {
      "defaults": {"tolerance": 0.2, "direction": "higher"},
      "metrics": {
        "fig7/toggles=recd,rm=RM1:trainer_qps": {
          "value": 123456.0
        }
      }
    }

A metric key is ``{experiment}/{label}:{metric}`` — the same
(experiment, label) identity the store indexes on.  Each entry may
override ``tolerance`` (fractional) and ``direction`` (``"higher"``
means bigger is better: regression when the stored value falls more
than ``tolerance`` below baseline; ``"lower"`` inverts).  ``--update``
(:func:`update_baselines`) rewrites values from the store while
preserving any per-metric overrides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .store import RunStore

__all__ = [
    "GateResult",
    "load_baselines",
    "check_store",
    "update_baselines",
    "markdown_summary",
]

#: the headline metrics ``--update`` snapshots per (experiment, label)
GATED_METRICS = (
    "trainer_qps",
    "reader_qps",
    "storage_compression",
    "scribe_compression",
    "goodput_batches_per_second",
    "fleet_modeled_samples_per_second",
    # the transport-floored delivery throughput: where the copy
    # transport's serial per-batch handoff bends wide-fleet scaling
    "fleet_delivered_samples_per_second",
    # bytes-savings: expanded/decoded — 1.0 without dedup, > 1 with the
    # dedup hot path on; a drop means the transport savings regressed
    "dedupe_byte_factor",
    # tail event-time → trained-on lag for streamed live-loop runs:
    # the freshness SLO the tier's lag-boosted weights defend
    "freshness_p99_seconds",
)

_DIRECTIONS = ("higher", "lower")

#: metrics where smaller is better; ``update_baselines`` stamps these
#: as ``direction: lower`` unless the entry already overrides it
_LOWER_IS_BETTER = ("freshness_p99_seconds",)


def load_baselines(path: str | Path) -> dict:
    """Load and validate a baselines file.

    Raises:
        ValueError: on a malformed file, naming what is wrong.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "metrics" not in data:
        raise ValueError(
            f"{path}: baselines must be an object with a 'metrics' key"
        )
    defaults = data.setdefault("defaults", {})
    direction = defaults.get("direction", "higher")
    if direction not in _DIRECTIONS:
        raise ValueError(
            f"{path}: defaults.direction must be one of {_DIRECTIONS}, "
            f"got {direction!r}"
        )
    for key, entry in data["metrics"].items():
        if ":" not in key or "/" not in key.split(":", 1)[0]:
            raise ValueError(
                f"{path}: metric key {key!r} is not "
                "'experiment/label:metric'"
            )
        if "value" not in entry:
            raise ValueError(f"{path}: metric {key!r} has no 'value'")
        if entry.get("direction", direction) not in _DIRECTIONS:
            raise ValueError(
                f"{path}: metric {key!r} direction must be one of "
                f"{_DIRECTIONS}"
            )
    return data


@dataclass
class GateRow:
    """One gated metric's comparison outcome.

    Attributes:
        key: the baseline key (``experiment/label:metric``).
        baseline: the committed value.
        value: the stored value (``None`` when the run or metric is
            missing from the store).
        tolerance: the fractional tolerance applied.
        direction: ``"higher"`` or ``"lower"`` (which way is better).
        status: ``"ok"``, ``"regression"``, or ``"missing"``.
    """

    key: str
    baseline: float
    value: float | None
    tolerance: float
    direction: str
    status: str

    @property
    def delta_fraction(self) -> float | None:
        """Fractional change vs baseline (positive = value above it)."""
        if self.value is None or self.baseline == 0:
            return None
        return (self.value - self.baseline) / abs(self.baseline)


@dataclass
class GateResult:
    """Every gated metric's row, plus the overall verdict.

    Attributes:
        rows: one :class:`GateRow` per baseline entry, in file order.
    """

    rows: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Whether any metric regressed or went missing."""
        return any(r.status != "ok" for r in self.rows)

    @property
    def regressions(self) -> list:
        """The rows that failed the gate."""
        return [r for r in self.rows if r.status != "ok"]


def _resolve(entry: dict, defaults: dict) -> tuple[float, str]:
    """One baseline entry's effective (tolerance, direction)."""
    return (
        float(entry.get("tolerance", defaults.get("tolerance", 0.2))),
        entry.get("direction", defaults.get("direction", "higher")),
    )


def check_store(
    store: RunStore, baselines: dict, *, profile: str | None = None
) -> GateResult:
    """Compare the store's latest runs against committed baselines.

    For each baseline key the *most recently recorded* run for its
    (experiment, label) — optionally restricted to one profile — is
    consulted.  A missing run or metric fails the gate: a sweep that
    silently stopped producing a number must not pass.

    Args:
        store: the results store to read.
        baselines: a loaded baselines dict (:func:`load_baselines`).
        profile: restrict lookups to runs recorded under this profile.

    Returns:
        The :class:`GateResult` (check :attr:`GateResult.failed`).
    """
    defaults = baselines.get("defaults", {})
    result = GateResult()
    for key, entry in baselines["metrics"].items():
        exp_label, metric = key.rsplit(":", 1)
        experiment, label = exp_label.split("/", 1)
        tolerance, direction = _resolve(entry, defaults)
        baseline = float(entry["value"])
        matches = store.query(
            experiment=experiment, label=label, profile=profile
        )
        value = None
        if matches:
            value = matches[-1].metrics.get(metric)
        if value is None:
            status = "missing"
        elif direction == "higher":
            status = (
                "regression"
                if value < baseline - tolerance * abs(baseline)
                else "ok"
            )
        else:
            status = (
                "regression"
                if value > baseline + tolerance * abs(baseline)
                else "ok"
            )
        result.rows.append(
            GateRow(
                key=key,
                baseline=baseline,
                value=value,
                tolerance=tolerance,
                direction=direction,
                status=status,
            )
        )
    return result


def update_baselines(
    store: RunStore,
    path: str | Path,
    *,
    profile: str | None = None,
    metrics: tuple = GATED_METRICS,
) -> dict:
    """Regenerate a baselines file's values from the store.

    Every (experiment, label) with runs in the store contributes its
    latest value for each of ``metrics`` it actually recorded.  An
    existing file's defaults and per-metric ``tolerance``/``direction``
    overrides are preserved; entries whose runs vanished from the store
    are dropped.

    Args:
        store: the results store to snapshot.
        path: the baselines file to write (created if absent).
        profile: restrict to runs recorded under this profile.
        metrics: the metric names to snapshot.

    Returns:
        The written baselines dict.
    """
    path = Path(path)
    old: dict = {"defaults": {"tolerance": 0.2, "direction": "higher"}}
    if path.exists():
        old = load_baselines(path)
    old_metrics = old.get("metrics", {})
    fresh: dict = {}
    for record in store.query(profile=profile, kind="grid"):
        for name in metrics:
            if name not in record.metrics:
                continue
            key = f"{record.experiment}/{record.label}:{name}"
            entry = {
                k: v
                for k, v in old_metrics.get(key, {}).items()
                if k in ("tolerance", "direction")
            }
            if name in _LOWER_IS_BETTER and "direction" not in entry:
                entry["direction"] = "lower"
            # query() orders by created_at, so later records win
            entry["value"] = record.metrics[name]
            fresh[key] = entry
    data = {
        "defaults": old.get("defaults", {}),
        "metrics": {k: fresh[k] for k in sorted(fresh)},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def markdown_summary(result: GateResult, title: str = "Regression gate") -> str:
    """A metric-by-metric markdown table (for ``$GITHUB_STEP_SUMMARY``).

    Args:
        result: a :func:`check_store` result.
        title: the heading above the table.
    """
    lines = [
        f"## {title}",
        "",
        "| metric | baseline | value | Δ | tolerance | status |",
        "| --- | ---: | ---: | ---: | ---: | --- |",
    ]
    for row in result.rows:
        value = "missing" if row.value is None else f"{row.value:.6g}"
        delta = (
            "—"
            if row.delta_fraction is None
            else f"{row.delta_fraction:+.1%}"
        )
        mark = "✅" if row.status == "ok" else "❌"
        lines.append(
            f"| `{row.key}` | {row.baseline:.6g} | {value} | {delta} "
            f"| ±{row.tolerance:.0%} ({row.direction}) "
            f"| {mark} {row.status} |"
        )
    verdict = (
        f"**{len(result.regressions)} metric(s) failed.**"
        if result.failed
        else "**All metrics within tolerance.**"
    )
    lines += ["", verdict, ""]
    return "\n".join(lines)
