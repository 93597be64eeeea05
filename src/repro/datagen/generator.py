"""Synthetic session-centric trace generator.

Reproduces the statistical structure the paper characterizes in §3:

* each session produces a heavy-tailed number of samples (mean S ≈ 16.5);
* USER sparse features keep their value across impressions with
  probability d(f); when they change they *shift* (drop the oldest ID,
  append a fresh one) — exactly the paper's "lists will be shifted with
  most elements being the same";
* grouped features update synchronously (one coin flip per group);
* ITEM features change nearly every impression (different items ranked);
* samples are ordered by inference timestamp, which interleaves sessions
  across the partition — the property that makes trainer-only dedup
  useless (Fig 3, right) and motivates O2's clustering.

Unchanged feature values are stored as *shared ndarray references*, so an
hourly partition with 80% duplication costs roughly 20% of the naive
memory, mirroring what makes this data deduplicable in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import DatasetSchema, SparseFeatureSpec
from .session import Sample, sample_session_sizes

__all__ = ["TraceConfig", "TraceGenerator", "generate_partition"]


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic trace; defaults match §3's characterization."""

    mean_samples_per_session: float = 16.5
    #: log-normal sigma controlling the Fig 3 tail
    session_size_sigma: float = 1.4
    #: the hourly-partition time window, seconds
    window_seconds: float = 3600.0
    #: a session's impressions are spread uniformly over a duration drawn
    #: from this range (fraction of the window), *independent of sample
    #: count* — a session is a fixed time window of impressions (§3 fn 1).
    #: Long durations relative to a batch's time span are what interleave
    #: sessions and give Fig 3's ~1.15 samples/session per batch.
    session_duration_frac: tuple[float, float] = (0.3, 1.0)
    #: click-through base rate for labels
    label_rate: float = 0.05
    seed: int = 0


class TraceGenerator:
    """Generates training-sample partitions for a :class:`DatasetSchema`."""

    def __init__(self, schema: DatasetSchema, config: TraceConfig | None = None):
        self.schema = schema
        self.config = config or TraceConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._next_sample_id = 0
        self._next_session_id = 0

    # -- feature evolution --------------------------------------------------

    def _initial_value(self, spec: SparseFeatureSpec) -> np.ndarray:
        length = spec.avg_length
        return self._rng.integers(
            0, spec.cardinality, size=length, dtype=np.int64
        )

    def _shift_value(
        self, spec: SparseFeatureSpec, current: np.ndarray
    ) -> np.ndarray:
        """Append a fresh ID, dropping the oldest (user history shift)."""
        new_id = self._rng.integers(0, spec.cardinality, dtype=np.int64)
        if current.size == 0:
            return np.array([new_id], dtype=np.int64)
        return np.concatenate([current[1:], [new_id]])

    def _session_samples(self, session_id: int, size: int, start_ts: float):
        rng = self._rng
        cfg = self.config
        lo, hi = cfg.session_duration_frac
        duration = rng.uniform(lo, hi) * cfg.window_seconds
        timestamps = start_ts + np.sort(rng.uniform(0, duration, size=size))

        # Per-feature mutable state; grouped features flip one shared coin.
        user_specs = self.schema.user_features()
        item_specs = self.schema.item_features()
        dense_names = [d.name for d in self.schema.dense]
        state = {f.name: self._initial_value(f) for f in user_specs}
        groups = self.schema.groups()
        group_probs = np.array(
            [self.schema.sparse_spec(m[0]).change_prob for m in groups.values()]
        )
        # each user feature with its group's index (None: a solo feature)
        group_of = {
            name: g for g, members in enumerate(groups.values()) for name in members
        }
        user_groups = [(f, group_of.get(f.name)) for f in user_specs]

        samples = []
        for i in range(size):
            if i > 0:
                # Decide group changes once, solo features independently.
                group_changed = (
                    rng.random(len(group_probs)) < group_probs
                ).tolist()
                for f, g in user_groups:
                    changed = (
                        group_changed[g]
                        if g is not None
                        else rng.random() < f.change_prob
                    )
                    if changed:
                        state[f.name] = self._shift_value(f, state[f.name])
            sparse = dict(state)  # shared references for unchanged values
            for f in item_specs:
                # Item features: a new value per impression with prob
                # change_prob (ranked items mostly differ, §3).
                if i == 0 or rng.random() < f.change_prob:
                    sparse[f.name] = self._initial_value(f)
                else:
                    sparse[f.name] = samples[-1].sparse[f.name]
            dense = dict(
                zip(dense_names, rng.normal(size=len(dense_names)).tolist())
            )
            samples.append(
                Sample(
                    sample_id=self._next_sample_id,
                    session_id=session_id,
                    timestamp=float(timestamps[i]),
                    label=int(rng.random() < cfg.label_rate),
                    sparse=sparse,
                    dense=dense,
                )
            )
            self._next_sample_id += 1
        return samples

    # -- partition generation -------------------------------------------------

    def generate_partition(self, num_sessions: int) -> list[Sample]:
        """One (hourly) partition: all sessions' samples, ordered by
        inference timestamp — the baseline, interleaved layout (§3)."""
        if num_sessions < 0:
            raise ValueError("num_sessions must be non-negative")
        cfg = self.config
        sizes = sample_session_sizes(
            num_sessions,
            mean=cfg.mean_samples_per_session,
            sigma=cfg.session_size_sigma,
            rng=self._rng,
        )
        starts = self._rng.uniform(0, cfg.window_seconds, size=num_sessions)
        all_samples: list[Sample] = []
        for size, start in zip(sizes, starts):
            sid = self._next_session_id
            self._next_session_id += 1
            all_samples.extend(self._session_samples(sid, int(size), float(start)))
        all_samples.sort(key=lambda s: s.timestamp)
        return all_samples


def generate_partition(
    schema: DatasetSchema,
    num_sessions: int,
    config: TraceConfig | None = None,
) -> list[Sample]:
    """Convenience wrapper: one partition from a fresh generator."""
    return TraceGenerator(schema, config).generate_partition(num_sessions)
