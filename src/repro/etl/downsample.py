"""Downsampling policies (§7, Boosting Dedupe Factors).

Data generation keeps datasets manageable by discarding samples.  The
baseline drops *per sample*, which leaves S (samples/session) unchanged.
RecD proposes dropping *per session* instead: the same retained volume
concentrates into fewer, complete sessions, raising S and with it every
DedupeFactor — without affecting model accuracy.

Each policy is a keep-mask over rows (:func:`keep_samples`,
:func:`keep_sessions`); the row-list helpers apply the same masks.
"""

from __future__ import annotations

import numpy as np

from ..datagen.session import Sample

__all__ = [
    "downsample_per_sample",
    "downsample_per_session",
    "keep_samples",
    "keep_sessions",
    "samples_per_session",
]


def _rng(keep_rate: float, seed: int) -> np.random.Generator:
    if not 0.0 <= keep_rate <= 1.0:
        raise ValueError("keep_rate must be in [0, 1]")
    return np.random.default_rng(seed)


def keep_samples(num_rows: int, keep_rate: float, seed: int = 0) -> np.ndarray:
    """Baseline: keep each row independently with ``keep_rate``."""
    return _rng(keep_rate, seed).random(num_rows) < keep_rate


def keep_sessions(
    session_id: np.ndarray, keep_rate: float, seed: int = 0
) -> np.ndarray:
    """RecD: keep or drop whole sessions with ``keep_rate``.

    Retains roughly the same expected row volume as the per-sample
    policy but preserves S within kept sessions.
    """
    sessions, inverse = np.unique(session_id, return_inverse=True)
    return (_rng(keep_rate, seed).random(sessions.size) < keep_rate)[inverse]


def downsample_per_sample(
    samples: list[Sample], keep_rate: float, seed: int = 0
) -> list[Sample]:
    """:func:`keep_samples` applied to a list of rows."""
    keep = keep_samples(len(samples), keep_rate, seed)
    return [s for s, k in zip(samples, keep) if k]


def downsample_per_session(
    samples: list[Sample], keep_rate: float, seed: int = 0
) -> list[Sample]:
    """:func:`keep_sessions` applied to a list of rows."""
    keep = keep_sessions(
        np.array([s.session_id for s in samples], dtype=np.int64),
        keep_rate,
        seed,
    )
    return [s for s, k in zip(samples, keep) if k]


def samples_per_session(samples: list[Sample]) -> float:
    """Mean S over a partition (the §7 metric the policies differ on)."""
    if not samples:
        return 0.0
    counts: dict[int, int] = {}
    for s in samples:
        counts[s.session_id] = counts.get(s.session_id, 0) + 1
    return len(samples) / len(counts)
