"""Downsampling policies (§7, Boosting Dedupe Factors).

Data generation keeps datasets manageable by discarding samples.  The
baseline drops *per sample*, which leaves S (samples/session) unchanged.
RecD proposes dropping *per session* instead: the same retained volume
concentrates into fewer, complete sessions, raising S and with it every
DedupeFactor — without affecting model accuracy.

Each policy is a keep-mask over a block's rows (:func:`keep_samples`,
:func:`keep_sessions`); :func:`samples_per_session` is the S they differ
on, over the same ``session_id`` column.
"""

from __future__ import annotations

import numpy as np

__all__ = ["keep_samples", "keep_sessions", "samples_per_session"]


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


def samples_per_session(session_id: np.ndarray) -> float:
    """Mean S over rows with these session ids: rows per distinct
    session (0.0 for no rows)."""
    if session_id.size == 0:
        return 0.0
    return session_id.size / np.unique(session_id).size
