"""Session and sample models for the synthetic trace generator.

A *session* is a set of user impressions within a fixed time window
(§3, footnote 1); each impression yields one training sample.  The number
of samples per session follows a heavy-tailed distribution — the paper's
hourly partition averages S = 16.5 samples/session with a tail beyond
1000 (Fig 3, left) — which we model as a discrete log-normal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Sample", "sample_session_sizes", "session_size_stats"]


@dataclass
class Sample:
    """One training sample = one impression outcome (§2.1).

    ``sparse`` maps feature name -> list of int64 IDs; ``dense`` maps
    feature name -> float.  ``timestamp`` is the inference time used by
    the (baseline) data generation pipeline to order rows.
    """

    sample_id: int
    session_id: int
    timestamp: float
    label: int
    sparse: dict[str, np.ndarray] = field(default_factory=dict)
    dense: dict[str, float] = field(default_factory=dict)


def sample_session_sizes(
    num_sessions: int,
    mean: float = 16.5,
    sigma: float = 1.4,
    rng: np.random.Generator | None = None,
    max_size: int = 5000,
) -> np.ndarray:
    """Draw per-session sample counts from a discretized log-normal.

    ``sigma`` controls tail heaviness; the default gives a >1000-sample
    tail at realistic partition scales while the *mean* is held at
    ``mean`` by solving for mu (log-normal mean = exp(mu + sigma^2/2)).
    Sizes are clipped to [1, max_size].
    """
    if num_sessions < 0:
        raise ValueError("num_sessions must be non-negative")
    if mean < 1:
        raise ValueError("mean must be >= 1")
    rng = rng or np.random.default_rng()
    mu = np.log(mean) - sigma**2 / 2.0
    raw = rng.lognormal(mean=mu, sigma=sigma, size=num_sessions)
    return np.clip(np.rint(raw), 1, max_size).astype(np.int64)


def session_size_stats(sizes: np.ndarray) -> dict[str, float]:
    """Summary stats used by the Fig 3 characterization bench."""
    sizes = np.asarray(sizes)
    if sizes.size == 0:
        return {"mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0, "tail_1000": 0.0}
    return {
        "mean": float(sizes.mean()),
        "p50": float(np.percentile(sizes, 50)),
        "p99": float(np.percentile(sizes, 99)),
        "max": float(sizes.max()),
        "tail_1000": float((sizes > 1000).sum()),
    }
