"""Online feature characterization: estimate d(f) and l(f) from data.

The §7 workflow starts from per-feature statistics.  The schema "truth"
is unavailable in production — engineers estimate d(f) (probability a
value repeats across a session's adjacent samples) and l(f) (mean list
length) from logged samples.  This module does that estimation, feeding
:func:`~repro.core.analytics.select_features_to_dedup` beside the
measured S (:func:`repro.etl.samples_per_session`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .analytics import FeatureDedupStats

__all__ = ["measure_feature_stats"]


def measure_feature_stats(
    samples: Sequence,
    feature_names: Iterable[str],
) -> list[FeatureDedupStats]:
    """Estimate per-feature dedup statistics from logged samples.

    ``samples`` are objects with ``session_id``, ``timestamp`` and a
    ``sparse`` mapping (e.g. :class:`~repro.datagen.session.Sample`).
    d(f) is the fraction of *adjacent same-session* sample pairs whose
    value for ``f`` is identical; l(f) is the mean list length.
    Features with no adjacent pairs get d = 0 (no dedup evidence).
    """
    feature_names = list(feature_names)
    if not feature_names:
        raise ValueError("need at least one feature name")
    by_session: dict[int, list] = {}
    for s in samples:
        by_session.setdefault(s.session_id, []).append(s)
    for sess in by_session.values():
        sess.sort(key=lambda s: s.timestamp)

    stats: list[FeatureDedupStats] = []
    for name in feature_names:
        same = pairs = 0
        total_len = count = 0
        for sess in by_session.values():
            for s in sess:
                values = s.sparse.get(name)
                if values is not None:
                    total_len += len(values)
                    count += 1
            for a, b in zip(sess, sess[1:]):
                va = a.sparse.get(name)
                vb = b.sparse.get(name)
                if va is None or vb is None:
                    continue
                pairs += 1
                same += np.array_equal(va, vb)
        d = same / pairs if pairs else 0.0
        avg_len = total_len / count if count else 0.0
        stats.append(FeatureDedupStats(name, avg_len, d))
    return stats
