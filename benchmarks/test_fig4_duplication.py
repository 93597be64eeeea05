"""E2 / Figure 4: exact & partial duplicate fractions across 733 features.

Paper: mean exact 80.0%, mean partial 83.9%; byte-weighted 81.6% exact /
89.4% partial; user features dominate the high-duplication plateau.
"""

import numpy as np

from repro.datagen import FeatureKind
from repro.experiments.figures import fig4_duplication


def test_fig4_duplication(benchmark, emit):
    rep = benchmark.pedantic(
        lambda: fig4_duplication(num_features=733, num_sessions=20_000),
        rounds=1,
        iterations=1,
    )
    user = [f for f in rep.features if f.kind is FeatureKind.USER]
    item = [f for f in rep.features if f.kind is FeatureKind.ITEM]
    lines = [
        f"mean exact duplicate fraction   : {rep.mean_exact:.3f}  (paper: 0.800)",
        f"mean partial duplicate fraction : {rep.mean_partial:.3f}  (paper: 0.839)",
        f"byte-weighted exact             : {rep.byte_weighted_exact:.3f}  (paper: 0.816)",
        f"byte-weighted partial           : {rep.byte_weighted_partial:.3f}  (paper: 0.894)",
        f"user-feature mean exact         : {np.mean([f.exact_fraction for f in user]):.3f}",
        f"item-feature mean exact         : {np.mean([f.exact_fraction for f in item]):.3f}",
    ]
    emit("Figure 4 — feature duplication", lines)

    assert 0.72 < rep.mean_exact < 0.88
    assert rep.mean_partial > rep.mean_exact
    assert rep.byte_weighted_partial > rep.byte_weighted_exact
    assert np.mean([f.exact_fraction for f in user]) > np.mean(
        [f.exact_fraction for f in item]
    )
