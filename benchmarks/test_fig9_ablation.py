"""E5 / Figure 9: RM1 optimization ablation.

Paper stages (normalized trainer throughput): Baseline 1.0; +Clustered
Table 1.0 (no trainer benefit alone); +Dedup EMB & JaggedIndexSelect @
B4096 1.34; +Dedup Compute 2.42; +B6144 2.48.
"""

import pytest

from repro.experiments.figures import fig9_ablation


@pytest.fixture(scope="module")
def stages():
    return fig9_ablation(scale=1.0, num_sessions=220)


def test_fig9_ablation(benchmark, emit, stages):
    benchmark.pedantic(lambda: stages, rounds=1, iterations=1)
    paper = [1.0, 1.0, 1.34, 2.42, 2.48]
    lines = ["stage                     measured   paper"]
    for s, p in zip(stages, paper):
        lines.append(f"{s.label:24s}  {s.normalized:6.2f}x   {p:.2f}x")
    emit("Figure 9 — RM1 ablation", lines)

    norm = [s.normalized for s in stages]
    assert norm[0] == pytest.approx(1.0)
    # clustering alone is necessary but not sufficient (paper's point)
    assert norm[1] == pytest.approx(1.0, abs=0.35)
    # every RecD stage strictly improves
    assert norm[2] > max(norm[0], norm[1])
    assert norm[3] > norm[2]
    assert norm[4] >= norm[3] * 0.95
    # the full stack is a multi-x win
    assert norm[4] > 1.8
