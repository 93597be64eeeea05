"""E4 / Figure 8: trainer iteration latency breakdown at equal batch size.

Paper: RecD halves exposed A2A across all RMs; RM1 additionally cuts
GEMM time (transformer dedup, ~12% of iteration); EMB lookups improve
1-2%; overall iteration time falls 44% (RM1) and 23% (RM2).
"""

import pytest

from repro.experiments.figures import fig8_iteration_breakdown


@pytest.fixture(scope="module")
def rows():
    return fig8_iteration_breakdown(scale=1.0, num_sessions=220)


def test_fig8_iteration_breakdown(benchmark, emit, rows):
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    lines = [
        "RM    phase fractions of baseline iteration (baseline -> RecD)"
    ]
    for r in rows:
        b, n = r.baseline, r.recd_normalized
        bt = b.total
        lines.append(
            f"{r.rm}  emb {b.emb_lookup / bt:.2f}->{n['emb_lookup']:.2f}  "
            f"gemm {b.gemm / bt:.2f}->{n['gemm']:.2f}  "
            f"a2a {b.a2a / bt:.2f}->{n['a2a']:.2f}  "
            f"other {b.other / bt:.2f}->{n['other']:.2f}  "
            f"total 1.00->{n['total']:.2f}"
        )
    emit("Figure 8 — iteration breakdown", lines)

    for r in rows:
        bt = r.baseline.total
        # baseline shape: A2A is a significant exposed component
        assert r.baseline.a2a / bt > 0.25, r.rm
        # RecD at least halves exposed A2A (paper: halves across all RMs)
        assert r.recd.a2a <= 0.55 * r.baseline.a2a, r.rm
        # iteration time shrinks at the same batch size
        assert r.recd_normalized["total"] < 0.8, r.rm
    by_rm = {r.rm: r for r in rows}
    # RM1's GEMM benefits most (transformer dedup)
    rm1 = by_rm["RM1"]
    assert rm1.recd.gemm < rm1.baseline.gemm
