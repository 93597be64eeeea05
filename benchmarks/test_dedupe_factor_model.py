"""E13 / §4.2: the DedupeFactor analytical model vs measurement.

The paper's model: DedupeFactor(f) = 1 / (1 - (S-1)/S * d(f)).  Sweep S
and d, generate batches satisfying the model's assumptions, and check
the measured dedup ratio tracks the model (it guides which features ML
engineers dedup, §7).
"""

from repro.experiments.figures import dedupe_factor_model_sweep


def test_dedupe_factor_model(benchmark, emit):
    points = benchmark.pedantic(
        lambda: dedupe_factor_model_sweep(), rounds=1, iterations=1
    )
    lines = ["S     d      modeled   measured"]
    for p in points:
        lines.append(
            f"{p.samples_per_session:<5.0f} {p.d:<5.2f} "
            f"{p.modeled:8.2f}  {p.measured:8.2f}"
        )
    emit("DedupeFactor model validation (§4.2)", lines)

    for p in points:
        assert abs(p.measured - p.modeled) / p.modeled < 0.25, (
            p.samples_per_session,
            p.d,
        )
    # the paper's dedup band: S=16.5, d~0.9 -> factor ~4-15
    high = [p for p in points if p.samples_per_session == 16 and p.d >= 0.8]
    assert all(4.0 < p.measured < 16.0 for p in high)
