"""E1 / Figure 3: samples-per-session histogram, partition vs batch.

Paper: hourly partition averages 16.5 samples/session with a tail beyond
1000; within a 4096-sample batch, interleaving leaves only 1.15
samples/session on average.
"""

from repro.experiments.figures import fig3_session_histogram


def test_fig3_session_histogram(benchmark, emit):
    res = benchmark.pedantic(
        lambda: fig3_session_histogram(num_sessions=100_000, seed=0),
        rounds=1,
        iterations=1,
    )
    stats = res.partition_stats
    lines = [
        f"partition mean samples/session : {stats['mean']:.2f}  (paper: 16.5)",
        f"partition p50 / p99 / max      : {stats['p50']:.0f} / "
        f"{stats['p99']:.0f} / {stats['max']:.0f}",
        f"sessions with >1000 samples    : {stats['tail_1000']:.0f}  (paper: 'significant tail')",
        f"batch(4096) mean, interleaved  : {res.batch_mean_interleaved:.2f}  (paper: 1.15)",
        f"batch(4096) mean, clustered    : {res.batch_mean_clustered:.2f}  (paper: ~16.5)",
    ]
    emit("Figure 3 — samples per session", lines)

    assert 14.0 < stats["mean"] < 19.0
    assert stats["tail_1000"] >= 1
    assert res.batch_mean_interleaved < 2.0
    assert res.batch_mean_clustered > 10.0
