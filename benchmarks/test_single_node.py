"""E11 / §6.2: single-node training speedup.

Paper: a downsized RM1 on one ZionEX node (8 GPUs, NVLink) still gains
2.18x from RecD — less exposed communication, but compute and memory
savings remain.
"""

from repro.experiments.figures import single_node_speedup


def test_single_node_speedup(benchmark, emit):
    res = benchmark.pedantic(
        lambda: single_node_speedup(scale=0.5, num_sessions=250),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"baseline QPS : {res['baseline']:.0f}",
        f"RecD QPS     : {res['recd']:.0f}",
        f"speedup      : {res['speedup']:.2f}x  (paper: 2.18x)",
    ]
    emit("Single-node training (§6.2)", lines)
    assert res["speedup"] > 1.4
