"""E10 / §6.1: Scribe compression under session-ID sharding (O1).

Paper: compression ratio at Scribe rose from 1.50x to 2.25x (a 1.5x
relative gain) when sharding logs by session ID.
"""

from repro.experiments.figures import scribe_sharding_compression


def test_scribe_sharding_compression(benchmark, emit):
    res = benchmark.pedantic(
        lambda: scribe_sharding_compression(scale=1.0, num_sessions=250),
        rounds=1,
        iterations=1,
    )
    gain = res["session"] / res["random"]
    lines = [
        f"random sharding compression  : {res['random']:.2f}x  (paper: 1.50x)",
        f"session sharding compression : {res['session']:.2f}x  (paper: 2.25x)",
        f"relative gain                : {gain:.2f}x  (paper: 1.50x)",
    ]
    emit("Scribe sharding (O1)", lines)

    assert res["session"] > res["random"]
    assert gain > 1.2
