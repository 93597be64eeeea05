"""E3 / Figure 7: end-to-end trainer / reader / storage gains per RM.

Paper (RecD vs baseline): trainer 2.48x / 1.25x / 1.43x; reader 1.79x /
1.38x / 1.36x; storage compression 3.71x / 3.71x / 2.06x for RM1/2/3.
The simulation models all communication as exposed (no overlap), so
trainer multipliers run somewhat above the paper's; ordering and
direction must match.
"""

import pytest

from repro.experiments.figures import fig7_end_to_end


@pytest.fixture(scope="module")
def rows():
    return fig7_end_to_end(scale=1.0, num_sessions=220, train_batches=2)


def test_fig7_end_to_end(benchmark, emit, rows):
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    paper = {
        "RM1": (2.48, 1.79, 3.71),
        "RM2": (1.25, 1.38, 3.71),
        "RM3": (1.43, 1.36, 2.06),
    }
    lines = ["RM    trainer   reader   storage   (paper trainer/reader/storage)"]
    for r in rows:
        p = paper[r.rm]
        lines.append(
            f"{r.rm}   {r.trainer_x:6.2f}x  {r.reader_x:6.2f}x  "
            f"{r.storage_x:6.2f}x   ({p[0]:.2f}x / {p[1]:.2f}x / {p[2]:.2f}x)"
        )
    emit("Figure 7 — end-to-end gains", lines)

    for r in rows:
        # direction: RecD wins on all three axes for every RM
        assert r.trainer_x > 1.2, r.rm
        assert r.reader_x > 1.1, r.rm
        assert r.storage_x > 1.3, r.rm
    by_rm = {r.rm: r for r in rows}
    # RM1's heavy sequence usage gives it the largest trainer gain (paper)
    assert by_rm["RM1"].trainer_x >= by_rm["RM2"].trainer_x
    # RM3's lower samples/session gives it the smallest storage gain
    assert by_rm["RM3"].storage_x <= by_rm["RM1"].storage_x
    assert by_rm["RM3"].storage_x <= by_rm["RM2"].storage_x
