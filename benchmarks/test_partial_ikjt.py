"""E14 / §7: partial IKJTs capture shift-style duplication.

Paper: exact matching captures 81.6% of duplicated bytes; partial
matching (shifted lists) extends that to 89.4% — partial IKJTs encode
rows as [offset, length] windows over a shared buffer.
"""

from repro.experiments.figures import partial_vs_exact


def test_partial_ikjt(benchmark, emit):
    res = benchmark.pedantic(
        lambda: partial_vs_exact(num_sessions=150), rounds=1, iterations=1
    )
    lines = [
        f"exact dedupe factor    : {res.exact_factor:.2f}x",
        f"partial dedupe factor  : {res.partial_factor:.2f}x",
        f"values captured, exact   : {100 * res.exact_captured_fraction:.1f}%"
        "  (paper: 81.6% of bytes)",
        f"values captured, partial : {100 * res.partial_captured_fraction:.1f}%"
        "  (paper: 89.4% of bytes)",
    ]
    emit("Partial IKJTs (§7)", lines)

    assert res.partial_factor > res.exact_factor
    assert res.partial_captured_fraction > res.exact_captured_fraction
