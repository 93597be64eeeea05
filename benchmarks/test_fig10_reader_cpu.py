"""E8 / Figure 10: reader CPU time breakdown (Fill / Convert / Process).

Paper: fill CPU time falls 50/33/46% for RM1/2/3 (clustered tables);
convert rises 21/37/11% (hashing for dedup) but is a small share;
process falls 13/11% for RM1/2 (RM3 ~flat).  Net: readers speed up
1.79/1.38/1.36x.
"""

import pytest

from repro.experiments.figures import fig10_reader_cpu


@pytest.fixture(scope="module")
def rows():
    return fig10_reader_cpu(scale=1.0, num_sessions=200)


def test_fig10_reader_cpu(benchmark, emit, rows):
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    lines = [
        "RM    fraction of baseline reader CPU (baseline -> RecD)"
    ]
    for r in rows:
        bt = r.baseline.total
        n = r.recd_normalized
        lines.append(
            f"{r.rm}  fill {r.baseline.fill / bt:.2f}->{n['fill']:.2f}  "
            f"convert {r.baseline.convert / bt:.2f}->{n['convert']:.2f}  "
            f"process {r.baseline.process / bt:.2f}->{n['process']:.2f}  "
            f"total 1.00->{n['total']:.2f}"
        )
    emit("Figure 10 — reader CPU breakdown", lines)

    for r in rows:
        bt = r.baseline.total
        # fills dominate baseline reader CPU (paper's observation)
        assert r.baseline.fill / bt > 0.4, r.rm
        # RecD cuts fill CPU by 30%+ (paper: 33-50%)
        assert r.recd.fill < 0.7 * r.baseline.fill, r.rm
        # convert rises (hashing overhead)...
        assert r.recd.convert > r.baseline.convert, r.rm
        # ...but conversion stays a small share of total reader CPU
        assert r.recd.convert / bt < 0.25, r.rm
        # process gets cheaper with dedup inputs
        assert r.recd.process <= r.baseline.process, r.rm
        # net reader CPU falls
        assert r.recd_normalized["total"] < 0.85, r.rm
