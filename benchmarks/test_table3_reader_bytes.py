"""E7 / Table 3: reader ingest & egress bytes for a fixed sample count.

Paper (GB): Baseline 538 read / 837 send; with Cluster 179 / 837; with
IKJT 179 / 713.  Clustering cuts what readers *read*; IKJTs cut what
they *send*.
"""

import pytest

from repro.experiments.figures import table3_reader_bytes


@pytest.fixture(scope="module")
def rows():
    return table3_reader_bytes(scale=1.0, num_sessions=220)


def test_table3_reader_bytes(benchmark, emit, rows):
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    paper = {
        "Baseline": (538, 837),
        "with Cluster": (179, 837),
        "with IKJT": (179, 713),
    }
    base = rows[0]
    lines = ["config         read(MB)  send(MB)  read_x  send_x  (paper GB)"]
    for r in rows:
        p = paper[r.config]
        lines.append(
            f"{r.config:14s} {r.bytes.read / 2**20:8.2f}  "
            f"{r.bytes.decoded / 2**20:8.2f}  "
            f"{r.bytes.read / base.bytes.read:5.2f}  "
            f"{r.bytes.decoded / base.bytes.decoded:5.2f}  "
            f"({p[0]} / {p[1]})"
        )
    emit("Table 3 — reader bytes", lines)

    by = {r.config: r for r in rows}
    b, c, i = by["Baseline"], by["with Cluster"], by["with IKJT"]
    # clustering: read bytes drop sharply (paper: 538 -> 179, a 3x cut)
    assert c.bytes.read < 0.6 * b.bytes.read
    assert c.bytes.decoded == pytest.approx(b.bytes.decoded, rel=0.02)
    # IKJT: send bytes drop, read unchanged (paper: 837 -> 713)
    assert i.bytes.read == pytest.approx(c.bytes.read, rel=0.02)
    assert i.bytes.decoded < 0.9 * c.bytes.decoded
