"""``bench_record.py --compare``: the ratio table of two BENCH files."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_record  # noqa: E402


def _bench(sha: str, fingerprint: str, **medians) -> dict:
    """A BENCH file with one seed per workload, ``workload=(samples/s,
    stored bytes/sample)`` medians."""
    def metric(value: float) -> dict:
        return {"median": value, "q1": value * 0.9, "q3": value * 1.1,
                "iqr": value * 0.2, "values": [value]}

    return {
        "pr": 0,
        "git_sha": sha,
        "seeds": [1],
        "machine_slowdown": 1.25,
        "workloads": {
            name: {
                "metrics": {
                    "samples_per_s": metric(rate),
                    "stored_bytes_per_sample": metric(stored),
                },
                "fingerprints": {"1": fingerprint},
            }
            for name, (rate, stored) in medians.items()
        },
    }


def test_compare_prints_b_over_a_per_workload_and_runs_nothing(
    tmp_path, monkeypatch, capsys
):
    def no_run(*args, **kwargs):
        raise AssertionError("--compare ran a process")

    monkeypatch.setattr(bench_record.subprocess, "run", no_run)
    a = tmp_path / "BENCH_1.json"
    b = tmp_path / "BENCH_2.json"
    a.write_text(json.dumps(
        _bench("a" * 40, "f1", **{"scan-kjt": (100.0, 300.0), "ingest": (50.0, 200.0)})
    ))
    b.write_text(json.dumps(_bench("b" * 40, "f2", **{"scan-kjt": (125.0, 300.0)})))

    assert bench_record.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("A = BENCH_1.json (sha aaaaaaaaaa, seeds [1]")
    assert lines[1].startswith("B = BENCH_2.json (sha bbbbbbbbbb")
    rows = [line for line in lines if line.startswith("| scan-kjt")]
    # one row per end-to-end metric both files hold, in BENCHMARK.json's
    # order; a workload B lacks has none
    assert rows == [
        "| scan-kjt | samples_per_s | 100 | 20 | 125 | ×1.250 better | DIFFER |",
        "| scan-kjt | stored_bytes_per_sample | 300 | 60 | 300 | ×1.000 = | DIFFER |",
    ]
    assert not any(line.startswith("| ingest") for line in lines)
    # a file against itself: every ratio 1, every shared seed's
    # fingerprint equal
    assert bench_record.main(["--compare", str(a), str(a)]) == 0
    rows = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("| ")
    ][1:]
    assert len(rows) == 4
    assert all(row.endswith("| ×1.000 = | equal |") for row in rows)


def test_recording_over_an_existing_record_exits_2_and_names_it(
    tmp_path, monkeypatch, capsys
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started over an existing record")

    monkeypatch.setattr(bench_record.subprocess, "run", no_run)
    monkeypatch.setattr(bench_record, "REPO_ROOT", tmp_path)
    record = tmp_path / "BENCH_39.json"
    record.write_text('{"pr": 39}')
    with pytest.raises(SystemExit) as exit_:
        bench_record.main(["--pr", "39", "--tree", str(tmp_path)])
    assert exit_.value.code == 2
    assert f"{record} exists" in capsys.readouterr().err
    assert record.read_text() == '{"pr": 39}'


def test_compare_reads_a_backfilled_file(tmp_path, capsys):
    """A backfilled record may lack the slowdown, the fingerprints, the
    quartiles and whole metrics; ``--compare`` prints what both hold."""
    backfilled = {
        "pr": 22,
        "backfilled": True,
        "seeds": [101, 102],
        "workloads": {
            "scan-kjt": {"metrics": {"samples_per_s": {"median": 80.0}}},
            "ingest": {"metrics": {}},
        },
    }
    a = tmp_path / "BENCH_22.json"
    b = tmp_path / "BENCH_2.json"
    a.write_text(json.dumps(backfilled))
    b.write_text(json.dumps(_bench("b" * 40, "f2", **{"scan-kjt": (100.0, 300.0)})))

    assert bench_record.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "A = BENCH_22.json (sha —, seeds [101, 102], slowdown —, backfilled)"
    )
    rows = [line for line in lines if line.startswith("| scan-kjt")]
    assert rows == ["| scan-kjt | samples_per_s | 80 | — | 100 | ×1.250 better | — |"]
    assert bench_record.main(["--compare", str(b), str(a)]) == 0
    rows = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("| scan-kjt")
    ]
    assert rows == ["| scan-kjt | samples_per_s | 100 | 20 | 80 | ×0.800 worse | — |"]
