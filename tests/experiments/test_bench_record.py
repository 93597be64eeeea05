"""``bench_record.py --compare``: the ratio table of two BENCH files."""

import json
import subprocess
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


def test_trend_prints_one_median_per_record_in_pr_order(
    tmp_path, monkeypatch, capsys
):
    """``--trend`` reads every BENCH file at the root, sorts them by PR
    number (10 after 9, not after 1), marks the backfilled ones and
    shows a dash where a record holds no median."""
    monkeypatch.setattr(bench_record, "REPO_ROOT", tmp_path)
    for pr, rate in ((9, 125.0), (10, 150.0)):
        record = _bench("a" * 40, "f", **{"scan-kjt": (rate, 300.0)})
        (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps({**record, "pr": pr}))
    for pr, workloads in (
        (2, {"scan-kjt": {"metrics": {"samples_per_s": {"median": 80.0}}}}),
        (5, {"ingest": {"metrics": {}}}),
    ):
        (tmp_path / f"BENCH_{pr}.json").write_text(
            json.dumps({"pr": pr, "backfilled": True, "workloads": workloads})
        )

    def rows() -> list[str]:
        return [
            line for line in capsys.readouterr().out.splitlines()
            if line[:3].strip("| ").isdigit()
        ]

    assert bench_record.main(["--trend", "scan-kjt"]) == 0
    assert rows() == [
        "| 2 | 80 | — | backfilled |",
        "| 5 | — | — | backfilled |",
        "| 9 | 125 | 25 | measured |",
        "| 10 | 150 | 30 | measured |",
    ]
    assert bench_record.main(["--trend", "scan-kjt", "stored_bytes_per_sample"]) == 0
    assert [row.split(" | ")[1] for row in rows()] == ["—", "—", "300", "300"]
    for argv in (["nope"], ["scan-kjt", "bogus"], ["scan-kjt", "setup_s", "x"]):
        with pytest.raises(SystemExit) as exit_:
            bench_record.main(["--trend", *argv])
        assert exit_.value.code == 2


def test_pairs_alternate_parent_first_on_even_seeds_and_count_wins(
    tmp_path, monkeypatch, capsys
):
    """``--pairs`` runs the parent (A) and this tree (B) once per seed, A
    first on even seeds and B first on odd ones, counts B's wins, ties and
    losses per end-to-end metric, and writes nothing at the root."""
    parent = tmp_path / "parent"
    calls = []

    def fake_run(command, cwd):
        seed = int(command[command.index("--seed") + 1])
        side = "A" if Path(cwd) == parent else "B"
        calls.append((seed, side))
        # B is faster on every seed but 13; stored bytes never move
        rate = 100.0 if side == "A" else (90.0 if seed == 13 else 110.0 + seed)
        out = Path(command[command.index("--out") + 1])
        out.write_text(json.dumps({
            "attempted": 3, "failed": 0, "fingerprint": f"f{seed}",
            "metrics": {
                "samples_per_s": {"value": rate},
                "stored_bytes_per_sample": {"value": 300.0},
            },
        }))
        return subprocess.CompletedProcess(command, 0)

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    before = sorted(REPO_ROOT.iterdir())
    seeds = list(range(10, 20))
    assert bench_record.main([
        "--pairs", "session-baseline", "--tree", str(parent),
        "--seeds", *map(str, seeds),
    ]) == 0
    assert calls == [
        (seed, side) for seed in seeds
        for side in (("A", "B") if seed % 2 == 0 else ("B", "A"))
    ]
    assert sorted(REPO_ROOT.iterdir()) == before
    lines = capsys.readouterr().out.splitlines()
    assert "| 10 | A | ×1.200 | ×1.000 | equal |" in lines
    assert "| 13 | B | ×0.900 | ×1.000 | equal |" in lines
    summary = {line.split(" | ")[0]: line for line in lines if line.startswith("| s")}
    # nine wins, one loss; A's median 100, B's that of 90, 120 … 122, 124 … 129
    assert summary["| samples_per_s"].startswith("| samples_per_s | 9 | 0 | 1 | 100 ")
    assert summary["| samples_per_s"].endswith("| 124.5 | 121.25 | 126.75 | ×1.245 |")
    assert summary["| stored_bytes_per_sample"].startswith(
        "| stored_bytes_per_sample | 0 | 10 | 0 | 300 "
    )


def test_pairs_needs_a_parent_tree_and_a_declared_workload(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started on a usage error")

    monkeypatch.setattr(bench_record.subprocess, "run", no_run)
    for argv, message in (
        (["--pairs", "session-baseline"], "--pairs needs --tree PARENT"),
        (["--pairs", "nope", "--tree", "."], "--pairs WORKLOAD must be one of"),
        (["--pairs", "ingest", "--tree", ".", "--seeds", "3", "3"],
         "at least 2 distinct seeds"),
    ):
        with pytest.raises(SystemExit) as exit_:
            bench_record.main(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
