"""Smoke tests of the stopwatch benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/stopwatch/tests``
(about a minute; ``PYTHONPATH`` only because ``benchmarks/conftest.py``
imports ``repro``).  Not part of tier-1.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as stopwatch  # noqa: E402

DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECL["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: units whose metrics are counts of work, not readings of a clock
COUNTED = {"count", "bytes", "flop"}


def smoke_run(tmp_path, label: str, trace: int) -> dict:
    """One ``--smoke`` run of every workload; the per-workload results."""
    out = tmp_path / f"{label}.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--smoke",
            "--trace",
            str(trace),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())["workloads"]


def check_against_declaration(results: dict, declared: list[dict]) -> None:
    names = [m["name"] for m in declared]
    assert list(results) == WORKLOADS
    for workload, res in results.items():
        assert res["correct"] and res["failed"] == 0, (workload, res)
        assert res["attempted"] >= 1
        # every declared name present, no undeclared metric
        assert list(res["metrics"]) == names, workload
        for name, entry in res["metrics"].items():
            assert NAME.fullmatch(name)
            assert isinstance(entry["value"], (int, float))
    units = {m["name"]: m["unit"] for m in declared}
    for res in results.values():
        for name, entry in res["metrics"].items():
            assert entry["unit"] == units[name]


def test_timing_output_matches_declaration_and_counts_repeat(tmp_path):
    first = smoke_run(tmp_path, "a", trace=0)
    second = smoke_run(tmp_path, "b", trace=0)
    check_against_declaration(first, DECL["end_to_end"])
    for workload in WORKLOADS:
        a, b = first[workload], second[workload]
        for exact in ("fingerprint", "attempted", "samples_per_pass"):
            assert a[exact] == b[exact], (workload, exact)
        stored = "stored_bytes_per_sample"
        assert a["metrics"][stored] == b["metrics"][stored], workload
        for timed in ("setup_s", "samples_per_s", "samples_per_cpu_s"):
            assert a["metrics"][timed]["value"] > 0
    # the process fleet must deliver scan-kjt's batches bit for bit
    assert first["scan-process"]["fingerprint"] == first["scan-kjt"]["fingerprint"]


def test_trace_output_reports_every_layer_metric_and_counts_repeat(tmp_path):
    first = smoke_run(tmp_path, "a", trace=1)
    second = smoke_run(tmp_path, "b", trace=1)
    check_against_declaration(first, DECL["per_layer"])
    for workload in WORKLOADS:
        for name, entry in first[workload]["metrics"].items():
            if entry["unit"] in COUNTED:
                assert entry == second[workload]["metrics"][name], (
                    workload,
                    name,
                )
        assert (HERE / "out" / f"trace-{workload}.json").is_file()
    # each workload enters its own layers ...
    layers = {
        "ingest": ("scribe.log_s", "etl.run_s", "storage.land_s"),
        "scan-kjt": ("reader.fill_s", "storage.read_stripe_s"),
        "scan-ikjt": ("reader.values_hashed", "core.ikjt_from_kjt_s"),
        "scan-process": ("reader.pickle_s", "reader.worker_spawns"),
        "train-ikjt": ("trainer.forward_s", "distributed.run_iteration_s"),
        "session-baseline": ("pipeline.session_run_s", "trainer.steps"),
        "session-recd": ("pipeline.recd_speedup_measured",),
    }
    for workload, names in layers.items():
        for name in names:
            assert first[workload]["metrics"][name]["value"] > 0, (workload, name)
    # ... and reports 0 for the ones it never enters
    assert first["ingest"]["metrics"]["trainer.forward_s"]["value"] == 0
    assert first["scan-kjt"]["metrics"]["reader.values_hashed"]["value"] == 0
    assert first["scan-process"]["metrics"]["reader.executor_fallbacks"]["value"] == 0


def test_single_workload_ends_with_the_contract_line(capsys):
    code = stopwatch.main(["--workload", "train-ikjt", "--smoke", "--seed", "5"])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in DECL["end_to_end"]}


def test_corrupted_reference_fails_the_command(monkeypatch, capsys):
    workloads, _ = stopwatch.load_workloads()
    honest = workloads.TrainIkjt.reference_losses

    def corrupted(self):
        losses = honest(self)
        return [losses[0] + 1e-12] + losses[1:]

    monkeypatch.setattr(workloads.TrainIkjt, "reference_losses", corrupted)
    code = stopwatch.main(["--workload", "train-ikjt", "--smoke"])
    assert code != 0
    out = capsys.readouterr().out
    assert "FAILED losses == dedup=False reference" in out
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_silent_fallback_is_not_reported_under_the_process_name(monkeypatch, capsys):
    workloads, _ = stopwatch.load_workloads()

    def no_processes(self, schema, sources):
        raise OSError("this sandbox has no semaphores")
        yield

    # ReaderFleet answers an OSError by quietly scanning in-process
    monkeypatch.setattr(workloads.ReaderFleet, "_iter_multiprocess", no_processes)
    code = stopwatch.main(["--workload", "scan-process", "--smoke", "--trace", "1"])
    assert code != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] >= last["attempted"] // 2
    assert last["metrics"]["reader.executor_fallbacks"]["value"] == 1


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "stopwatch",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/stopwatch/run.py", "--workload", "ingest"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
