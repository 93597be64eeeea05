"""Stopwatch benchmark: measured samples/s end to end, wall per layer.

One workload (the form the benchmark driver calls)::

    python3 benchmarks/stopwatch/run.py --workload scan-kjt --seed 3 \
        --seconds 8 --trace 0

prints every metric by name with its unit, verifies the outputs, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload declared in
``BENCHMARK.json`` runs, each in a fresh interpreter, and the combined
result is written as JSON.  ``--selfcheck`` runs two such sets and fails
unless they agree within the declared bounds.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: the stopwatch for ``setup_s`` starts before NumPy and ``repro`` load
_STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: self-time metrics: the named span's duration minus its child spans
SELF_METRICS = {
    "etl.self_s": "etl.run",
    "reader.fill_self_s": "reader.fill",
    "distributed.cost_model_s": "distributed.run_iteration",
}
#: a fresh interpreter sets up this many extra times for ``setup_s``
SETUP_PROBES = 2


def declaration() -> dict:
    """The benchmark's declared workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workloads():
    """Import the workloads (and with them NumPy and ``repro``).

    Returns:
        ``(module, import seconds)``.
    """
    # one thread per process, fixed before NumPy loads its BLAS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # the benchmark's own modules, and the package it measures
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    started = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - started


def cpu_seconds() -> float:
    """CPU this process and its reaped children have used (fleet worker
    processes are joined inside the pass, so they count)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class TimedPass:
    """One pass with its stopwatch readings, raw and calibrated."""

    result: object
    tracer: object
    raw_wall: float
    raw_cpu: float
    #: machine slowdown around the pass (see speed.py); 1.0 until known
    slowdown: float = 1.0

    @property
    def wall(self) -> float:
        """Pass wall in calibrated seconds."""
        return self.raw_wall / self.slowdown

    @property
    def cpu(self) -> float:
        """Pass CPU in calibrated seconds."""
        return self.raw_cpu / self.slowdown


def timed_pass(workload, tracer) -> TimedPass:
    """Run one pass under the stopwatch (collector run first, left on)."""
    gc.collect()
    cpu = cpu_seconds()
    started = time.perf_counter()
    with tracer.span("pass"):
        result = workload.run_pass(tracer)
    wall = time.perf_counter() - started
    return TimedPass(result, tracer, wall, cpu_seconds() - cpu)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles of the timed passes, with their count."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4)
        if len(values) > 1
        else (values[0],) * 3
    )
    return {"q1": q1, "median": median, "q3": q3, "count": len(values)}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def layer_metrics(tracer) -> dict:
    """One traced phase's spans and counts as ``layer.metric`` values:
    ``<span>_s`` is the span name's inclusive (raw) seconds."""
    inclusive, self_time = tracer.totals()
    out = {f"{name}_s": sec for name, sec in inclusive.items() if "." in name}
    for metric, span in SELF_METRICS.items():
        if span in self_time:
            out[metric] = self_time[span]
    stripes = len(tracer.durations("storage.read_stripe"))
    if stripes:
        out["storage.stripes_read"] = stripes
    out.update(tracer.counts)
    return out


def merge_disjoint(into: dict, new: dict) -> None:
    """Phases never report the same metric; a clash is a harness bug."""
    clash = set(into) & set(new)
    if clash:
        raise RuntimeError(f"metric reported by two phases: {sorted(clash)}")
    into.update(new)


def trace_metrics(workload, setup_tracer, plain, traced, import_s) -> dict:
    """Per-layer metrics: set-up spans, the median over the traced
    passes, the replay, and the pipeline-level readings."""
    from spans import Tracer

    metrics = layer_metrics(setup_tracer)
    per_pass = [layer_metrics(run.tracer) for run in traced]
    merge_disjoint(
        metrics,
        {
            name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]
        },
    )
    replay_tracer = Tracer()
    with replay_tracer.span("replay"):
        workload.replay(replay_tracer)
    merge_disjoint(metrics, layer_metrics(replay_tracer))
    for phase in ("fill", "convert", "process"):
        modeled = metrics.pop(f"_model.{phase}", None)
        if modeled is not None:
            metrics[f"reader.{phase}_model_ratio"] = (
                modeled / metrics[f"reader.{phase}_s"]
            )
    latencies = [s for run in traced for s in run.result.latencies]
    print(f"  batch latency samples: {len(latencies)}")
    metrics.update(
        {
            "pipeline.import_s": import_s,
            "pipeline.batch_p50_ms": 1e3 * percentile(latencies, 0.50),
            "pipeline.batch_p95_ms": 1e3 * percentile(latencies, 0.95),
            "pipeline.peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
            / 1024,
            "pipeline.trace_overhead_ratio": statistics.median(
                run.wall for run in traced
            )
            / statistics.median(run.wall for run in plain),
            "pipeline.machine_slowdown": statistics.median(
                run.slowdown for run in plain + traced
            ),
        }
    )
    origin = setup_tracer.spans[0][1]
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}.json").write_text(
        json.dumps(
            {
                "traceEvents": setup_tracer.chrome_events(0, origin)
                + traced[-1].tracer.chrome_events(1, origin)
                + replay_tracer.chrome_events(2, origin)
            }
        )
    )
    # the last traced pass's self-time table: what a layer gain can save
    last = traced[-1]
    _, self_time = last.tracer.totals()
    print(f"  self time of the traced pass ({last.raw_wall:.3f} s wall):")
    for name, sec in sorted(self_time.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<32} {sec:9.4f} s  {sec / last.raw_wall:6.1%}")
    total = sum(self_time.values())
    print(f"    {'sum':<32} {total:9.4f} s  {total / last.raw_wall:6.1%}")
    return {k: v for k, v in metrics.items() if not k.startswith("_")}


def probe_setups(args) -> list[float]:
    """Set the workload up again in fresh interpreters; their
    calibrated set-up seconds."""
    setups = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--setup-only",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        setups.append(float(probe.stdout.split()[-1]))
    return setups


def run_workload(args, started: float) -> dict:
    """Set up, time, verify and report one workload in this process."""
    from speed import kernel_seconds, slowdown

    kernel = kernel_seconds()
    started += kernel  # the first reading is not part of the set-up
    decl = declaration()
    workloads, import_s = load_workloads()
    from spans import Tracer

    off = Tracer(enabled=False)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    setup_tracer = Tracer(enabled=bool(args.trace))
    with setup_tracer.span("setup"):
        workload.setup(setup_tracer)
        warm = timed_pass(workload, off)
    raw_setup = time.perf_counter() - started
    before, kernel = kernel, kernel_seconds()
    setups = [raw_setup / slowdown(before, kernel)]
    workload.expect(warm.result)
    if args.setup_only:
        print(repr(setups[0]))
        return {"correct": True}

    seconds = 0 if args.smoke else args.seconds
    min_passes = 2 if args.smoke else 3
    plain: list[TimedPass] = []
    traced: list[TimedPass] = []
    deadline = time.perf_counter() + seconds
    while len(plain) < min_passes or time.perf_counter() < deadline:
        for tracer in (off, Tracer()) if args.trace else (off,):
            run = timed_pass(workload, tracer)
            before, kernel = kernel, kernel_seconds()
            run.slowdown = slowdown(before, kernel)
            (traced if tracer.enabled else plain).append(run)

    attempted = failed = 0
    failed_checks = []
    for index, run in enumerate(plain + traced):
        attempted += run.result.ops
        if run.result.invariant != workload.expected:
            failed += run.result.ops
            failed_checks.append(
                f"pass {index}: {run.result.invariant} != {workload.expected}"
            )
    ops, checks, fingerprint = workload.verify()
    attempted += ops
    if checks:
        failed += ops
        failed_checks.extend(checks)

    samples = warm.result.samples
    pass_wall = quartiles([run.wall for run in plain])
    pass_cpu = quartiles([run.cpu for run in plain])
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}")
    print(
        f"  passes={pass_wall['count']}  samples/pass={samples}  calibrated "
        f"pass wall q1/median/q3 = {pass_wall['q1']:.4f}/"
        f"{pass_wall['median']:.4f}/{pass_wall['q3']:.4f} s"
    )
    if args.trace:
        metrics = trace_metrics(workload, setup_tracer, plain, traced, import_s)
        declared = decl["per_layer"]
    else:
        if not args.smoke:
            setups += probe_setups(args)
        stored_bytes, stored_rows = workload.stored
        metrics = {
            "setup_s": statistics.median(setups),
            "samples_per_s": samples / pass_wall["median"],
            "samples_per_cpu_s": samples / pass_cpu["median"],
            "stored_bytes_per_sample": stored_bytes / stored_rows,
        }
        declared = decl["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {undeclared}")
    # a layer the workload never enters reports 0 for its metrics
    reported = {
        name: {"value": metrics.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    for name, entry in reported.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    raw_wall = statistics.median(run.raw_wall for run in plain)
    print(
        f"  raw (uncalibrated): {samples / raw_wall:.6g} samples/s, median "
        f"pass wall {raw_wall:.4f} s, machine slowdown "
        f"{statistics.median(run.slowdown for run in plain):.3f}, "
        f"set-ups {[round(s, 3) for s in setups]}"
    )
    print(
        f"  failure_rate {failed / attempted:.6g}  "
        f"({failed} failed of {attempted} operations)"
    )
    for check in failed_checks:
        print(f"  FAILED {check}")
    print(f"  fingerprint {fingerprint}")

    import numpy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failure_rate": failed / attempted,
        "failed_checks": failed_checks,
        "fingerprint": fingerprint,
        "samples_per_pass": samples,
        "pass_wall_s": pass_wall,
        "pass_cpu_s": pass_cpu,
        "raw_pass_walls_s": [run.raw_wall for run in plain],
        "raw_pass_cpus_s": [run.raw_cpu for run in plain],
        "pass_slowdowns": [run.slowdown for run in plain],
        "setup_samples_s": setups,
        "metrics": reported,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return result


def run_all(args, label: str) -> dict:
    """Every declared workload, one fresh interpreter each, in turn."""
    results = {}
    for entry in declaration()["workloads"]:
        name = entry["name"]
        out = OUT / label / f"{name}.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--out",
            str(out),
        ]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        code = subprocess.run(command).returncode
        if out.exists():
            results[name] = json.loads(out.read_text())
        else:
            results[name] = {
                "correct": False,
                "failed_checks": [f"exit code {code}, no result"],
            }
    same = ("scan-kjt", "scan-process")
    if all(results[n].get("fingerprint") for n in same) and (
        results[same[0]]["fingerprint"] != results[same[1]]["fingerprint"]
    ):
        results[same[1]]["correct"] = False
        results[same[1]]["failed_checks"].append(
            "scan-process batches != scan-kjt batches (bit for bit)"
        )
    return results


#: per-layer metrics worth a column in the traced run's summary
TRACE_SUMMARY = (
    "pipeline.trace_overhead_ratio",
    "pipeline.machine_slowdown",
    "pipeline.batch_p50_ms",
    "pipeline.peak_rss_mb",
)


def print_summary(results: dict) -> None:
    """One row per workload: verdict, counts and the headline metrics."""
    print("\nworkload            ok  failed/attempted  fingerprint   metrics")
    for name, res in results.items():
        metrics = res.get("metrics", {})
        shown = "  ".join(
            f"{metric}={metrics[metric]['value']:.6g}"
            for metric in (TRACE_SUMMARY if res.get("trace") else metrics)
            if metric in metrics
        )
        print(
            f"{name:<18} {'yes' if res['correct'] else 'NO':>3}  "
            f"{res.get('failed', '-'):>6}/{res.get('attempted', '-'):<9}  "
            f"{res.get('fingerprint', '-')[:12]}  {shown}"
        )
        for check in res["failed_checks"]:
            print(f"    FAILED {check}")


def selfcheck(args) -> bool:
    """Two full sets of the same code must agree within the bounds."""
    bounds = {m["name"]: m["bound"] for m in declaration()["end_to_end"]}
    first, second = run_all(args, "selfcheck-a"), run_all(args, "selfcheck-b")
    print_summary(first)
    print_summary(second)
    agree = all(r["correct"] for r in (*first.values(), *second.values()))
    print("\nworkload            metric                      set A        set B   spread")
    for name in first:
        a, b = first[name], second[name]
        if not (a["correct"] and b["correct"]):
            continue
        # (attempted is not compared: how many passes fit is timing)
        for exact in ("fingerprint", "failed", "samples_per_pass"):
            if a[exact] != b[exact]:
                agree = False
                print(f"{name:<18} {exact}: {a[exact]} != {b[exact]}")
        for metric, bound in bounds.items():
            x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            spread = abs(x - y) / max(x, y)
            if metric == "stored_bytes_per_sample":
                ok = x == y  # a count: exact for one seed
            elif metric == "setup_s":
                ok = spread <= bound or abs(x - y) <= 0.5
            else:
                ok = spread <= bound
            agree &= ok
            print(
                f"{name:<18} {metric:<24} {x:>12.6g} {y:>12.6g}  "
                f"{spread:6.1%}{'' if ok else '  OUT OF BOUND'}"
            )
    print("selfcheck", "passed" if agree else "FAILED")
    return agree


def main(argv: list[str], started: float | None = None) -> int:
    """Parse the command line and run; returns the exit code."""
    if started is None:
        started = time.perf_counter()
    if not (ROOT / "BENCHMARK.json").is_file() or not (
        ROOT / "src" / "repro"
    ).is_dir():
        print(
            f"stopwatch: {ROOT} holds no BENCHMARK.json + src/repro to measure",
            file=sys.stderr,
        )
        return 2
    decl = declaration()
    names = [w["name"] for w in decl["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=0, help="trace seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=decl["run_seconds"],
        help="how long the timed passes of one workload go on",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: the traced run, reporting per-layer metrics",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tenth-size inputs, two passes, no set-up probes",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run two full sets and fail unless they agree within bounds",
    )
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="internal: set up, print the set-up seconds, exit",
    )
    args = parser.parse_args(argv)
    if args.selfcheck:
        return 0 if selfcheck(args) else 1
    if args.workload:
        return 0 if run_workload(args, started)["correct"] else 1
    results = run_all(args, "all")
    print_summary(results)
    out = Path(args.out) if args.out else OUT / f"result-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    host = next((r["host"] for r in results.values() if "host" in r), None)
    out.write_text(
        json.dumps(
            {
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "host": host,
                "workloads": results,
            },
            indent=1,
        )
    )
    print(f"result written to {out}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _STARTED))
