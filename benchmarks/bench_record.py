#!/usr/bin/env python
"""Record the stopwatch's end-to-end metrics as one ``BENCH_<pr>.json``.

Runs ``benchmarks/stopwatch/run.py --workload W --seed S --out F`` for
every workload ``BENCHMARK.json`` declares over five or more seeds, each
run in a fresh interpreter, and writes ``BENCH_<pr>.json`` at the repo
root: per workload, each end-to-end metric's median and quartiles over
the seeds (and the per-seed values), the fingerprints, the failed
operations and the machine slowdown, beside the host, the git sha and
the seeds.  ``--compare A B`` prints the per-workload ratio table of two
such files as markdown, B over A; ``--trend WORKLOAD [METRIC]`` prints
one metric's median (default ``samples_per_s``) from every
``BENCH_*.json`` at the repo root, in PR order.

Usage::

    python benchmarks/bench_record.py --pr N
    python benchmarks/bench_record.py --pr M --tree ../parent-checkout \\
        --seeds 101 102 103 104 105
    python benchmarks/bench_record.py --compare BENCH_M.json BENCH_N.json
    python benchmarks/bench_record.py --trend scan-ikjt [samples_per_cpu_s]

``--tree`` runs another checkout's stopwatch on that checkout's source
(its sha is recorded; the file is still written here).  Seeds default
to ``100 * pr + 1 … 100 * pr + 5``, unseen by earlier records.  An
existing ``BENCH_<pr>.json`` is never overwritten.  ``--compare`` also
and ``--trend`` read backfilled files (``"backfilled": true``), which
may lack the sha, the slowdown, the fingerprints, the quartiles or some
metrics; ``--trend`` marks them and shows a missing median as a dash.
Exits 1 when a run fails a check, 2 on usage errors (an existing
record included).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_SEEDS = 5


def declaration(root: pathlib.Path = REPO_ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> dict:
    """Median and quartiles of one metric over the seeds."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def run_one(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One stopwatch run of one workload in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "result.json"
        command = [
            sys.executable, str(tree / "benchmarks" / "stopwatch" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(out),
        ]
        code = subprocess.run(command, cwd=tree).returncode
        if not out.exists():
            raise RuntimeError(f"{workload} seed {seed}: exit {code}, no result")
        return json.loads(out.read_text())


def record(tree: pathlib.Path, pr: int, seeds: list[int]) -> dict:
    """Every declared workload over every seed, summarised."""
    decl = declaration(tree)
    names = [w["name"] for w in decl["workloads"]]
    runs = {name: [] for name in names}
    for seed in seeds:  # seeds outer: a slow minute hits every workload
        for name in names:
            runs[name].append(run_one(tree, name, seed))
    workloads = {}
    for name, results in runs.items():
        metrics = {
            metric: spread([r["metrics"][metric]["value"] for r in results])
            for metric in results[0]["metrics"]
        }
        workloads[name] = {
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "fingerprints": {
                str(seed): r["fingerprint"] for seed, r in zip(seeds, results)
            },
            "machine_slowdown": statistics.median(
                statistics.median(r["pass_slowdowns"]) for r in results
            ),
        }

    def git(*command: str) -> str:
        return subprocess.run(
            ["git", *command], cwd=tree, capture_output=True, text=True,
            check=True,
        ).stdout.strip()

    return {
        "pr": pr,
        "git_sha": git("rev-parse", "HEAD"),
        # uncommitted edits to what the stopwatch runs, on top of the sha
        "dirty": bool(git("status", "--porcelain", "--", "src", "benchmarks/stopwatch")),
        "seeds": seeds,
        "seconds": decl["run_seconds"],
        "host": {**runs[names[0]][0]["host"], "node": platform.node()},
        "machine_slowdown": statistics.median(
            w["machine_slowdown"] for w in workloads.values()
        ),
        "workloads": workloads,
    }


def compare(a: dict, b: dict, a_name: str, b_name: str) -> list[str]:
    """The markdown ratio table, B over A, one row per workload and
    end-to-end metric both files hold."""
    better = {m["name"]: m["better"] for m in declaration()["end_to_end"]}

    def head(label: str, name: str, f: dict) -> str:
        # a backfilled file may lack the sha, the slowdown or the seeds
        sha = (f.get("git_sha") or "—")[:10]
        slowdown = f.get("machine_slowdown")
        slowdown = "—" if slowdown is None else f"{slowdown:.3f}"
        kind = ", backfilled" if f.get("backfilled") else ""
        return (
            f"{label} = {name} (sha {sha}, seeds {f.get('seeds')}, "
            f"slowdown {slowdown}{kind})"
        )

    lines = [
        head("A", a_name, a),
        head("B", b_name, b),
        "",
        "| workload | metric | A median | A IQR | B median | B ÷ A | "
        "fingerprints |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        fa, fb = wa.get("fingerprints", {}), wb.get("fingerprints", {})
        shared = set(fa) & set(fb)
        same = "—" if not shared else (
            "equal" if all(fa[s] == fb[s] for s in shared) else "DIFFER"
        )
        for metric, direction in better.items():
            ma = wa.get("metrics", {}).get(metric, {})
            mb = wb.get("metrics", {}).get(metric, {})
            if "median" not in ma or "median" not in mb:
                continue
            ratio = mb["median"] / ma["median"]
            if ratio == 1:
                verdict = "="
            else:
                verdict = "better" if (ratio > 1) == (direction == "higher") else "worse"
            iqr = f"{ma['iqr']:.4g}" if "iqr" in ma else "—"
            lines.append(
                f"| {name} | {metric} | {ma['median']:.6g} | {iqr} "
                f"| {mb['median']:.6g} | ×{ratio:.3f} {verdict} | {same} |"
            )
    return lines


def trend(root: pathlib.Path, workload: str, metric: str) -> list[str]:
    """One workload's ``metric`` median from every ``BENCH_*.json`` in
    ``root``, in PR order, as a markdown table."""
    records = sorted(
        (json.loads(p.read_text()) for p in root.glob("BENCH_*.json")),
        key=lambda f: f["pr"],
    )
    lines = [
        f"{workload} {metric}, median per record",
        "",
        "| PR | median | IQR | record |",
        "|---|---|---|---|",
    ]
    for f in records:
        m = f["workloads"].get(workload, {}).get("metrics", {}).get(metric, {})
        median = f"{m['median']:.6g}" if "median" in m else "—"
        iqr = f"{m['iqr']:.4g}" if "iqr" in m else "—"
        kind = "backfilled" if f.get("backfilled") else "measured"
        lines.append(f"| {f['pr']} | {median} | {iqr} | {kind} |")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="the number BENCH_<pr>.json is named for")
    parser.add_argument("--seeds", type=int, nargs="+", help="trace seeds")
    parser.add_argument(
        "--tree", default=str(REPO_ROOT),
        help="the checkout whose stopwatch and source run (default: this one)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="print B's per-workload ratios over A's instead of recording",
    )
    parser.add_argument(
        "--trend", nargs="+", metavar=("WORKLOAD", "METRIC"),
        help="WORKLOAD [METRIC]: print the metric's median (default "
             "samples_per_s) from every BENCH file, in PR order",
    )
    args = parser.parse_args(argv)
    if args.trend:
        declared = declaration()
        workload, metric = (*args.trend, "samples_per_s")[:2]
        workloads = [w["name"] for w in declared["workloads"]]
        metrics = [m["name"] for m in declared["end_to_end"]]
        if len(args.trend) > 2 or workload not in workloads:
            parser.error(f"--trend takes WORKLOAD [METRIC], WORKLOAD one of {workloads}")
        if metric not in metrics:
            parser.error(f"--trend METRIC must be one of {metrics}, got {metric!r}")
        print("\n".join(trend(REPO_ROOT, workload, metric)))
        return 0
    if args.compare:
        a_path, b_path = map(pathlib.Path, args.compare)
        a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
        print("\n".join(compare(a, b, a_path.name, b_path.name)))
        return 0
    if args.pr is None:
        parser.error("--pr is required when recording")
    seeds = args.seeds or [100 * args.pr + i for i in range(1, MIN_SEEDS + 1)]
    if len(set(seeds)) < MIN_SEEDS:
        parser.error(f"--seeds needs at least {MIN_SEEDS} distinct seeds")
    out = REPO_ROOT / f"BENCH_{args.pr}.json"
    if out.exists():  # a committed record is never measured over
        parser.error(f"{out} exists; move it away or record under another --pr")
    result = record(pathlib.Path(args.tree).resolve(), args.pr, seeds)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"written {out}")
    failed = sum(w["failed"] for w in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
