"""Record what the benchmark compares against.

Run from the root of a checkout::

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline

``reference`` runs each command of every workload once and writes the
summary of its output (see ``check.py``) to ``perfbench/reference.json``;
run it on the code whose outputs are right.

``baseline`` runs ``run.py`` on every workload ``SEEDS`` times, each with
another seed, with tracing off, then ``TRACED`` times with tracing on, all
for ``run_seconds`` from ``BENCHMARK.json``.  It writes each end-to-end
metric's median, quartiles and spread (quartile distance over median), the
per-layer numbers with each layer's share of the traced wall time, and run
metadata to ``perfbench/baseline.json`` (or ``--out``, to compare a second
set with the first).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import run

ROOT = Path.cwd()
SEEDS = 10
TRACED = 2


def record_reference() -> None:
    reference = {}
    for workload, commands in run.WORKLOADS.items():
        runner = run.Runner(workload, seed=0)
        summaries = []
        for index, argv in enumerate(commands):
            runner.spawn("plain", argv, f"c{index + 1}")
            text = (runner.work / f"c{index + 1}.out").read_text()
            parsed, _ = check.parse_output(text, "csv" if "csv" in argv else "json")
            summaries.append(check.summarise(parsed))
        reference[workload] = summaries
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    report["run_s"] = time.perf_counter() - started
    if not report["correct"] or report["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} was not correct:\n{proc.stderr}")
    print(f"{workload} seed={seed} trace={trace} {report['run_s']:.1f} s", file=sys.stderr)
    return report


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values)}


def metadata() -> dict:
    import numpy

    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "commit": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
        "date": time.strftime("%Y-%m-%d"),
    }


def record_baseline(out: Path) -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    baseline: dict = {"metadata": metadata(), "seconds": seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        plain = [bench(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        entry: dict = {"run_s": spread([r["run_s"] for r in plain])}
        for name in plain[0]["metrics"]:
            entry[name] = spread([r["metrics"][name]["value"] for r in plain])
            entry[name]["unit"] = plain[0]["metrics"][name]["unit"]
        reports = [bench(workload, SEEDS + 1 + i, seconds, 1) for i in range(TRACED)]
        layers = {
            name: statistics.median(r["metrics"][name]["value"] for r in reports)
            for name in reports[0]["metrics"]
        }
        entry["per_layer"] = layers
        entry["layer_shares"] = {
            prefix + layer: layers[f"{prefix}{layer}.self_s"] / layers[f"{prefix}traced_wall_s"]
            for prefix in ("", *(f"c{i + 1}." for i in range(len(run.WORKLOADS[workload]))))
            for layer in run.LAYERS
        }
        entry["trace_run_s"] = [r["run_s"] for r in reports]
        baseline["workloads"][workload] = entry
    out.write_text(json.dumps(baseline, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    p = sub.add_parser("baseline")
    p.add_argument("--out", type=Path, default=run.HERE / "baseline.json")
    args = parser.parse_args()
    if args.what == "reference":
        record_reference()
    else:
        record_baseline(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
