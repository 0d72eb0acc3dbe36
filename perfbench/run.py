"""treedist benchmark: fixed CLI workloads, end-to-end metrics and a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-14 --seed 1 --seconds 20 --trace 0

This process runs one command at a time.  Every command is a fresh
interpreter running ``treedist.cli.main`` on argv alone (see ``child.py``),
as a user's shell call would, so nothing cached in one command reaches the
next.  A pass runs each command of the workload once; passes repeat until
the commands have taken ``--seconds`` in total.  Every output is checked
against ``reference.json`` after its command exits, outside the timed region.

The workloads are exhaustive enumerations, so their inputs do not depend on
the seed.  The seed picks which record the output self-test corrupts: on
the first pass, one tree code is changed and one record dropped from the
first command's output, and the check must flag both.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median over passes of the commands' summed time from the end
  of ``import treedist.cli`` to the return of ``main``.
* ``setup_s``: median time from spawning an interpreter to the end of that
  import, over ``SETUP_PROBES`` import-only interpreters and every command.
* ``peak_rss_mb``: median over passes of the largest peak RSS of any
  command, in MB of 2**20 bytes, as the command's process reports it.

``--trace 1`` runs the same untraced passes, then ``TRACED_PASSES`` traced
ones, and prints the per-layer metrics: self time, calls and counters per
layer, summed over the workload and per command (prefix ``c1.``, ``c2.``;
zero where the workload has fewer commands), plus ``trace_overhead_s``
(traced minus untraced ``wall_s``) and ``trace_unattributed_s`` (traced
wall time not covered by the root ``cli.main`` span).  The run is not
correct unless the exact counters repeat between the traced passes and the
spans cover all but ``ATTRIBUTION_TOL`` of each traced command.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (commands run, and commands that exited
non-zero or failed their check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import sys
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = {
    "enumerate-16": [["enumerate", "--n", "16", "--format", "csv"]],
    "verify-14": [["verify", "--conjecture", "1", "--n", "14"], ["verify", "--conjecture", "3", "--n", "14"]],
    "equienergetic-12": [["scan", "equienergetic", "--n-min", "4", "--n-max", "12"]],
}
MAX_COMMANDS = max(len(commands) for commands in WORKLOADS.values())
SETUP_PROBES = 5
TRACED_PASSES = 2
# Commands still running this long after the start are killed, so a run
# always ends within the 180 s a run is allowed.
DEADLINE_S = 170.0
# Every span descends from the root ``cli.main`` span, so the layers' self
# times add up to it; at most this share of a traced command's wall time may
# fall outside it (interpreter work around ``main``).
ATTRIBUTION_TOL = 0.01

LAYERS = ("graph_core", "indices", "spectral", "search", "cli")
# Per-layer time metric -> span name whose self time it sums.
SPAN_TIMES = {
    "graph_core.enumerate_s": "graph_core.enumerate_trees",
    "graph_core.code_s": "graph_core.code",
    "indices.wiener_s": "indices.wiener",
    "indices.randic_s": "indices.randic",
    "indices.ifk_entropy_s": "indices.ifk_entropy",
    "spectral.eigenvalues_s": "spectral.eigenvalues",
    "spectral.char_poly_s": "spectral.char_poly",
}
# Per-layer call counter -> span name prefix whose spans it counts.
SPAN_CALLS = {
    "graph_core.codes": "graph_core.code",
    "indices.calls": "indices.",
    "spectral.eigenvalues_calls": "spectral.eigenvalues",
    "spectral.char_poly_calls": "spectral.char_poly",
    "spectral.cospectral_checks": "spectral.is_cospectral",
}
TRACER_COUNTERS = ("graph_core.trees", "search.pairs_examined", "search.records")
EXACT_COUNTERS = (*SPAN_CALLS, *TRACER_COUNTERS, "cli.output_bytes")
COMMAND_METRICS = (
    *(f"{layer}.self_s" for layer in LAYERS),
    *SPAN_TIMES,
    *EXACT_COUNTERS,
    "search.hit_ratio",
    "traced_wall_s",
)
PER_LAYER = (
    *COMMAND_METRICS,
    *(f"c{i}.{name}" for i in range(1, MAX_COMMANDS + 1) for name in COMMAND_METRICS),
    "trace_overhead_s",
    "trace_unattributed_s",
)
UNITS = {"_s": "s", "hit_ratio": "ratio", "output_bytes": "bytes"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Spawns the commands of one run and keeps what they measured."""

    def __init__(self, workload: str, seed: int, reference: list[dict] | None = None) -> None:
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.reference = reference  # one output summary per command
        self.started = time.perf_counter()
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.self_tested = False

    def spawn(self, mode: str, argv: list[str], name: str) -> dict:
        """Run ``child.py`` once and return its result."""
        out, err, result_path = (self.work / f"{name}.{ext}" for ext in ("out", "err", "result.json"))
        result_path.unlink(missing_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        args = [sys.executable, str(HERE / "child.py"), str(result_path), mode, *argv]
        t_spawn = time.perf_counter()
        pid = os.posix_spawn(sys.executable, args, os.environ, file_actions=actions)
        code = os.waitstatus_to_exitcode(self._wait(pid))
        if code != 0 or not result_path.exists():
            tail = err.read_text(errors="replace")[-2000:]
            raise CommandFailed(f"{' '.join(argv) or mode} exited with {code}: {tail}")
        result = json.loads(result_path.read_text())
        self.setup_samples.append(result["t_imported"] - t_spawn)
        return result

    def _wait(self, pid: int) -> int:
        """Wait for ``pid`` and return its wait status.

        The process is killed, and reaped, if it is still running at the
        deadline or if this one is interrupted while waiting.
        """
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        finished = False
        try:
            fd = os.pidfd_open(pid)
            try:
                finished = bool(select.select([fd], [], [], max(remaining, 0.0))[0])
            finally:
                os.close(fd)
        finally:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        if not finished:
            raise CommandFailed(f"command still running {DEADLINE_S:.0f} s after the run started; killed")
        return status

    def command(self, index: int, mode: str) -> dict | None:
        """Run command ``index`` and check its output; None if it failed."""
        argv = self.commands[index]
        self.attempted += 1
        try:
            result = self.spawn(mode, argv, f"c{index + 1}")
        except CommandFailed as exc:
            self.fail(str(exc))
            return None
        output = (self.work / f"c{index + 1}.out").read_bytes()
        parsed, varying = check.parse_output(output.decode(), "csv" if "csv" in argv else "json")
        problems = check.compare(check.summarise(parsed), self.reference[index])
        if problems:
            self.fail(f"{' '.join(argv)}: " + "; ".join(problems[:5]))
            return None
        if not self.self_tested:
            self.self_test(parsed)
        result["output_bytes"] = len(output) - varying
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problem(message)

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def passes(self, seconds: float, mode: str, minimum: int) -> list[list[dict]]:
        """Run passes until the commands took ``seconds`` and ``minimum`` passes ran."""
        done: list[list[dict]] = []
        spent = 0.0
        while len(done) < minimum or spent < seconds:
            results = []
            for index in range(len(self.commands)):
                result = self.command(index, mode)
                if result is None:
                    return done
                spent += result["t_done"] - result["t_imported"]
                results.append(result)
            done.append(results)
        return done

    def self_test(self, parsed) -> None:
        """The check must flag a changed code and a dropped record in the first command's output."""
        self.self_tested = True
        for label in check.corruptions(parsed, self.seed):
            if not check.compare(check.summarise(parsed), self.reference[0]):
                self.problem(f"self-test: output with {label} passed the check")


class CommandFailed(Exception):
    """A command exited non-zero or overran the deadline."""


def wall(results: list[dict]) -> float:
    return sum(r["t_done"] - r["t_imported"] for r in results)


def command_layers(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans and counters."""
    spans = result["spans"]
    self_time = [end - start for _, _, start, end in spans]
    for name, parent, start, end in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    by_name: dict[str, list[float]] = {}
    for (name, *_), own in zip(spans, self_time):
        entry = by_name.setdefault(name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(s for n, (s, _) in by_name.items() if n.startswith(layer + "."))
    for metric, name in SPAN_TIMES.items():
        metrics[metric] = by_name.get(name, [0.0, 0])[0]
    for metric, prefix in SPAN_CALLS.items():
        metrics[metric] = sum(c for n, (_, c) in by_name.items() if n.startswith(prefix))
    for metric in TRACER_COUNTERS:
        metrics[metric] = result["counters"][metric]
    metrics["cli.output_bytes"] = result["output_bytes"]
    metrics["search.hit_ratio"] = hit_ratio(metrics)
    metrics["traced_wall_s"] = result["t_done"] - result["t_imported"]
    root = [end - start for name, parent, start, end in spans if parent < 0]
    metrics["unattributed_s"] = metrics["traced_wall_s"] - sum(root)
    return metrics


def hit_ratio(metrics: dict[str, float]) -> float:
    pairs = metrics["search.pairs_examined"]
    return metrics["search.records"] / pairs if pairs else 0.0


def layer_metrics(runner: Runner, untraced: list[list[dict]], traced: list[list[dict]]) -> dict[str, float]:
    per_pass = [[command_layers(r) for r in results] for results in traced]
    for index in range(len(runner.commands)):
        for p in per_pass:
            if abs(p[index]["unattributed_s"]) > ATTRIBUTION_TOL * p[index]["traced_wall_s"]:
                runner.problem(f"c{index + 1}: {p[index]['unattributed_s']:.4f} s of the traced pass is outside cli.main")
        counts = {tuple(p[index][m] for m in EXACT_COUNTERS) for p in per_pass}
        if len(counts) != 1:
            runner.problem(f"c{index + 1}: exact counters differ between traced passes: {sorted(counts)}")
    metrics: dict[str, float] = {}
    for i in range(MAX_COMMANDS):
        for name in COMMAND_METRICS:
            values = [p[i][name] for p in per_pass] if i < len(runner.commands) else [0]
            metrics[f"c{i + 1}.{name}"] = values[0] if name in EXACT_COUNTERS else statistics.median(values)
    for name in COMMAND_METRICS:
        metrics[name] = sum(metrics[f"c{i + 1}.{name}"] for i in range(MAX_COMMANDS))
    metrics["search.hit_ratio"] = hit_ratio(metrics)
    metrics["trace_overhead_s"] = statistics.median(map(wall, traced)) - statistics.median(map(wall, untraced))
    metrics["trace_unattributed_s"] = statistics.median(
        sum(c["unattributed_s"] for c in p) for p in per_pass
    )
    return metrics


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    for suffix, value in UNITS.items():
        if name.endswith(suffix):
            return value
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "treedist" / "__init__.py").is_file():
        raise BenchError(f"no treedist sources under {ROOT / 'src'}; run from the root of a checkout")
    if not REFERENCE.is_file():
        raise BenchError(f"no reference outputs at {REFERENCE}")
    runner = Runner(workload, seed, json.loads(REFERENCE.read_text())[workload])
    runner.spawn("setup", [], "warmup")  # compiles bytecode; not a sample
    runner.setup_samples.clear()
    for _ in range(SETUP_PROBES):
        runner.spawn("setup", [], "setup")
    untraced = runner.passes(seconds, "plain", minimum=1)
    traced = runner.passes(0.0, "trace", minimum=TRACED_PASSES) if trace and untraced else []
    if trace:
        metrics = layer_metrics(runner, untraced, traced) if traced else {}
    elif untraced:
        metrics = {
            "wall_s": statistics.median(map(wall, untraced)),
            "setup_s": statistics.median(runner.setup_samples),
            "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in p) for p in untraced),
        }
    else:
        metrics = {}
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that a command still running is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, CommandFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
