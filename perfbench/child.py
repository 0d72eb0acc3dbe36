"""One treedist command in a fresh interpreter, timed and optionally traced.

Usage::

    python3 perfbench/child.py RESULT_JSON MODE [treedist arguments ...]

MODE is ``setup`` (import only), ``plain`` (run ``treedist.cli.main``) or
``trace`` (run it with spans recorded around each layer's public entry
points).  The command's standard output goes wherever this process's does.
RESULT_JSON receives the clock readings, the exit code, the peak RSS and,
when tracing, every span and counter.  The clock readings come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock,
so the parent can subtract its own spawn time from ``t_imported`` to get
the set-up time.

The package is imported from ``src/`` of the checkout holding this file, and
the run fails if it resolves anywhere else.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Public entry points wrapped per layer: module -> function names.  Each
# replacement is made in every loaded treedist module that bound the same
# function object, so calls through ``from .x import f`` are traced too.
# ``measures`` is left out: no workload reaches it.
TRACED_FUNCTIONS = {
    "indices": ("wiener", "wiener_edge_cut", "randic", "energy", "ig_entropy", "ifk_entropy"),
    "spectral": ("eigenvalues", "char_poly", "is_cospectral"),
    "search": (
        "verify_conjecture_detail",
        "verify_conjecture",
        "find_equal_wiener_pairs",
        "smallest_equal_wiener_order",
        "caterpillar_scan",
        "equienergetic_scan",
    ),
}
# ``search.pairs_examined`` counts the tree pairs a search compares.  The
# exhaustive sweep compares every pair of the trees it enumerates; the
# equienergetic scan compares only energy neighbours, one helper call per
# pair, so the helper is wrapped to count its calls.  The other search
# entry points are on no workload and leave the counter alone.
EXHAUSTIVE_SWEEPS = ("search.verify_conjecture_detail",)
PAIR_HELPERS = ("_equienergetic_pair",)


class Tracer:
    """Spans kept in memory: ``[name, parent index, start, end]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {"graph_core.trees": 0, "search.pairs_examined": 0, "search.records": 0}

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def in_layer(self, layer: str) -> bool:
        prefix = layer + "."
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def in_span(self, names: tuple[str, ...]) -> bool:
        return any(self.spans[i][0] in names for i in self.stack)

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = layer == "search" and not self.in_layer("search")
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if outermost:
                self.counters["search.records"] += _record_count(result)
            return result

        return traced

    def count_calls(self, counter: str, fn):
        """Count the calls of ``fn`` in ``counter`` without opening a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_generator(self, name: str, fn):
        """Trace each step of a generator as its own span and count its items.

        Items enumerated under an exhaustive sweep add the number of
        unordered pairs among them to ``search.pairs_examined``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            exhaustive = self.in_span(EXHAUSTIVE_SWEEPS)
            steps = fn(*args, **kwargs)
            count = 0
            try:
                while True:
                    index = self.open(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    count += 1
                    yield item
            finally:
                self.counters["graph_core.trees"] += count
                if exhaustive:
                    self.counters["search.pairs_examined"] += count * (count - 1) // 2

        return traced

    def install(self, package) -> None:
        modules = [m for key, m in sys.modules.items() if key == "treedist" or key.startswith("treedist.")]
        replacements = {}
        graph_core = package.graph_core
        original = graph_core.enumerate_trees
        replacements[id(original)] = self.wrap_generator("graph_core.enumerate_trees", original)
        for module_name, names in TRACED_FUNCTIONS.items():
            module = getattr(package, module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is not None:
                    replacements[id(original)] = self.wrap(f"{module_name}.{name}", original)
        for name in PAIR_HELPERS:
            original = getattr(package.search, name, None)
            if original is not None:
                replacements[id(original)] = self.count_calls("search.pairs_examined", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
        self._wrap_code(graph_core.Tree)

    def _wrap_code(self, tree_class) -> None:
        code = tree_class.__dict__["code"]
        if isinstance(code, functools.cached_property):
            wrapped = functools.cached_property(self.wrap("graph_core.code", code.func))
            wrapped.__set_name__(tree_class, "code")
        elif isinstance(code, property):
            wrapped = property(self.wrap("graph_core.code", code.fget))
        else:
            wrapped = self.wrap("graph_core.code", code)
        setattr(tree_class, "code", wrapped)


def _record_count(result) -> int:
    """Records in a search result: list lengths, summed through tuples."""
    if isinstance(result, list):
        return len(result)
    if isinstance(result, tuple):
        return sum(_record_count(part) for part in result)
    return 0


def peak_rss_mb() -> float:
    """Peak resident set size of this process since exec, in MB (2**20 bytes).

    ``getrusage`` would also count the spawning process's peak: a child
    started by ``posix_spawn`` shares the parent's memory until exec, and
    the kernel carries that peak over into the child's figure.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(SRC))
    import treedist
    import treedist.cli

    t_imported = time.perf_counter()
    if not Path(treedist.__file__).resolve().is_relative_to(SRC):
        print(f"error: treedist imported from {treedist.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    result: dict = {"t_imported": t_imported}
    code = 0
    if mode == "plain":
        code = treedist.cli.main(argv)
    elif mode == "trace":
        tracer = Tracer()
        tracer.install(treedist)
        code = tracer.wrap("cli.main", treedist.cli.main)(argv)
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    elif mode != "setup":
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    result["t_done"] = time.perf_counter()
    result["exit_code"] = code
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
