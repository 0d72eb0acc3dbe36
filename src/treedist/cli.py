"""Command-line front end: index evaluation, verification, and scans.

Every subcommand prints a self-describing report.  JSON (the default) wraps
the result payload with the schema version, the effective configuration,
and the wall time; CSV emits the payload records only, one per row with a
fixed header.  Re-running a subcommand with the same configuration and tool
version produces byte-identical payloads.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import time
from typing import Any, Iterable

from . import __version__
from .graph_core import Graph, GraphError, count_trees, enumerate_trees, parse_edge_list
from .indices import IndexValue, energy, ifk_entropy, ig_entropy, randic, wiener
from .measures import d_index, theorem1_a, theorem1_bound, theorem3_bound
from .search import (
    CollisionPair,
    SearchConfig,
    ViolationRecord,
    caterpillar_scan,
    equienergetic_scan,
    find_equal_wiener_pairs,
    verify_conjecture_detail,
)

SCHEMA_VERSION = 1

INDEX_KINDS = ("W", "R", "E", "Ig", "If")

# Encoder chunks joined into one write: a large report goes out in a few
# big writes instead of one per token, with memory bounded by the block.
JSON_BLOCK_CHUNKS = 65536


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _compute_index(g: Graph, kind: str, k: int, log_base: float) -> IndexValue:
    if kind == "W":
        return wiener(g)
    if kind == "R":
        return randic(g)
    if kind == "E":
        return energy(g)
    if kind == "Ig":
        return ig_entropy(g, log_base)
    if kind == "If":
        return ifk_entropy(g, k, log_base)
    raise ValueError(f"unknown index kind {kind!r}")


def _edges_json(edges: tuple[tuple[int, int], ...]) -> list[list[int]]:
    return [[u, v] for u, v in edges]


def _edges_csv(edges: tuple[tuple[int, int], ...]) -> str:
    return ";".join(f"{u}-{v}" for u, v in edges)


def _violation_dict(v: ViolationRecord) -> dict[str, Any]:
    return {
        "conjecture": v.conjecture,
        "n": v.n,
        "code_a": v.code_a,
        "code_b": v.code_b,
        "index_pair": list(v.index_pair),
        "values_a": list(v.values_a),
        "values_b": list(v.values_b),
        "gap_a": v.gap_a,
        "gap_b": v.gap_b,
        "margin": v.margin,
    }


def _collision_dict(c: CollisionPair) -> dict[str, Any]:
    out: dict[str, Any] = {
        "kind": c.kind,
        "code_a": c.code_a,
        "code_b": c.code_b,
        "edges_a": _edges_json(c.edges_a),
        "edges_b": _edges_json(c.edges_b),
        "n_a": c.n_a,
        "n_b": c.n_b,
        "shared_value": c.shared_value,
        "secondary_gaps": {name: gap for name, gap in c.secondary_gaps},
    }
    if c.cospectral is not None:
        out["cospectral"] = c.cospectral
    if c.exact is not None:
        out["exact"] = c.exact
    if c.candidate is not None:
        out["candidate"] = c.candidate
    if c.label_a is not None:
        out["label_a"] = c.label_a
        out["label_b"] = c.label_b
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (config_echo, payload, csv_header, csv_rows)
# ---------------------------------------------------------------------------


def _cmd_index(args: argparse.Namespace):
    g = _load_graph(args.file)
    value = _compute_index(g, args.kind, args.k, args.log_base)
    config = {"file": args.file, "kind": args.kind, "k": args.k, "log_base": args.log_base}
    payload = {"kind": args.kind, "k": value.k, "log_base": value.log_base, "value": value.value}
    header = ["kind", "k", "log_base", "value"]
    rows = [[args.kind, value.k, value.log_base, value.value]]
    return config, payload, header, rows


def _cmd_distance(args: argparse.Namespace):
    g_a = _load_graph(args.file_a)
    g_b = _load_graph(args.file_b)
    value_a = _compute_index(g_a, args.kind, args.k, args.log_base).value
    value_b = _compute_index(g_b, args.kind, args.k, args.log_base).value
    result = d_index(float(value_a), float(value_b), args.sigma, kind=args.kind)
    config = {
        "file_a": args.file_a,
        "file_b": args.file_b,
        "kind": args.kind,
        "k": args.k,
        "log_base": args.log_base,
        "sigma": args.sigma,
    }
    payload = {
        "kind": args.kind,
        "sigma": args.sigma,
        "value_a": result.value_a,
        "value_b": result.value_b,
        "gap": result.gap,
        "distance": result.distance,
    }
    header = ["kind", "sigma", "value_a", "value_b", "gap", "distance"]
    rows = [[args.kind, args.sigma, result.value_a, result.value_b, result.gap, result.distance]]
    return config, payload, header, rows


def _cmd_enumerate(args: argparse.Namespace):
    trees = list(enumerate_trees(args.n))
    config = {"n": args.n, "count_only": args.count_only}
    payload: dict[str, Any] = {"n": args.n, "count": len(trees)}
    header = ["n", "code", "edges"]
    rows: list[list[Any]] = []
    if not args.count_only:
        payload["trees"] = [{"code": t.code_hex, "edges": _edges_json(t.edges)} for t in trees]
        rows = [[args.n, t.code_hex, _edges_csv(t.edges)] for t in trees]
    else:
        header = ["n", "count"]
        rows = [[args.n, len(trees)]]
    return config, payload, header, rows


def _cmd_verify(args: argparse.Namespace):
    n_max = args.n_max if args.n_max is not None else args.n
    cfg = SearchConfig(n_min=args.n, n_max=n_max, float_tol=args.float_tol)
    violations: list[ViolationRecord] = []
    borderline: list[ViolationRecord] = []
    pairs_checked = 0
    for n in range(args.n, n_max + 1):
        dec, near = verify_conjecture_detail(args.conjecture, n, cfg)
        violations.extend(dec)
        borderline.extend(near)
        count = count_trees(n)
        pairs_checked += count * (count - 1) // 2
    config = {
        "conjecture": args.conjecture,
        "n": args.n,
        "n_max": n_max,
        "float_tol": args.float_tol,
    }
    payload = {
        "conjecture": args.conjecture,
        "orders": list(range(args.n, n_max + 1)),
        "pairs_checked": pairs_checked,
        "violations": [_violation_dict(v) for v in violations],
        "borderline": [_violation_dict(v) for v in borderline],
    }
    header = [
        "conjecture", "n", "code_a", "code_b", "index_a", "index_b",
        "a_value_a", "a_value_b", "b_value_a", "b_value_b", "gap_a", "gap_b", "margin",
    ]
    # Lazy: only --format csv consumes the rows.
    rows = (
        [
            v.conjecture, v.n, v.code_a, v.code_b, v.index_pair[0], v.index_pair[1],
            v.values_a[0], v.values_b[0], v.values_a[1], v.values_b[1], v.gap_a, v.gap_b, v.margin,
        ]
        for v in violations
    )
    return config, payload, header, rows


_COLLISION_HEADER = [
    "kind", "n_a", "n_b", "shared_value", "code_a", "code_b",
    "secondary_gaps", "cospectral", "exact", "candidate", "label_a", "label_b", "edges_a", "edges_b",
]


def _collision_rows(pairs: list[CollisionPair]) -> list[list[Any]]:
    rows = []
    for c in pairs:
        gaps = ";".join(f"{name}={gap!r}" for name, gap in c.secondary_gaps)
        rows.append(
            [
                c.kind, c.n_a, c.n_b, c.shared_value, c.code_a, c.code_b,
                gaps, c.cospectral, c.exact, c.candidate, c.label_a, c.label_b,
                _edges_csv(c.edges_a), _edges_csv(c.edges_b),
            ]
        )
    return rows


def _cmd_scan_caterpillar(args: argparse.Namespace):
    cfg = SearchConfig(
        scan_limit=args.limit,
        fixed_t=args.t,
        perfect_squares_only=not args.all_integers,
        equal_order_only=args.equal_order,
        float_tol=args.float_tol,
    )
    pairs = caterpillar_scan(cfg)
    config = {
        "limit": args.limit,
        "t": args.t,
        "perfect_squares_only": not args.all_integers,
        "equal_order_only": args.equal_order,
        "float_tol": args.float_tol,
    }
    payload = {"pairs": [_collision_dict(c) for c in pairs]}
    return config, payload, _COLLISION_HEADER, _collision_rows(pairs)


def _cmd_scan_equal_wiener(args: argparse.Namespace):
    pairs = find_equal_wiener_pairs(args.n)
    config = {"n": args.n}
    payload = {"n": args.n, "pairs": [_collision_dict(c) for c in pairs]}
    return config, payload, _COLLISION_HEADER, _collision_rows(pairs)


def _cmd_scan_equienergetic(args: argparse.Namespace):
    cfg = SearchConfig(n_min=args.n_min, n_max=args.n_max, energy_tol=args.energy_tol)
    pairs = equienergetic_scan(cfg)
    config = {"n_min": args.n_min, "n_max": args.n_max, "energy_tol": args.energy_tol}
    payload = {"records": [_collision_dict(c) for c in pairs]}
    return config, payload, _COLLISION_HEADER, _collision_rows(pairs)


def _parse_probability_vector(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse probability vector {text!r}") from exc


def _cmd_bounds(args: argparse.Namespace):
    if args.theorem == 1:
        if args.p_prime is None:
            raise ValueError("--theorem 1 requires --p-prime (comma-separated probabilities)")
        p_prime = _parse_probability_vector(args.p_prime)
        a_value = theorem1_a(p_prime, args.log_base)
        bound = theorem1_bound(p_prime, args.sigma, args.log_base)
        config = {"theorem": 1, "p_prime": p_prime, "sigma": args.sigma, "log_base": args.log_base}
        payload = {"theorem": 1, "a_value": a_value, "bound": bound}
        header = ["theorem", "a_value", "bound"]
        rows = [[1, a_value, bound]]
    else:
        if args.n is None:
            raise ValueError("--theorem 3 requires --n")
        bound = theorem3_bound(args.n, args.sigma)
        config = {"theorem": 3, "n": args.n, "sigma": args.sigma}
        payload = {
            "theorem": 3,
            "n": args.n,
            "coefficient": (math.sqrt(2.0) - 1.0) / 6.0,
            "bound": bound,
            "asymptotic": True,
        }
        header = ["theorem", "n", "coefficient", "bound", "asymptotic"]
        rows = [[3, args.n, (math.sqrt(2.0) - 1.0) / 6.0, bound, True]]
    return config, payload, header, rows


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedist",
        description="Topological tree indices, distance measures, and conjecture counterexample search.",
    )
    parser.add_argument("--version", action="version", version=f"treedist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    p = sub.add_parser("index", parents=[fmt], help="compute one topological index of a graph file")
    p.add_argument("file", help="edge-list file: first line 'n m', then m lines 'u v'")
    p.add_argument("--kind", choices=INDEX_KINDS, required=True)
    p.add_argument("--k", type=int, default=1, help="exponent for --kind If (default 1)")
    p.add_argument("--log-base", type=float, default=math.e, help="entropy log base (default e)")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("distance", parents=[fmt], help="distance measure between two graph files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--kind", choices=INDEX_KINDS, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--log-base", type=float, default=math.e)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("enumerate", parents=[fmt], help="enumerate free trees of a given order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[fmt], help="exhaustively verify a conjecture over tree pairs")
    p.add_argument("--conjecture", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--float-tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_verify)

    scan = sub.add_parser("scan", help="counterexample scans")
    scan_sub = scan.add_subparsers(dest="scan_command", required=True)

    p = scan_sub.add_parser("caterpillar", parents=[fmt], help="equal-Randic caterpillar spine quadruples")
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--all-integers", action="store_true", help="scan all integers, not just perfect squares")
    p.add_argument("--equal-order", action="store_true", help="require equal vertex counts across the pair")
    p.add_argument("--float-tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_scan_caterpillar)

    p = scan_sub.add_parser("equal-wiener", parents=[fmt], help="equal-Wiener tree pairs at one order")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_scan_equal_wiener)

    p = scan_sub.add_parser("equienergetic", parents=[fmt], help="numerically equienergetic tree pairs")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--energy-tol", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_scan_equienergetic)

    p = sub.add_parser("bounds", parents=[fmt], help="evaluate the distance-measure bounds")
    p.add_argument("--theorem", type=int, choices=(1, 3), required=True)
    p.add_argument("--p-prime", type=str, default=None, help="comma-separated probabilities (theorem 1)")
    p.add_argument("--n", type=int, default=None, help="graph order (theorem 3)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--log-base", type=float, default=math.e)
    p.set_defaults(handler=_cmd_bounds)

    return parser


def _emit(report: dict[str, Any], header: list[str], rows: Iterable[list[Any]], fmt: str, out) -> None:
    if fmt == "json":
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
        while batch := "".join(itertools.islice(chunks, JSON_BLOCK_CHUNKS)):
            out.write(batch)
        out.write("\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        out.write(buf.getvalue())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        config, payload, header, rows = args.handler(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started
    subcommand = args.command if getattr(args, "scan_command", None) is None else f"scan {args.scan_command}"
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "treedist",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "wall_time_s": wall,
        "payload": payload,
    }
    _emit(report, header, rows, args.format, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
