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
import dataclasses
import io
import itertools
import json
import math
import sys
import time
from typing import Any, Iterable, Iterator

from . import __version__
from .graph_core import Graph, GraphError, count_trees, enumerate_trees, parse_edge_list
from .indices import energy, ifk_entropy, ig_entropy, randic, wiener
from .measures import WIENER_GAP_COEFF, d_index, theorem1_a, theorem1_bound, theorem3_bound
from .search import (
    CollisionPair,
    ViolationRecord,
    caterpillar_scan,
    equienergetic_scan,
    find_equal_wiener_pairs,
    verify_conjecture_detail,
)

SCHEMA_VERSION = 1

INDEX_KINDS = ("W", "R", "E", "Ig", "If")

# JSON pieces joined into one write: encoder chunks, or whole verify
# records.  A large report goes out in a few big writes instead of one per
# token, with memory bounded by the block.
JSON_BLOCK_CHUNKS = 512

# Payload lists of ViolationRecord field dicts, written through one template
# instead of the stdlib encoder.  They sit at report -> payload -> list, so
# each record is a dict at depth 3.
RECORD_LISTS = ("borderline", "violations")
RECORD_DEPTH = 3
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# The largest order each command takes.  At these orders each JSON report
# took under 60 s on a 2-vCPU host (for verify, under every conjecture); a
# larger order is refused before any tree is enumerated.
MAX_ENUMERATE_ORDER = 19
MAX_VERIFY_ORDER = 15
MAX_EQUAL_WIENER_ORDER = 14
MAX_EQUIENERGETIC_ORDER = 17


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _compute_index(g: Graph, kind: str, k: int, log_base: float) -> float:
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


def _check_order(name: str, n: int, largest: int) -> None:
    if n > largest:
        raise ValueError(f"{name} must be <= {largest}, got {n}")


def _edges_csv(edges: tuple[tuple[int, int], ...]) -> str:
    return ";".join(f"{u}-{v}" for u, v in edges)


def _config(args: argparse.Namespace) -> dict[str, Any]:
    """The parsed options echoed as the report's config, keyed by their dests."""
    skip = ("command", "scan_command", "format", "handler")
    return {k: v for k, v in vars(args).items() if k not in skip}


def _collision_dict(c: CollisionPair) -> dict[str, Any]:
    """The pair's set fields, with ``secondary_gaps`` as a name -> gap object."""
    out = {k: v for k, v in vars(c).items() if v is not None}
    out["secondary_gaps"] = dict(c.secondary_gaps)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (config_echo, payload, csv_header, csv_rows)
# ---------------------------------------------------------------------------


def _cmd_index(args: argparse.Namespace):
    g = _load_graph(args.file)
    value = _compute_index(g, args.kind, args.k, args.log_base)
    # Only the entropies take a log base, and only If an exponent.
    payload = {
        "kind": args.kind,
        "k": args.k if args.kind == "If" else None,
        "log_base": args.log_base if args.kind in ("Ig", "If") else None,
        "value": value,
    }
    return _config(args), payload, list(payload), [list(payload.values())]


def _cmd_distance(args: argparse.Namespace):
    g_a = _load_graph(args.file_a)
    g_b = _load_graph(args.file_b)
    value_a = _compute_index(g_a, args.kind, args.k, args.log_base)
    value_b = _compute_index(g_b, args.kind, args.k, args.log_base)
    result = d_index(float(value_a), float(value_b), args.sigma, kind=args.kind)
    payload = {
        "kind": args.kind,
        "sigma": args.sigma,
        "value_a": result.value_a,
        "value_b": result.value_b,
        "gap": result.gap,
        "distance": result.distance,
    }
    return _config(args), payload, list(payload), [list(payload.values())]


def _cmd_enumerate(args: argparse.Namespace):
    config = _config(args)
    if args.count_only:
        payload = {"n": args.n, "count": count_trees(args.n)}
        return config, payload, list(payload), [list(payload.values())]
    _check_order("n", args.n, MAX_ENUMERATE_ORDER)
    trees = list(enumerate_trees(args.n))
    payload: dict[str, Any] = {"n": args.n, "count": len(trees)}
    # Each format builds only its own records: the tree list for JSON, the
    # lazy rows for CSV.
    if args.format == "json":
        payload["trees"] = [{"code": t.code_hex, "edges": t.edges} for t in trees]
    rows = ([args.n, t.code_hex, _edges_csv(t.edges)] for t in trees)
    return config, payload, ["n", "code", "edges"], rows


def _cmd_verify(args: argparse.Namespace):
    n_max = args.n_max if args.n_max is not None else args.n
    if args.n > n_max:
        raise ValueError(f"n_min {args.n} exceeds n_max {n_max}")
    _check_order("n" if args.n_max is None else "n_max", n_max, MAX_VERIFY_ORDER)
    violations: list[ViolationRecord] = []
    borderline: list[ViolationRecord] = []
    pairs_checked = 0
    for n in range(args.n, n_max + 1):
        dec, near = verify_conjecture_detail(args.conjecture, n, args.float_tol)
        violations.extend(dec)
        borderline.extend(near)
        count = count_trees(n)
        pairs_checked += count * (count - 1) // 2
    config = {**_config(args), "n_max": n_max}
    payload = {
        "conjecture": args.conjecture,
        "orders": list(range(args.n, n_max + 1)),
        "pairs_checked": pairs_checked,
        # The records' own field dicts: the encoder writes tuples as arrays,
        # and unlike dataclasses.asdict, vars copies nothing per record.
        "violations": [vars(v) for v in violations],
        "borderline": [vars(v) for v in borderline],
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


def _collision_rows(pairs: list[CollisionPair]) -> Iterator[list[Any]]:
    """CSV rows of the pairs, built lazily: only --format csv consumes them."""
    for c in pairs:
        gaps = ";".join(f"{name}={gap!r}" for name, gap in c.secondary_gaps)
        yield [
            c.kind, c.n_a, c.n_b, c.shared_value, c.code_a, c.code_b,
            gaps, c.cospectral, c.exact, c.candidate, c.label_a, c.label_b,
            _edges_csv(c.edges_a), _edges_csv(c.edges_b),
        ]


def _cmd_scan_caterpillar(args: argparse.Namespace):
    pairs = caterpillar_scan(
        scan_limit=args.limit,
        fixed_t=args.t,
        perfect_squares_only=args.perfect_squares_only,
        equal_order_only=args.equal_order_only,
        float_tol=args.float_tol,
    )
    payload = {"pairs": [_collision_dict(c) for c in pairs]}
    return _config(args), payload, _COLLISION_HEADER, _collision_rows(pairs)


def _cmd_scan_equal_wiener(args: argparse.Namespace):
    _check_order("n", args.n, MAX_EQUAL_WIENER_ORDER)
    pairs = find_equal_wiener_pairs(args.n)
    payload = {"n": args.n, "pairs": [_collision_dict(c) for c in pairs]}
    return _config(args), payload, _COLLISION_HEADER, _collision_rows(pairs)


def _cmd_scan_equienergetic(args: argparse.Namespace):
    _check_order("n_max", args.n_max, MAX_EQUIENERGETIC_ORDER)
    pairs = equienergetic_scan(args.n_min, args.n_max, args.energy_tol)
    payload = {"records": [_collision_dict(c) for c in pairs]}
    return _config(args), payload, _COLLISION_HEADER, _collision_rows(pairs)


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
    else:
        if args.n is None:
            raise ValueError("--theorem 3 requires --n")
        bound = theorem3_bound(args.n, args.sigma)
        config = {"theorem": 3, "n": args.n, "sigma": args.sigma}
        payload = {
            "theorem": 3,
            "n": args.n,
            "coefficient": WIENER_GAP_COEFF,
            "bound": bound,
            "asymptotic": True,
        }
    return config, payload, list(payload), [list(payload.values())]


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
    p.add_argument(
        "--all-integers",
        dest="perfect_squares_only",
        action="store_false",
        help="scan all integers, not just perfect squares",
    )
    p.add_argument(
        "--equal-order",
        dest="equal_order_only",
        action="store_true",
        help="require equal vertex counts across the pair",
    )
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


def _indented(value: Any, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at ``depth``.

    The encoder escapes newlines inside strings, so every newline in its
    output starts an indented line and takes the extra indentation.
    """
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _float_json(x: float) -> str:
    """``x`` as the stdlib encoder writes a float: its repr, or NaN / Infinity."""
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


class _Memo(dict):
    """JSON text per key, rendered by ``render(key)`` on the first lookup.

    A falsy key is rendered on every lookup: 0.0 and -0.0 are one key but
    render differently.
    """

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self.render(key)
        if key:
            self[key] = text
        return text


def _record_pieces(records: list[dict[str, Any]]) -> Iterator[str]:
    """A non-empty list of ViolationRecord field dicts as indented JSON, one piece per record.

    Byte for byte the stdlib encoder's output at ``RECORD_DEPTH``: the
    template is that encoder's rendering of a record whose fields are all
    placeholders.  Codes, index values, gaps and the per-order fields
    repeat across thousands of records, so each distinct value is rendered
    once.  A tree's code and index values are keyed together, so they are
    right even if a code were to recur with other values.
    """
    keys = sorted(f.name for f in dataclasses.fields(ViolationRecord))
    blank = _indented(dict.fromkeys(keys, "\0"), RECORD_DEPTH)
    template = blank.replace(json.dumps("\0"), "%s")
    trees = _Memo(lambda key: (_indented(key[0], RECORD_DEPTH + 1), _indented(key[1], RECORD_DEPTH + 1)))
    orders = _Memo(lambda key: tuple(_indented(v, RECORD_DEPTH + 1) for v in key))
    floats = _Memo(_float_json)
    indent = "\n" + "  " * RECORD_DEPTH
    separator = "[" + indent
    for r in records:
        code_a, values_a = trees[r["code_a"], r["values_a"]]
        code_b, values_b = trees[r["code_b"], r["values_b"]]
        conjecture, n, index_pair = orders[r["conjecture"], r["n"], r["index_pair"]]
        yield separator + template % (
            code_a, code_b, conjecture, floats[r["gap_a"]], floats[r["gap_b"]],
            index_pair, floats[r["margin"]], n, values_a, values_b,
        )
        separator = "," + indent
    yield "\n" + "  " * (RECORD_DEPTH - 1) + "]"


def _json_pieces(report: dict[str, Any]) -> Iterator[str]:
    """``report`` as indented JSON with sorted keys, in pieces.

    The stdlib encoder writes the report with each non-empty record list
    replaced by a placeholder string, which it yields as one chunk; the
    template writes the records in its place.  A report without records is
    the encoder's chunks alone.
    """
    payload = report["payload"]
    lists = {k: payload[k] for k in RECORD_LISTS if payload.get(k)}
    masked = {**report, "payload": {**payload, **{k: "\0" + k for k in lists}}}
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(masked)
    if not lists:
        return chunks
    spliced = {json.dumps("\0" + k): records for k, records in lists.items()}
    return itertools.chain.from_iterable(
        _record_pieces(spliced[chunk]) if chunk in spliced else (chunk,) for chunk in chunks
    )


def _emit(report: dict[str, Any], header: list[str], rows: Iterable[list[Any]], fmt: str, out) -> None:
    if fmt == "json":
        pieces = _json_pieces(report)
        while batch := "".join(itertools.islice(pieces, JSON_BLOCK_CHUNKS)):
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
    except (GraphError, ValueError, OverflowError, OSError) as exc:
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
