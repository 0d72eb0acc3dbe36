"""Output check: a command's payload against a summary recorded from a reference run.

A summary keeps enough to tell a right result from a wrong or empty one
without storing megabytes of reference output:

* ``digest``: SHA-256 over the payload's structure with every finite float
  replaced by a placeholder.  Codes, integers, booleans, strings, record
  keys, list lengths and record order must therefore match exactly.
* ``lists``: total element count per list path (the record counts), kept
  apart from the digest so that a mismatch names what changed.
* ``floats``: per path (dict keys from the root, list positions dropped),
  the count of floats and, for each block of ``BLOCK`` consecutive floats
  on that path, the plain sum, a position-weighted sum and the sum of
  ``max(|x|, 1)``.  A block passes when both sums are within ``FLOAT_TOL``
  times its scale sum of the reference, which every set of floats each
  within ``FLOAT_TOL * max(|x|, 1)`` of the reference does.  One float
  alone may thus be off by up to ``BLOCK * FLOAT_TOL`` relative to the
  largest magnitude in its block, whatever the record count; a wrong value,
  or two values swapped between records, moves a sum by more than that.
* ``samples``: up to ``SAMPLES`` evenly spaced records of each top-level
  payload list, compared element by element with the same tolerance.

The tolerance is relative for values of magnitude 1 or more and absolute
below that, because gaps such as equienergetic energy differences are
solver noise near 1e-15 and would flag any other eigensolver.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from typing import Any

FLOAT_TOL = 1e-9
SAMPLES = 16
BLOCK = 256


def parse_output(text: str, fmt: str) -> tuple[Any, int]:
    """The deterministic part of one command's standard output, and the
    number of characters of the output that vary from run to run.

    JSON reports yield ``{"subcommand": ..., "payload": ...}``; the wall
    time and configuration echo are left out, and the wall time's digits
    are the varying characters.  CSV yields its rows as dicts keyed by the
    header, and nothing in it varies.
    """
    if fmt == "csv":
        return {"rows": list(csv.DictReader(io.StringIO(text)))}, 0
    report = json.loads(text)
    varying = len(json.dumps(report["wall_time_s"]))
    return {"subcommand": report["subcommand"], "payload": report["payload"]}, varying


def summarise(result: Any) -> dict:
    digest = hashlib.sha256()
    tokens: list[str] = []
    lists: dict[str, int] = {}
    floats: dict[str, dict] = {}

    def walk(x: Any, path: str) -> None:
        if isinstance(x, float) and math.isfinite(x):
            stats = floats.setdefault(path, {"count": 0, "blocks": []})
            position = stats["count"] % BLOCK
            if position == 0:
                stats["blocks"].append([0.0, 0.0, 0.0])
            block = stats["blocks"][-1]
            block[0] += x
            block[1] += (1.0 + position / BLOCK) * x
            block[2] += max(abs(x), 1.0)
            stats["count"] += 1
            tokens.append("f")
        elif isinstance(x, dict):
            tokens.append("{")
            for key in sorted(x):
                tokens.append(repr(key))
                walk(x[key], f"{path}.{key}")
            tokens.append("}")
        elif isinstance(x, list):
            lists[path] = lists.get(path, 0) + len(x)
            tokens.append("[")
            inner = path + "[]"
            for item in x:
                walk(item, inner)
                if len(tokens) > 65536:
                    digest.update(("\x1f".join(tokens) + "\x1f").encode())
                    tokens.clear()
            tokens.append("]")
        else:
            tokens.append(repr(x))

    walk(result, "")
    digest.update(("\x1f".join(tokens) + "\x1f").encode())
    samples = {}
    for key, value in _top_lists(result):
        step = max(1, len(value) // SAMPLES)
        samples[key] = [[i, value[i]] for i in range(0, len(value), step)][:SAMPLES]
    return {
        "digest": digest.hexdigest(),
        "lists": lists,
        "floats": floats,
        "samples": samples,
    }


def _top_lists(result: Any):
    body = result.get("payload", result)
    if isinstance(body, dict):
        for key in sorted(body):
            if isinstance(body[key], list):
                yield key, body[key]


def compare(got: dict, ref: dict) -> list[str]:
    """Problems of summary ``got`` against reference ``ref``; empty when it passes."""
    problems = []
    if got["lists"] != ref["lists"]:
        problems.append(f"record counts {got['lists']} differ from reference {ref['lists']}")
    if got["digest"] != ref["digest"]:
        problems.append("codes, integers, booleans, strings or keys differ from reference")
    if set(got["floats"]) != set(ref["floats"]):
        problems.append(f"float fields {sorted(got['floats'])} differ from reference {sorted(ref['floats'])}")
    for path, ref_stats in ref["floats"].items():
        stats = got["floats"].get(path)
        if stats is None:
            continue
        if stats["count"] != ref_stats["count"]:
            problems.append(f"{path}: {stats['count']} floats, reference has {ref_stats['count']}")
            continue
        for at, (block, (total, weighted, scale)) in enumerate(zip(stats["blocks"], ref_stats["blocks"])):
            # Weights lie in [1, 2), so the weighted sum's tolerance is twice the plain one's.
            if abs(block[0] - total) > FLOAT_TOL * scale or abs(block[1] - weighted) > 2 * FLOAT_TOL * scale:
                first = at * BLOCK
                problems.append(f"{path}: float sums of floats {first}..{first + BLOCK - 1} beyond tolerance")
                break
    for key, ref_rows in ref["samples"].items():
        got_rows = got["samples"].get(key, [])
        if len(got_rows) != len(ref_rows):
            problems.append(f"{key}: {len(got_rows)} sampled records, reference has {len(ref_rows)}")
            continue
        for (i, got_row), (j, ref_row) in zip(got_rows, ref_rows):
            if i != j or not close(got_row, ref_row):
                problems.append(f"{key}[{j}]: {got_row!r} differs from reference {ref_row!r}")
                break
    return problems


def close(a: Any, b: Any) -> bool:
    """Structural equality with floats compared to ``FLOAT_TOL * max(|x|, 1)``."""
    if isinstance(a, float) and isinstance(b, float):
        if not (math.isfinite(a) and math.isfinite(b)):
            return repr(a) == repr(b)
        return abs(a - b) <= FLOAT_TOL * max(abs(a), abs(b), 1.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def corruptions(result: Any, pick: int):
    """Corrupt ``result`` in place one way at a time, yielding a label for each.

    First one hex digit of one tree code changes, then one record is
    dropped; each corruption is undone when the generator resumes.
    ``pick`` chooses the code and the record.
    """
    records = [(key, value) for key, value in _top_lists(result) if value and isinstance(value[0], dict)]
    if not records:
        raise ValueError("output has no records to corrupt")
    key, rows = records[pick % len(records)]
    at = pick % len(rows)
    row = rows[at]
    field = next(name for name in sorted(row) if name.startswith("code"))
    original = row[field]
    digit = pick % len(original)
    row[field] = original[:digit] + ("1" if original[digit] == "0" else "0") + original[digit + 1 :]
    yield f"{key}[{at}].{field} changed"
    row[field] = original
    dropped = rows.pop(at)
    yield f"{key}[{at}] dropped"
    rows.insert(at, dropped)
