"""Golden reports: every subcommand's stdout, byte for byte, in JSON and CSV.

Each case runs ``treedist.cli.main`` in-process from ``tests/golden`` (so
the file names echoed in ``config`` are stable) and compares its stdout with
``tests/golden/<case>.<format>``.  Only the value of ``wall_time_s`` is
masked; every other byte, including float reprs and key order, must match.

The fixtures were recorded from the code before the spectral and
serialisation cleanup by running this module as a script from the root of
a checkout::

    PYTHONPATH=src python tests/test_golden.py

which rewrites every fixture.  Re-record only when a report is meant to
change, and say why in the change that does it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from treedist.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

WALL_TIME = re.compile(r'("wall_time_s": )[^,\n]+')

CASES = {
    "verify-c1-4-8": ["verify", "--conjecture", "1", "--n", "4", "--n-max", "8"],
    "verify-c2-4-10": ["verify", "--conjecture", "2", "--n", "4", "--n-max", "10"],
    "verify-c3-4-8": ["verify", "--conjecture", "3", "--n", "4", "--n-max", "8"],
    "verify-c1-7": ["verify", "--conjecture", "1", "--n", "7"],
    "scan-equienergetic-10": ["scan", "equienergetic", "--n-max", "10"],
    "scan-equal-wiener-9": ["scan", "equal-wiener", "--n", "9"],
    "scan-caterpillar-36": ["scan", "caterpillar", "--limit", "36"],
    "scan-caterpillar-30-all-equal": ["scan", "caterpillar", "--limit", "30", "--all-integers", "--equal-order"],
    "enumerate-7": ["enumerate", "--n", "7"],
    "enumerate-7-count": ["enumerate", "--n", "7", "--count-only"],
    "index-W": ["index", "tree9.edges", "--kind", "W"],
    "index-R": ["index", "tree9.edges", "--kind", "R"],
    "index-E": ["index", "tree9.edges", "--kind", "E"],
    "index-Ig": ["index", "tree9.edges", "--kind", "Ig"],
    "index-Ig-base2": ["index", "tree9.edges", "--kind", "Ig", "--log-base", "2"],
    "index-If": ["index", "tree9.edges", "--kind", "If"],
    "index-If-k2": ["index", "tree9.edges", "--kind", "If", "--k", "2", "--log-base", "10"],
    "index-E-c4": ["index", "c4.edges", "--kind", "E"],
    "index-Ig-c4": ["index", "c4.edges", "--kind", "Ig"],
    "distance-W": ["distance", "tree9.edges", "tree9b.edges", "--kind", "W", "--sigma", "3"],
    "distance-R": ["distance", "tree9.edges", "tree9b.edges", "--kind", "R"],
    "distance-E": ["distance", "tree9.edges", "tree9b.edges", "--kind", "E"],
    "distance-Ig": ["distance", "tree9.edges", "tree9b.edges", "--kind", "Ig", "--sigma", "0.01"],
    "distance-If": ["distance", "tree9.edges", "tree9b.edges", "--kind", "If", "--k", "3"],
    "distance-Ig-c4": ["distance", "c4.edges", "tree9.edges", "--kind", "Ig", "--log-base", "2"],
    "bounds-theorem1": ["bounds", "--theorem", "1", "--p-prime", "0.2,0.3,0.5", "--sigma", "2"],
    "bounds-theorem3": ["bounds", "--theorem", "3", "--n", "12", "--sigma", "50"],
}
FORMATS = ("json", "csv")

# Reports too large to keep whole: only the SHA-256 of each format's masked
# stdout is kept, in ``tests/golden/<case>.sha256`` as {format: digest}.
# The equienergetic scan to n = 12 holds 114 records, among them pairs of
# exactly equal energy whose order comes from the solver's rounding, so its
# digest pins every float bit of the spectra as well as the record order.
# It was recorded from the one-matrix-at-a-time Jacobi solver, before the
# stacked one replaced it.  The equal-Wiener scan at n = 12 (528 colliding
# trees, 3.1 MB of JSON) pins every bit of the secondary index gaps; it was
# recorded before one index table per order replaced the per-search code.
# The verify reports at n = 11..12 (2,517 / 672 / 4,662 violations and
# 7 / 10 / 4 borderline records for conjectures 1 / 2 / 3) pin every byte of
# the record lists; they were recorded from the stdlib indented encoder,
# before verify's records were written through a template.  The order-14
# enumeration (3,159 trees) pins the canonical code and the edge order of
# every tree; it was recorded before enumerated trees took their codes from
# the rooted-tree catalog.  The all-integer caterpillar scan to 50 (23
# pairs over 120,050 quadruples) pins which near-equal spine quadruples are
# paired and their record order; it was recorded before the three
# collision scans shared one pairing window.  The verify report for
# conjecture 1 at n = 14 (3,159 trees, 4,988,061 pairs, 38,749 violations
# and 87 borderline records) is the one case whose pair sweep spans many
# blocks; it was recorded from the one-row-per-tree sweep, before the pairs
# were swept in blocks and ordered by one sort.
DIGEST_CASES = {
    "enumerate-14": ["enumerate", "--n", "14"],
    "scan-caterpillar-all-50": ["scan", "caterpillar", "--all-integers", "--limit", "50"],
    "scan-equienergetic-4-12": ["scan", "equienergetic", "--n-min", "4", "--n-max", "12"],
    "scan-equal-wiener-12": ["scan", "equal-wiener", "--n", "12"],
    "verify-c1-11-12": ["verify", "--conjecture", "1", "--n", "11", "--n-max", "12"],
    "verify-c1-14": ["verify", "--conjecture", "1", "--n", "14"],
    "verify-c2-11-12": ["verify", "--conjecture", "2", "--n", "11", "--n-max", "12"],
    "verify-c3-11-12": ["verify", "--conjecture", "3", "--n", "11", "--n-max", "12"],
}


def run_masked(argv: list[str]) -> str:
    """Stdout of ``main(argv)`` run from the golden directory, wall time masked."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, argv
    return WALL_TIME.sub(r'\1"<masked>"', out.getvalue())


def masked_digests(argv: list[str]) -> dict[str, str]:
    """SHA-256 of the masked stdout of ``main(argv)`` in each format."""
    return {
        fmt: hashlib.sha256(run_masked(argv + ["--format", fmt]).encode("utf-8")).hexdigest()
        for fmt in FORMATS
    }


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert run_masked(CASES[case] + ["--format", fmt]) == expected


def _check_digest(case: str) -> None:
    expected = json.loads((GOLDEN / f"{case}.sha256").read_text(encoding="utf-8"))
    assert masked_digests(DIGEST_CASES[case]) == expected


def test_equienergetic_tie_order_digest():
    _check_digest("scan-equienergetic-4-12")


def test_equal_wiener_digest():
    _check_digest("scan-equal-wiener-12")


def test_caterpillar_pairing_digest():
    _check_digest("scan-caterpillar-all-50")


def test_enumerate_digest():
    _check_digest("enumerate-14")


@pytest.mark.parametrize("conjecture", [1, 2, 3])
def test_verify_digest(conjecture):
    _check_digest(f"verify-c{conjecture}-11-12")


def test_verify_multi_block_digest():
    _check_digest("verify-c1-14")


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            (GOLDEN / f"{case}.{fmt}").write_text(run_masked(argv + ["--format", fmt]), encoding="utf-8")
    for case, argv in sorted(DIGEST_CASES.items()):
        digests = json.dumps(masked_digests(argv), indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{case}.sha256").write_text(digests, encoding="utf-8")
