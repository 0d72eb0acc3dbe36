"""CLI subcommands, report schema, determinism, and exit codes."""

from __future__ import annotations

import io
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedist import Tree, cli, from_edge_list, search
from treedist.cli import _emit, build_parser, main
from treedist.measures import MAX_THEOREM3_ORDER
from treedist.search import ViolationRecord

P4 = "4 3\n0 1\n1 2\n2 3\n"
K13 = "4 3\n0 1\n0 2\n0 3\n"
STAR5 = "6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text(P4)
    return str(path)


@pytest.fixture
def k13_file(tmp_path):
    path = tmp_path / "k13.edges"
    path.write_text(K13)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["tool"] == "treedist"
    return report


def test_index_wiener(capsys, p4_file):
    report = run_json(capsys, ["index", p4_file, "--kind", "W"])
    assert report["payload"]["value"] == 10
    assert report["subcommand"] == "index"
    assert report["config"]["kind"] == "W"


def test_index_ig_base2(capsys, tmp_path):
    path = tmp_path / "star.edges"
    path.write_text(STAR5)
    report = run_json(capsys, ["index", str(path), "--kind", "Ig", "--log-base", "2"])
    assert report["payload"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_index_ifk(capsys, p4_file):
    report = run_json(capsys, ["index", p4_file, "--kind", "If", "--k", "2"])
    expected = math.log(10) - (8 * 2 * math.log(2)) / 10
    assert report["payload"]["value"] == pytest.approx(expected, abs=1e-12)


def test_distance_wiener(capsys, p4_file, k13_file):
    report = run_json(capsys, ["distance", p4_file, k13_file, "--kind", "W", "--sigma", "2"])
    payload = report["payload"]
    assert payload["gap"] == 1.0
    assert payload["distance"] == pytest.approx(1 - math.exp(-0.25), abs=1e-12)


def test_enumerate_round_trip(capsys):
    report = run_json(capsys, ["enumerate", "--n", "5"])
    payload = report["payload"]
    assert payload["count"] == 3
    codes = set()
    for entry in payload["trees"]:
        g = from_edge_list(5, [tuple(e) for e in entry["edges"]])
        tree = Tree(g.n, g.edges)
        assert tree.code_hex == entry["code"]
        codes.add(entry["code"])
    assert len(codes) == 3


def test_enumerate_count_only(capsys):
    report = run_json(capsys, ["enumerate", "--n", "10", "--count-only"])
    assert report["payload"] == {"count": 106, "n": 10}


def test_verify_clean_at_n4(capsys):
    report = run_json(capsys, ["verify", "--conjecture", "1", "--n", "4"])
    payload = report["payload"]
    assert payload["violations"] == []
    assert payload["pairs_checked"] == 1


def test_verify_finds_violations_but_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--conjecture", "1", "--n", "7"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["violations"]) == 2
    assert payload["violations"][0]["gap_a"] == 0.0


def test_verify_order_range(capsys):
    report = run_json(capsys, ["verify", "--conjecture", "3", "--n", "4", "--n-max", "6"])
    assert report["payload"]["orders"] == [4, 5, 6]
    assert report["payload"]["pairs_checked"] == 1 + 3 + 15


def test_scan_caterpillar_contains_reference_pair(capsys):
    report = run_json(capsys, ["scan", "caterpillar", "--limit", "64", "--t", "4"])
    assert report["subcommand"] == "scan caterpillar"
    labels = {(p["label_a"], p["label_b"]) for p in report["payload"]["pairs"]}
    assert ("C(4, 16, 4, 4)", "C(9, 4, 9, 4)") in labels
    assert ("C(36, 36, 4, 4)", "C(64, 9, 9, 4)") in labels


def test_scan_equal_wiener(capsys):
    report = run_json(capsys, ["scan", "equal-wiener", "--n", "7"])
    pairs = report["payload"]["pairs"]
    assert sorted(p["shared_value"] for p in pairs) == [46.0, 48.0]


def test_scan_equienergetic(capsys):
    report = run_json(capsys, ["scan", "equienergetic", "--n-min", "8", "--n-max", "8"])
    records = report["payload"]["records"]
    assert len(records) == 1
    assert records[0]["cospectral"] is True


def test_bounds_theorem1(capsys):
    report = run_json(capsys, ["bounds", "--theorem", "1", "--p-prime", "0.5,0.5"])
    expected = math.log(3) + 2 * math.log(1.5)
    assert report["payload"]["a_value"] == pytest.approx(expected, abs=1e-9)
    assert report["payload"]["bound"] == pytest.approx(1 - math.exp(-expected**2), abs=1e-12)


def test_bounds_theorem3(capsys):
    report = run_json(capsys, ["bounds", "--theorem", "3", "--n", "10", "--sigma", "100"])
    payload = report["payload"]
    assert payload["asymptotic"] is True
    assert payload["coefficient"] == pytest.approx((math.sqrt(2) - 1) / 6, abs=1e-12)


def test_json_payload_determinism(capsys):
    first = run_json(capsys, ["verify", "--conjecture", "1", "--n", "7"])
    second = run_json(capsys, ["verify", "--conjecture", "1", "--n", "7"])
    blob_a = json.dumps(first["payload"], sort_keys=True).encode()
    blob_b = json.dumps(second["payload"], sort_keys=True).encode()
    assert blob_a == blob_b
    assert first["config"] == second["config"]


def test_csv_determinism_and_header(capsys):
    code, out_a, _ = run_cli(capsys, ["scan", "equal-wiener", "--n", "7", "--format", "csv"])
    assert code == 0
    code, out_b, _ = run_cli(capsys, ["scan", "equal-wiener", "--n", "7", "--format", "csv"])
    assert code == 0
    assert out_a == out_b
    header = out_a.splitlines()[0]
    assert header.startswith("kind,n_a,n_b,shared_value,code_a,code_b")
    assert len(out_a.splitlines()) == 3  # header + two pairs


def test_enumerate_count_only_does_not_enumerate(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("--count-only enumerated the trees")

    monkeypatch.setattr(cli, "enumerate_trees", refuse)
    report = run_json(capsys, ["enumerate", "--n", "16", "--count-only"])
    assert report["payload"] == {"count": 19320, "n": 16}


def test_enumerate_count_only_rejects_order_0(capsys):
    code, out, err = run_cli(capsys, ["enumerate", "--n", "0", "--count-only"])
    assert code == 1
    assert out == ""
    assert err == "error: tree order must be >= 1, got 0\n"


def test_csv_single_row_commands(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--n", "6", "--count-only", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,count", "6,6"]


def test_exit_code_on_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["index", str(tmp_path / "nope.edges"), "--kind", "W"])
    assert code == 1
    assert "error:" in err


def test_exit_code_on_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n1 1\n")
    code, _, err = run_cli(capsys, ["index", str(bad), "--kind", "W"])
    assert code == 1
    assert "loop" in err


def test_exit_code_on_usage_error(capsys, p4_file):
    assert run_cli(capsys, ["index", p4_file])[0] == 2  # missing --kind
    assert run_cli(capsys, ["frobnicate"])[0] == 2
    assert run_cli(capsys, ["index", p4_file, "--kind", "Q"])[0] == 2


def test_bounds_usage_validation(capsys):
    code, _, err = run_cli(capsys, ["bounds", "--theorem", "1"])
    assert code == 1
    assert "p-prime" in err


def test_disconnected_input_is_input_error(capsys, tmp_path):
    path = tmp_path / "forest.edges"
    path.write_text("4 2\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, ["index", str(path), "--kind", "W"])
    assert code == 1
    assert "connected" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--conjecture", "1", "--n", "7", "--float-tol", "nan"], "float_tol"),
        (["verify", "--conjecture", "1", "--n", "7", "--float-tol", "inf"], "float_tol"),
        (["scan", "equienergetic", "--n-max", "6", "--energy-tol", "nan"], "energy_tol"),
        (["scan", "caterpillar", "--float-tol", "nan"], "float_tol"),
        (["index", "{p4}", "--kind", "Ig", "--log-base", "inf"], "log base"),
        (["bounds", "--theorem", "1", "--p-prime", "0.5,0.5", "--log-base", "inf"], "log base"),
        (["bounds", "--theorem", "1", "--p-prime", "nan,1"], "probability entries must be finite"),
    ],
    ids=["verify-float-tol-nan", "verify-float-tol-inf", "equienergetic-energy-tol-nan",
         "caterpillar-float-tol-nan", "index-log-base-inf", "bounds-log-base-inf", "bounds-p-prime-nan"],
)
def test_non_finite_inputs_exit_1(capsys, p4_file, argv, message):
    code, out, err = run_cli(capsys, [arg.format(p4=p4_file) for arg in argv])
    assert code == 1
    assert out == ""
    assert "error:" in err and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--conjecture", "1", "--n", "5", "--n-max", "4"], "n_min 5 exceeds n_max 4"),
        (["scan", "equienergetic", "--n-min", "9", "--n-max", "8"], "n_min 9 exceeds n_max 8"),
        (["scan", "caterpillar", "--limit", "0"], "scan_limit must be >= 1, got 0"),
        (["scan", "caterpillar", "--t", "1"], "fixed_t must be >= 2, got 1"),
        (["scan", "equienergetic", "--n-min", "1", "--n-max", "3"], "n_min must be >= 2, got 1"),
        (["scan", "equal-wiener", "--n", "1"], "n must be >= 2, got 1"),
        (
            ["bounds", "--theorem", "3", "--n", "1" + "0" * 400],
            f"order must be <= {MAX_THEOREM3_ORDER}, got 1" + "0" * 400,
        ),
        (["scan", "caterpillar", "--t", "1" + "0" * 400], "fixed_t must be <= scan_limit 100, got 1" + "0" * 400),
        (["scan", "caterpillar", "--limit", "9", "--t", "10"], "fixed_t must be <= scan_limit 9, got 10"),
        (["scan", "caterpillar", "--limit", "10609"], "scan_limit must be <= 10608, got 10609"),
        (["scan", "caterpillar", "--limit", "103", "--all-integers"], "scan_limit must be <= 102, got 103"),
        (["scan", "caterpillar", "--limit", "1" + "0" * 400], "scan_limit must be <= 10608, got 1" + "0" * 400),
        (["enumerate", "--n", "20"], "n must be <= 19, got 20"),
        (["verify", "--conjecture", "1", "--n", "16"], "n must be <= 15, got 16"),
        (["verify", "--conjecture", "3", "--n", "4", "--n-max", "16"], "n_max must be <= 15, got 16"),
        (["scan", "equal-wiener", "--n", "15"], "n must be <= 14, got 15"),
        (["scan", "equienergetic", "--n-max", "18"], "n_max must be <= 17, got 18"),
    ],
    ids=["verify-n-above-n-max", "equienergetic-n-min-above-n-max", "caterpillar-limit-0", "caterpillar-t-1",
         "equienergetic-n-min-1", "equal-wiener-n-1", "bounds-theorem3-n-overflow", "caterpillar-t-overflow",
         "caterpillar-t-above-limit", "caterpillar-limit-above-max", "caterpillar-all-integers-limit-above-max",
         "caterpillar-limit-overflow", "enumerate-n-above-max", "verify-n-above-max", "verify-n-max-above-max",
         "equal-wiener-n-above-max", "equienergetic-n-max-above-max"],
)
def test_out_of_range_parameters_exit_1(capsys, monkeypatch, argv, message):
    # Each is refused before any work: no tree is enumerated, and a whole run takes well under a second.
    def refuse(n):
        raise AssertionError(f"enumerated the trees of order {n}")

    monkeypatch.setattr(cli, "enumerate_trees", refuse)
    monkeypatch.setattr(search, "enumerate_trees", refuse)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_csv_rows(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--conjecture", "1", "--n", "7", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("conjecture,n,code_a,code_b")
    assert len(lines) == 3  # header + the two equal-Wiener violations


def _report(argv):
    """The report dict that ``main`` would emit for ``argv``, with its CSV parts."""
    args = build_parser().parse_args(argv)
    config, payload, header, rows = args.handler(args)
    report = {"config": config, "payload": payload, "schema": 1, "wall_time_s": 0.125}
    return report, header, rows


class CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [["verify", "--conjecture", "3", "--n", "8"], ["scan", "equal-wiener", "--n", "8"]],
    ids=["verify", "collision"],
)
def test_emit_json_golden_bytes(argv):
    report, header, rows = _report(argv)
    out = io.StringIO()
    _emit(report, header, rows, "json", out)
    assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("block", [cli.JSON_BLOCK_CHUNKS, 65536, 64])
def test_emit_json_writes_in_blocks(monkeypatch, block):
    monkeypatch.setattr(cli, "JSON_BLOCK_CHUNKS", block)
    report, header, rows = _report(["verify", "--conjecture", "3", "--n", "10"])
    tokens = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(report))
    out = CountingStream()
    _emit(report, header, rows, "json", out)
    assert out.writes <= math.ceil(tokens / block) + 1
    assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _stdlib_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emitted_json(report):
    out = io.StringIO()
    _emit(report, [], [], "json", out)
    return out.getvalue()


def _verify_report(violations, borderline):
    """A verify report holding the given record field dicts."""
    payload = {
        "borderline": borderline, "conjecture": 1, "orders": [7], "pairs_checked": 11,
        "violations": violations,
    }
    return {"config": {"n": 7}, "payload": payload, "schema": 1, "wall_time_s": 0.125}


def _record(trees, i, j, gap_a, gap_b, margin):
    """The record of trees ``i`` and ``j`` of ``trees``, a list of (code, values)."""
    (code_a, values_a), (code_b, values_b) = trees[i], trees[j]
    return vars(ViolationRecord(
        conjecture=1, n=7, code_a=code_a, code_b=code_b, index_pair=("W", "R"),
        values_a=values_a, values_b=values_b, gap_a=gap_a, gap_b=gap_b, margin=margin,
    ))


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 2.5]


def test_emit_verify_edge_values_match_stdlib():
    # Codes with a quote, a percent sign, a backslash and non-ASCII text,
    # and both zeros in every float field of one report.
    trees = [(f'{i}"%s\\é', (x, EDGE_FLOATS[-1 - i])) for i, x in enumerate(EDGE_FLOATS)]
    records = [
        _record(trees, i, j, EDGE_FLOATS[j], EDGE_FLOATS[i], EDGE_FLOATS[(i + j) % len(EDGE_FLOATS)])
        for i in range(len(trees)) for j in range(len(trees))
    ]
    for violations, borderline in [(records, records[:5]), (records, []), ([], records), ([], [])]:
        report = _verify_report(violations, borderline)
        assert _emitted_json(report) == _stdlib_json(report)


tree_values = st.tuples(st.floats(), st.floats())
record_draws = st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.floats(), st.floats(), st.floats(), st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(tree_values, min_size=6, max_size=6), st.lists(record_draws, max_size=12))
def test_emit_verify_random_floats_match_stdlib(values, draws):
    trees = [(f"{i:02x}", v) for i, v in enumerate(values)]
    violations, borderline = [], []
    for i, j, gap_a, gap_b, margin, decisive in draws:
        (violations if decisive else borderline).append(_record(trees, i, j, gap_a, gap_b, margin))
    report = _verify_report(violations, borderline)
    assert _emitted_json(report) == _stdlib_json(report)


def test_verify_nan_gaps_match_stdlib(capsys, monkeypatch):
    index_values = search._index_values

    def with_nan(trees, kinds):
        values = index_values(trees, kinds)
        first = values[kinds[0]]
        return {**values, kinds[0]: [math.nan] + first[1:]}

    monkeypatch.setattr(search, "_index_values", with_nan)
    code, out, _ = run_cli(capsys, ["verify", "--conjecture", "3", "--n", "7"])
    assert code == 0
    report = json.loads(out)
    assert sum(math.isnan(r["gap_a"]) for r in report["payload"]["borderline"]) == 10
    assert out == _stdlib_json(report)


class RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return super().write(text)


def test_emit_verify_writes_at_most_one_block(monkeypatch):
    block = 4
    monkeypatch.setattr(cli, "JSON_BLOCK_CHUNKS", block)
    report, header, rows = _report(["verify", "--conjecture", "3", "--n", "10"])
    records = report["payload"]["violations"] + report["payload"]["borderline"]
    assert len(records) > 20 * block
    # A record in its list: separator, then the dict indented at depth 3.
    longest = max(len(",\n      " + json.dumps(r, indent=2).replace("\n", "\n      ")) for r in records)
    out = RecordingStream()
    _emit(report, header, rows, "json", out)
    assert out.getvalue() == _stdlib_json(report)
    assert max(len(text) for text in out.texts) <= block * longest
    assert max(text.count('"margin": ') for text in out.texts) <= block
