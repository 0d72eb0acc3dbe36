"""CLI subcommands, report schema, determinism, and exit codes."""

from __future__ import annotations

import io
import json
import math

import pytest

from treedist import Tree, cli, from_edge_list
from treedist.cli import _emit, build_parser, main

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
        tree = Tree(from_edge_list(5, [tuple(e) for e in entry["edges"]]))
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
        (["index", "{p4}", "--kind", "Ig", "--log-base", "inf"], "log base"),
        (["bounds", "--theorem", "1", "--p-prime", "0.5,0.5", "--log-base", "inf"], "log base"),
    ],
    ids=["verify-float-tol-nan", "verify-float-tol-inf", "equienergetic-energy-tol-nan",
         "index-log-base-inf", "bounds-log-base-inf"],
)
def test_non_finite_inputs_exit_1(capsys, p4_file, argv, message):
    code, out, err = run_cli(capsys, [arg.format(p4=p4_file) for arg in argv])
    assert code == 1
    assert out == ""
    assert "error:" in err and message in err


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


@pytest.mark.parametrize("block", [cli.JSON_BLOCK_CHUNKS, 64])
def test_emit_json_writes_in_blocks(monkeypatch, block):
    monkeypatch.setattr(cli, "JSON_BLOCK_CHUNKS", block)
    report, header, rows = _report(["verify", "--conjecture", "3", "--n", "10"])
    tokens = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(report))
    out = CountingStream()
    _emit(report, header, rows, "json", out)
    assert out.writes <= math.ceil(tokens / block) + 1
    assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
