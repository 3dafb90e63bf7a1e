import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlocc import cli, protocol_from_json
from qlocc.cli import build_parser, main
from qlocc.protocols import LeafTable
from qlocc.secretshare import WEAK_BASIS_WARNING

PI_4_TEXT = "0.78539816339744831"
DATA = Path(__file__).resolve().parent / "data"

# report.v1 and shares.v1 bytes, run in DATA, where the basis.v1 inputs are
GOLDEN_OUTPUTS = {
    "analyze_family_a.report.json": [
        "analyze", "--family", "A", "--alpha", "0.3", "--beta", "0.9", "--gamma", "0.7853981634"],
    "analyze_theta.report.json": ["analyze", "--family", "theta", "--theta", "0.6"],
    "analyze_elimination.report.json": ["analyze", "--basis-file", "elimination.basis.json"],
    "encode_three_copy.shares.json": [
        "secret-share", "encode", "--basis-file", "three_copy.basis.json", "--message", "2"],
    "encode_weak.shares.json": [
        "secret-share", "encode", "--basis-file", "weak.basis.json", "--message", "1"],
    "strong_pair_pass.shares.json": [
        "secret-share", "strong-pair", "--basis-file", "three_copy.basis.json",
        "--i", "0", "--j", "2", "--lambda", "0.3", "--mu", "0.7"],
    "strong_pair_fail.shares.json": [
        "secret-share", "strong-pair", "--basis-file", "weak.basis.json", "--i", "0", "--j", "1"],
    "decode_three_copy.shares.json": [
        "secret-share", "decode", "--shares-file", "encode_three_copy.shares.json"],
    "decode_weak.shares.json": [
        "secret-share", "decode", "--shares-file", "encode_weak.shares.json"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_family_a(capsys):
    code, out = run_cli(
        capsys, "analyze", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["min_copies_locc"] == 3
    assert doc["min_copies_sep"] == 2
    assert doc["region"]["name"] == "R_I"


def test_analyze_family_theta_zero(capsys):
    code, out = run_cli(capsys, "analyze", "--family", "theta", "--theta", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_copies_locc"] == 1
    assert doc["entangled_count"] == 0


def test_analyze_degrees_flag(capsys):
    code, out = run_cli(
        capsys, "analyze", "--family", "theta", "--theta", "45", "--degrees"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["min_copies_locc"] == 2
    assert all(abs(c - 1.0) < 1e-9 for c in doc["concurrences"])


def test_analyze_missing_file_exits_2(capsys):
    code = main(["analyze", "--basis-file", "/does/not/exist.json"])
    assert code == 2


def test_analyze_invalid_basis_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": "basis.v1",
        "label": "broken",
        "states": [[[1, 0], [0, 0], [0, 0], [0, 0]]] * 4,
    }))
    code = main(["analyze", "--basis-file", str(bad)])
    assert code == 2


def test_analyze_basis_file_roundtrip(tmp_path, capsys):
    from qlocc import basis_to_json, theta_basis

    path = tmp_path / "basis.json"
    path.write_text(basis_to_json(theta_basis(0.7)))
    code, out = run_cli(capsys, "analyze", "--basis-file", str(path))
    assert code == 0
    assert json.loads(out)["min_copies_locc"] == 2


def _parse_scan(out):
    lines = out.strip().split("\n")
    assert lines[0].startswith("# scan.v1 columns:")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


def test_scan_single_point_matches_analyze(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
    )
    assert code == 0
    _, rows = _parse_scan(out)
    assert len(rows) == 1
    row = rows[0]
    code, out = run_cli(
        capsys, "analyze", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
    )
    doc = json.loads(out)
    assert int(row["min_copies_locc"]) == doc["min_copies_locc"]
    assert int(row["min_copies_sep"]) == doc["min_copies_sep"]
    assert row["region"] == "R_I"
    for k in range(4):
        assert abs(float(row[f"c{k + 1}"]) - doc["concurrences"][k]) < 1e-11
    certs = {tuple(c["pair"]): c["min_pt_eigenvalue"] for c in doc["certificates"]}
    assert abs(float(row["min_pt_01"]) - certs[(0, 1)]) < 1e-11


def test_scan_grid_sign_structure(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", "A",
        "--alpha", "0.05:1.52:20", "--beta", "0.05:1.52:20", "--gamma", PI_4_TEXT,
    )
    assert code == 0
    _, rows = _parse_scan(out)
    assert len(rows) == 400
    for row in rows:
        al, be = float(row["alpha"]), float(row["beta"])
        if abs(math.cos(4 * al) - math.cos(4 * be)) < 0.05:
            continue
        assert float(row["e1_p12"]) * float(row["e3_p12"]) < 0


def test_scan_csv_bit_stable(capsys):
    args = ("scan", "--family", "theta", "--theta", "0:1.5:19")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_scan_column_selection(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
        "--columns", "alpha,region,min_copies_locc",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "alpha,region,min_copies_locc"
    assert lines[2] == "0.3,R_I,3"


def test_scan_rejects_single_step_range(capsys):
    code = main(["scan", "--family", "theta", "--theta", "0:1.5:1"])
    assert code == 2


def test_scan_rejects_out_of_range(capsys):
    code = main(["scan", "--family", "theta", "--theta", "0:3.2:10"])
    assert code == 2


def test_scan_boundary_region_label(capsys):
    import qlocc

    gs = qlocc.gamma_star(0.4, 0.8)
    code, out = run_cli(
        capsys, "scan", "--family", "A",
        "--alpha", "0.4", "--beta", "0.8", "--gamma", f"{gs:.17g}",
    )
    assert code == 0
    _, rows = _parse_scan(out)
    assert rows[0]["region"] == "boundary:a4"


def test_scan_degenerate_region_cells(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", "A",
        "--alpha", "0", "--beta", "0.9", "--gamma", PI_4_TEXT,
    )
    assert code == 0
    _, rows = _parse_scan(out)
    assert rows[0]["region"] == "degenerate"


def test_simulate_reproducible_and_exact(capsys, tmp_path):
    proto = tmp_path / "tree.json"
    args = (
        "simulate", "--protocol", "tournament", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
        "--runs", "200", "--seed", "7", "--protocol-out", str(proto),
    )
    code, first = run_cli(capsys, *args)
    assert code == 0
    _, second = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert abs(doc["exact_success_probability"] - 1.0) < 1e-9
    assert doc["empirical_success_rate"] == 1.0
    assert doc["successes"] == 200
    tree = protocol_from_json(proto.read_text())
    assert tree.copies == 3


def test_simulate_bell_grouping(capsys):
    code, out = run_cli(
        capsys, "simulate", "--protocol", "bell-grouping",
        "--family", "theta", "--theta", "0.6", "--runs", "100", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["exact_success_probability"] - 1.0) < 1e-9
    assert doc["copies"] == 2


def test_simulate_rejects_bell_grouping_without_theta(capsys):
    code = main([
        "simulate", "--protocol", "bell-grouping",
        "--family", "A", "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
    ])
    assert code == 2


def test_simulate_rejects_zero_runs(capsys):
    code = main([
        "simulate", "--protocol", "tournament", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT, "--runs", "0",
    ])
    assert code == 2
    assert "--runs must be positive" in capsys.readouterr().err


def test_simulate_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("NONLOCAL_SEED", "42")
    args = ("simulate", "--protocol", "bell-grouping",
            "--family", "theta", "--theta", "0.6", "--runs", "50")
    _, from_env = run_cli(capsys, *args)
    monkeypatch.delenv("NONLOCAL_SEED")
    _, explicit = run_cli(capsys, *args, "--seed", "42")
    assert json.loads(from_env) == json.loads(explicit)
    assert json.loads(from_env)["seed"] == 42


def test_bad_env_seed_only_fails_simulate(capsys, monkeypatch):
    monkeypatch.setenv("NONLOCAL_SEED", "abc")
    code, _ = run_cli(capsys, "analyze", "--family", "theta", "--theta", "0.4")
    assert code == 0
    code = main(["simulate", "--protocol", "bell-grouping",
                 "--family", "theta", "--theta", "0.6", "--runs", "5"])
    assert code == 2
    assert "NONLOCAL_SEED" in capsys.readouterr().err


def test_simulate_rejects_negative_seed(capsys):
    code = main([
        "simulate", "--protocol", "tournament", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT, "--seed", "-2",
    ])
    assert code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2**70, 2**64 - 1])
def test_simulate_accepts_seeds_beyond_64_bits(capsys, seed):
    # 2**64 - 1 wraps to 0 after the first run
    args = ("simulate", "--protocol", "tournament", "--family", "A",
            "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
            "--runs", "8", "--seed", str(seed))
    code, first = run_cli(capsys, *args)
    assert code == 0
    _, second = run_cli(capsys, *args)
    assert first == second
    assert json.loads(first)["seed"] == seed


def test_parser_built_once_and_carries_no_state(capsys, monkeypatch):
    monkeypatch.delenv("NONLOCAL_SEED", raising=False)
    build_parser.cache_clear()
    args = ("simulate", "--protocol", "bell-grouping",
            "--family", "theta", "--theta", "0.6", "--runs", "20")
    _, seeded = run_cli(capsys, *args, "--seed", "7")
    _, default = run_cli(capsys, *args)
    _, analyzed = run_cli(capsys, "analyze", "--family", "theta", "--theta", "0.6")
    assert json.loads(seeded)["seed"] == 7
    assert json.loads(default)["seed"] == 0
    assert json.loads(analyzed)["min_copies_locc"] == 2
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("protocol", [
    ("--protocol", "tournament", "--family", "A",
     "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT),
    ("--protocol", "bell-grouping", "--family", "theta", "--theta", "0.6"),
])
def test_simulate_computes_leaf_probabilities_once(capsys, monkeypatch, protocol):
    # exact evaluation and sampling share the (4, L) matrix of the four basis kets
    shapes = []
    probabilities = LeafTable.probabilities

    def counted(self, kets):
        shapes.append(kets.shape)
        return probabilities(self, kets)

    monkeypatch.setattr(LeafTable, "probabilities", counted)
    code, _ = run_cli(capsys, "simulate", *protocol, "--runs", "50", "--seed", "3")
    assert code == 0
    assert shapes == [(4, 4)]


def test_secret_share_roundtrip_cli(capsys, tmp_path):
    for m in range(4):
        code, out = run_cli(
            capsys, "secret-share", "encode", "--family", "A",
            "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
            "--message", str(m),
        )
        assert code == 0
        shares = tmp_path / f"shares{m}.json"
        shares.write_text(out)
        code, out = run_cli(capsys, "secret-share", "decode",
                            "--shares-file", str(shares))
        assert code == 0
        doc = json.loads(out)
        assert doc["decoded_message"] == m
        assert doc["matches_encoded"] is True


def test_secret_share_strong_pair_pass_and_fail(capsys):
    code, out = run_cli(
        capsys, "secret-share", "strong-pair", "--family", "A",
        "--alpha", "0.3", "--beta", "0.9", "--gamma", PI_4_TEXT,
        "--i", "0", "--j", "2", "--lambda", "0.5", "--mu", "0.5",
    )
    assert code == 0
    assert json.loads(out)["security"] == "PASS"
    code, out = run_cli(
        capsys, "secret-share", "strong-pair", "--family", "theta",
        "--theta", PI_4_TEXT, "--i", "0", "--j", "1",
    )
    assert code == 0
    assert json.loads(out)["security"] == "FAIL"


@pytest.mark.parametrize("i, j", [("0", "7"), ("-1", "2"), ("2", "2")])
def test_secret_share_strong_pair_rejects_bad_indices(capsys, i, j):
    code = main([
        "secret-share", "strong-pair", "--family", "theta", "--theta", "0.4",
        "--i", i, "--j", j,
    ])
    assert code == 2
    assert f"got {i} and {j}" in capsys.readouterr().err


def test_secret_share_encode_rejects_bad_message(capsys):
    code = main([
        "secret-share", "encode", "--family", "theta", "--theta", "0.4",
        "--message", "7",
    ])
    assert code == 2


def test_scan_output_file(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    code, out = run_cli(
        capsys, "scan", "--family", "theta", "--theta", "0:1.5:5",
        "-o", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# scan.v1 columns:")
    assert len(text.strip().split("\n")) == 7


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_report_and_shares_reproduce_golden_bytes(capsys, monkeypatch, name):
    monkeypatch.chdir(DATA)
    code, out = run_cli(capsys, *GOLDEN_OUTPUTS[name])
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")


def test_golden_inputs_cover_the_verdicts_they_pin():
    docs = {name: json.loads((DATA / name).read_text(encoding="utf-8"))
            for name in GOLDEN_OUTPUTS}
    elimination = docs["analyze_elimination.report.json"]
    assert elimination["locc_category"]["kind"] == "two_copy_elimination"
    assert elimination["assumptions"] != []
    assert docs["encode_three_copy.shares.json"]["security_warning"] is None
    assert docs["encode_weak.shares.json"]["security_warning"] is not None
    assert docs["strong_pair_pass.shares.json"]["security"] == "PASS"
    assert docs["strong_pair_fail.shares.json"]["security"] == "FAIL"


def test_encode_prints_one_warning_line_per_weak_basis(capsys, monkeypatch):
    # no UserWarning escapes: uncaught, it prints the source path and line of
    # its caller, and only on its first occurrence in a process
    monkeypatch.chdir(DATA)
    weak = ["secret-share", "encode", "--basis-file", "weak.basis.json", "--message", "1"]
    strong = ["secret-share", "encode", "--basis-file", "three_copy.basis.json", "--message", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv, err in [(weak, f"warning: {WEAK_BASIS_WARNING}\n")] * 2 + [(strong, "")]:
            assert main(argv) == 0
            assert capsys.readouterr().err == err
    assert caught == []


@pytest.mark.parametrize("argv, message", [
    (["scan", "--family", "theta", "--theta", "0:1"], "range must be min:max:steps, got '0:1'"),
    (["analyze", "--family", "A", "--alpha", "0.3", "--beta", "0.9"],
     "family A needs --alpha, --beta and --gamma"),
    (["analyze", "--family", "theta"], "family theta needs --theta"),
    (["analyze"], "specify --family {A,theta} or --basis-file"),
    (["scan"], "specify --family {A,theta}"),
], ids=["two-part-range", "A-without-gamma", "theta-without-theta", "analyze-without-family",
        "scan-without-family"])
def test_usage_errors_exit_2_naming_the_fault(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_numerical_failure_exits_3(capsys, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(cli, "analyze", singular)
    assert main(["analyze", "--family", "theta", "--theta", "0.4"]) == 3
    assert capsys.readouterr() == ("", "numerical failure: singular matrix\n")


def test_a_key_error_is_not_reported_as_a_usage_error(capsys, monkeypatch):
    # no boundary raises KeyError, so one is a fault of the program
    def buggy(*args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "analyze", buggy)
    with pytest.raises(KeyError):
        main(["analyze", "--family", "theta", "--theta", "0.4"])
    assert capsys.readouterr() == ("", "")


def _probe():
    warnings.warn("registry probe", UserWarning)


def test_encode_leaves_the_warning_registry_alone(capsys, monkeypatch):
    # a warning the default filter has shown once stays shown once in a
    # process that encodes share sets between its occurrences
    monkeypatch.chdir(DATA)
    shown = []
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *rest: shown.append(str(message))
        _probe()
        _probe()
        for name in ("three_copy.basis.json", "weak.basis.json"):
            assert main(["secret-share", "encode", "--basis-file", name, "--message", "1"]) == 0
        _probe()
    assert shown == ["registry probe"]
