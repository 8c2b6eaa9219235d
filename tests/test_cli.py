"""Command-line interface: formats, round trips, exit codes."""

import importlib
import json
from itertools import count

import numpy as np
import pytest

from negfonts import aggregate_invariants, catalog_state, make_state, normalize
from negfonts.cli import main
from negfonts.stateio import read_state_file, write_state_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "--list")
    assert code == 0
    assert "GHZ4" in out and "Psi_ab" in out


def test_catalog_writes_state(tmp_path, capsys):
    path = tmp_path / "hs.txt"
    code, _, _ = run(capsys, "catalog", "HS", "--out", str(path))
    assert code == 0
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#") and not ln.startswith("n ")]
    assert len(lines) == 6
    state = read_state_file(str(path))
    np.testing.assert_allclose(state.amps, catalog_state("HS").amps, atol=1e-15)


def test_catalog_family_params(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "catalog", "G_abcd", "--param", "a=1", "--param", "b=2",
                     "--param", "c=3", "--param", "d=4", "--out", str(path))
    assert code == 0
    state = read_state_file(str(path))
    assert np.count_nonzero(state.amps) == 8


def test_catalog_positional_params(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "catalog", "G_abcd", "a=1", "b=2", "c=3", "d=4",
                     "--out", str(path))
    assert code == 0
    assert np.count_nonzero(read_state_file(str(path)).amps) == 8


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_invariants_triple_flag(tmp_path, capsys):
    path = tmp_path / "psi.txt"
    run(capsys, "catalog", "Psi_ab", "a=1", "b=0.5", "--out", str(path))
    code, out, _ = run(capsys, "invariants", "--in", str(path), "--triple", "2")
    doc = json.loads(out)
    assert doc["four_qubit"]["triple"] == 2
    assert doc["four_qubit"]["headline"]["singled"] == 2


def test_invariants_ghz4(tmp_path, capsys):
    state_path = tmp_path / "ghz4.txt"
    report_path = tmp_path / "report.json"
    run(capsys, "catalog", "GHZ4", "--out", str(state_path))
    code, _, _ = run(capsys, "invariants", "--in", str(state_path),
                     "--out", str(report_path))
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert abs(doc["four_qubit"]["tau48"] - 1.0) < 1e-9
    assert doc["schema"] == "negfonts/report-v1"


def test_invariants_brown_i48(tmp_path, capsys):
    state_path = tmp_path / "brown.txt"
    run(capsys, "catalog", "BrownPhi", "--out", str(state_path))
    code, out, _ = run(capsys, "invariants", "--in", str(state_path))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["four_qubit"]["headline"]["i48"]["abs"] - 1 / 256) < 1e-12


def test_invariants_round_trip_matches_in_process(tmp_path, capsys):
    state_path = tmp_path / "dicke.txt"
    run(capsys, "catalog", "Dicke42", "--out", str(state_path))
    code, out, _ = run(capsys, "invariants", "--in", str(state_path))
    assert code == 0
    doc = json.loads(out)
    direct = aggregate_invariants(normalize(catalog_state("Dicke42")))
    assert doc["four_qubit"]["tau48"] == pytest.approx(direct.tau48, abs=1e-15)
    assert doc["four_qubit"]["i4"]["re"] == pytest.approx(direct.i4.real, abs=1e-15)


def test_invariants_no_normalize(tmp_path, capsys):
    state_path = tmp_path / "psi.txt"
    run(capsys, "catalog", "Psi_ab", "--param", "a=1", "--param", "b=1",
        "--out", str(state_path))
    code, out, _ = run(capsys, "invariants", "--in", str(state_path),
                       "--no-normalize")
    doc = json.loads(out)
    assert doc["four_qubit"]["headline"]["i48"]["re"] == pytest.approx(25 / 12, rel=1e-12)


def test_invariants_three_qubit(tmp_path, capsys):
    state_path = tmp_path / "w3.txt"
    run(capsys, "catalog", "W3", "--out", str(state_path))
    code, out, _ = run(capsys, "invariants", "--in", str(state_path))
    doc = json.loads(out)
    assert doc["three_qubit"]["i2_w"] == pytest.approx(1.0, abs=1e-12)
    assert doc["three_qubit"]["tau3"] == pytest.approx(0.0, abs=1e-12)


def test_invariants_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 4\n01x0 0.5\n")
    code, _, err = run(capsys, "invariants", "--in", str(bad))
    assert code == 2
    assert "line 2" in err


def test_invariants_unsupported_arity_exit_4(tmp_path, capsys):
    path = tmp_path / "n5.txt"
    amps = np.zeros(32)
    amps[0] = 1.0
    write_state_file(str(path), make_state(5, amps))
    code, _, _ = run(capsys, "invariants", "--in", str(path))
    assert code == 4


def test_classify_cli(tmp_path, capsys):
    path = tmp_path / "psi.txt"
    run(capsys, "catalog", "Psi_ab", "--param", "a=1", "--param", "b=1",
        "--out", str(path))
    code, out, _ = run(capsys, "classify", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["class_report"]["major_class"] == "I"

    ghz = tmp_path / "ghz.txt"
    run(capsys, "catalog", "GHZ4", "--out", str(ghz))
    code, out, _ = run(capsys, "classify", "--in", str(ghz))
    assert json.loads(out)["class_report"]["major_class"] == "IV"

    basis = tmp_path / "basis.txt"
    basis.write_text("n 4\n0000 1 0\n")
    code, out, _ = run(capsys, "classify", "--in", str(basis))
    assert json.loads(out)["class_report"]["major_class"] == "unentangled"


def test_classify_scrambled_with_font_min(tmp_path, capsys):
    from helpers import scramble_special

    scrambled = scramble_special(normalize(catalog_state("GHZ4")), (7403, 0))
    path = tmp_path / "scrambled.txt"
    write_state_file(str(path), scrambled)
    code, out, _ = run(capsys, "classify", "--in", str(path), "--font-min",
                       "--seed", "3", "--restarts", "4", "--iters", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_report"]["major_class"] == "IV"
    assert doc["class_report"]["minimized_state_used"]


def test_classify_font_min_drift_exit_3(tmp_path, capsys, monkeypatch):
    calls = count()
    monkeypatch.setattr(importlib.import_module("negfonts.classify"),
                        "_invariant_fingerprint",
                        lambda state: np.full(9, float(next(calls))))
    path = tmp_path / "ghz4.txt"
    write_state_file(str(path), normalize(catalog_state("GHZ4")))
    code, out, err = run(capsys, "classify", "--in", str(path), "--font-min",
                         "--restarts", "1", "--iters", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("error: font minimization drifted")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ("GHZ4", "GHZ3", "Bell"))
def test_invariants_non_finite_exit_3(tmp_path, capsys, name):
    # squares of 1e200 overflow, so the raw-coefficient report cannot be finite
    base = catalog_state(name)
    path = tmp_path / "huge.txt"
    write_state_file(str(path), make_state(base.n_qubits, base.amps * 1e200))
    report = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "invariants", "--in", str(path), "--no-normalize",
                             "--out", str(report))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not report.exists()


def test_negativity_cli(tmp_path, capsys):
    bell = tmp_path / "bell.txt"
    run(capsys, "catalog", "Bell", "--out", str(bell))
    code, out, _ = run(capsys, "negativity", "--in", str(bell), "--qubit", "1")
    doc = json.loads(out)
    assert doc["negativity"]["1"]["global"] == pytest.approx(1.0, abs=1e-12)

    ghz3 = tmp_path / "ghz3.txt"
    run(capsys, "catalog", "GHZ3", "--out", str(ghz3))
    code, out, _ = run(capsys, "negativity", "--in", str(ghz3), "--qubit", "1")
    assert json.loads(out)["negativity"]["1"]["global"] == pytest.approx(1.0, abs=1e-12)


def test_fonts_cli(tmp_path, capsys):
    ghz = tmp_path / "ghz.txt"
    run(capsys, "catalog", "GHZ4", "--out", str(ghz))
    code, out, _ = run(capsys, "fonts", "--in", str(ghz), "--qubit", "1")
    doc = json.loads(out)
    assert doc["fonts"]["1"]["counts"] == {"2": 0, "3": 0, "4": 1}

    c1 = tmp_path / "c1.txt"
    run(capsys, "catalog", "C1", "--out", str(c1))
    code, out, _ = run(capsys, "fonts", "--in", str(c1), "--qubit", "1", "--k", "4")
    doc = json.loads(out)
    assert doc["fonts"]["1"]["counts"]["4"] == 2
    assert len(doc["fonts"]["1"]["fonts"]) == 4


def test_sweep_cli(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--family", "G_abcd",
                       "--param", "a=-1:1:3", "--param", "b=0.5,1.5,1j",
                       "--param", "c=0:1:3", "--param", "d=2",
                       "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 1 + 27
    assert "worst relative deviation" in err

    code, out, err = run(capsys, "sweep", "--family", "L_abc2",
                         "--param", "a=0.8", "--param", "b=0.2:1.8:5",
                         "--param", "c=0.8")
    assert code == 0
    header = out.splitlines()[0].split(",")
    i48_col = header.index("i48_num_re")
    for line in out.splitlines()[1:]:
        assert abs(float(line.split(",")[i48_col])) < 1e-12


def test_sweep_bad_grid(capsys):
    code, _, err = run(capsys, "sweep", "--family", "G_abcd", "--param", "a=1,2")
    assert code == 2
    assert "missing grid" in err
    code, _, err = run(capsys, "sweep", "--family", "nosuch", "--param", "a=1")
    assert code == 2


def test_check_suites(capsys):
    assert run(capsys, "check", "--suite", "decomposition", "--trials", "40")[0] == 0
    assert run(capsys, "check", "--suite", "invariance", "--trials", "40")[0] == 0
    assert run(capsys, "check", "--suite", "negativity-relation", "--trials", "40")[0] == 0
    assert run(capsys, "check", "--suite", "vanishing", "--trials", "20")[0] == 0
    # an absurd threshold must trip the violation exit code
    code, out, _ = run(capsys, "check", "--suite", "invariance", "--trials", "5",
                       "--tol", "1e-30")
    assert code == 3
    assert "VIOLATION" in out


def test_reports_deterministic(tmp_path, capsys):
    path = tmp_path / "hs.txt"
    run(capsys, "catalog", "HS", "--out", str(path))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run(capsys, "invariants", "--in", str(path), "--out", str(r1))
    run(capsys, "invariants", "--in", str(path), "--out", str(r2))
    assert r1.read_bytes() == r2.read_bytes()
