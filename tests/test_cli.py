"""Command-line interface: formats, round trips, exit codes."""

import importlib
import json
import warnings
from itertools import count

import numpy as np
import pytest

from negfonts import (aggregate_invariants, catalog_state, make_state, normalize,
                      random_state)
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
    three = tmp_path / "ghz3.txt"
    write_state_file(str(three), catalog_state("GHZ3"))
    code, _, err = run(capsys, "classify", "--in", str(three))
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_cli(tmp_path, capsys):
    path = tmp_path / "psi.txt"
    run(capsys, "catalog", "Psi_ab", "--param", "a=1", "--param", "b=1",
        "--out", str(path))
    code, out, _ = run(capsys, "classify", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["class_report"]["major_class"] == "I"
    # report-v1 keys: the report is its dataclass, so a new field would show here
    assert set(doc["class_report"]) == {"major_class", "signature", "minimized_state_used",
                                        "notes", "tolerance", "tau48"}
    assert set(doc["class_report"]["signature"]) == {
        "i48_zero", "dres_zero", "delta_zero", "n2", "n3", "n4",
        "i48_max", "dres_max", "delta_max"}

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


# (state, scale) whose raw-coefficient report cannot be finite: squares of
# 1e200 overflow, and at 1e40 and 1e60 the degree-24 discriminant does, at 1e80
# the three-qubit squared negativity
NON_FINITE = (
    pytest.param("GHZ4", 1e200, id="GHZ4"),
    pytest.param("GHZ3", 1e200, id="GHZ3"),
    pytest.param("Bell", 1e200, id="Bell"),
    pytest.param("GHZ4", 1e40, id="GHZ4-1e40"),
    pytest.param("GHZ4", 1e60, id="GHZ4-1e60"),
    pytest.param("GHZ3", 1e80, id="GHZ3-1e80"),
)


@pytest.mark.parametrize("name, scale", NON_FINITE)
def test_invariants_non_finite_exit_3(tmp_path, capsys, name, scale):
    base = catalog_state(name)
    path = tmp_path / "huge.txt"
    write_state_file(str(path), make_state(base.n_qubits, base.amps * scale))
    report = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "invariants", "--in", str(path), "--no-normalize",
                             "--out", str(report))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("name, scale", NON_FINITE)
def test_invariants_non_finite_exit_3_without_warnings(tmp_path, capsys, name, scale):
    # no errstate here: main itself must keep numpy from warning on the way
    base = catalog_state(name)
    path = tmp_path / "huge.txt"
    write_state_file(str(path), make_state(base.n_qubits, base.amps * scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "invariants", "--in", str(path), "--no-normalize")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", (3, 4))
def test_invariants_no_traceback_at_any_scale(tmp_path, capsys, n):
    base = random_state(n, 5)
    path = tmp_path / "scaled.txt"
    # 154.7: the real and imaginary parts of some 2x2 dets fit a float, but
    # their moduli do not
    for power in (*range(0, 308, 11), 154.7):
        write_state_file(str(path), make_state(n, base.amps * 10.0 ** power))
        code, out, err = run(capsys, "invariants", "--in", str(path), "--no-normalize")
        if code == 0:
            assert err == ""
        else:
            assert (code, out) == (3, ""), power
            assert err.startswith("error: ") and err.count("\n") == 1


def test_invariants_no_normalize_underflow_exit_0(tmp_path, capsys):
    # the quartic coefficients of GHZ4 x 1e-80 underflow; j12 must stay finite
    path = tmp_path / "tiny.txt"
    write_state_file(str(path), make_state(4, catalog_state("GHZ4").amps * 1e-80))
    code, out, err = run(capsys, "invariants", "--in", str(path), "--no-normalize")
    assert (code, err) == (0, "")
    head = json.loads(out)["four_qubit"]["headline"]
    assert head["j12"]["abs"] == 0 and head["delta24"]["abs"] == 0


def test_invariants_no_normalize_tiny_ghz3_keeps_its_i3(tmp_path, capsys):
    # i3 underflows to 0 on the raw amplitudes; the zero test reads the direction
    path = tmp_path / "tiny.txt"
    write_state_file(str(path), make_state(3, catalog_state("GHZ3").amps * 1e-85))
    for flags in ((), ("--no-normalize",)):
        code, out, err = run(capsys, "invariants", "--in", str(path), *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["three_qubit"]["i3_is_zero"] is False


def test_missing_input_file_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "fonts", "--in", str(tmp_path / "absent.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", (
    ("negativity", "--qubit", "0"),
    ("negativity", "--qubit", "5"),
    ("fonts", "--qubit", "0"),
    ("fonts", "--k", "0"),
    ("fonts", "--k", "1"),
    ("fonts", "--k", "7"),
    ("classify", "--font-min", "--restarts", "-1"),
    ("classify", "--font-min", "--iters", "0"),
    ("classify", "--tol", "-1"),
    ("classify", "--tol", "nan"),
    ("classify", "--tol", "inf"),
    ("fonts", "--tol", "-1"),
    ("invariants", "--tol=-1e-9"),
    ("negativity", "--tol", "nan"),
    ("check", "--suite", "vanishing", "--tol", "nan"),
    ("sweep", "--family", "Psi_ab", "--param", "a=1", "--param", "b=1", "--max-rel", "-1"),
    ("sweep", "--family", "Psi_ab", "--param", "a=1", "--param", "b=1", "--max-rel", "nan"),
    ("sweep", "--family", "Psi_ab", "--param", "a=0:1:1000000000000", "--param", "b=1"),
    ("sweep", "--family", "G_abcd", *(a for p in "abcd" for a in ("--param", f"{p}=1:2:20"))),
), ids=" ".join)
def test_invalid_integer_option_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "ghz4.txt"
    write_state_file(str(path), catalog_state("GHZ4"))
    infile = () if argv[0] in ("check", "sweep") else ("--in", str(path))
    code, out, err = run(capsys, argv[0], *infile, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", (
    ("catalog", "Psi_a", "a=1", "a=2"),
    ("catalog", "Psi_a", "a=1", "--param", "a=2"),
    ("sweep", "--family", "L_a2b2", "--param", "a=1", "--param", "a=2", "--param", "b=1"),
    ("catalog", "Psi_a", "a=1", "a=x"),
    ("sweep", "--family", "Psi_ab", "--param", "a=1", "--param", "zz=1", "--param", "a=2"),
), ids=" ".join)
def test_repeated_parameter_exit_2(tmp_path, capsys, argv):
    out_path = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: parameter 'a' given twice\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", (
    ("catalog", "GHZ4", "=1"),
    ("catalog", "Psi_a", "a=1", " =1"),
    ("catalog", "Psi_a", "--param", "=1"),
    ("sweep", "--family", "Psi_ab", "--param", "a=1", "--param", "=1", "--param", "b=1"),
), ids=" ".join)
def test_empty_parameter_name_exit_2(tmp_path, capsys, argv):
    out_path = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    text = next(a for a in argv if a.strip().startswith("="))
    assert err == f"error: parameter {text!r} has no name before '='\n"
    assert not out_path.exists()


def test_restarts_over_the_cap_exit_2(tmp_path, capsys):
    # refused before the search sets up a row of angles per restart
    path = tmp_path / "ghz4.txt"
    write_state_file(str(path), catalog_state("GHZ4"))
    code, out, err = run(capsys, "classify", "--in", str(path), "--font-min",
                         "--restarts", "1000000000000000")
    assert (code, out) == (2, "")
    assert err == ("error: restarts must be an integer in 0..100000, "
                   "got 1000000000000000\n")


@pytest.mark.parametrize("argv", (
    ("classify", "--font-min", "--seed", "-1"),
    ("classify", "--seed", "-1"),
    ("classify", "--font-min", "--restarts", "-1"),
    ("classify", "--iters", "0"),
    *[("check", "--suite", suite, "--seed", "-1")
      for suite in ("decomposition", "invariance", "negativity-relation", "vanishing")],
), ids=" ".join)
def test_bad_seed_or_budget_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "ghz4.txt"
    write_state_file(str(path), catalog_state("GHZ4"))
    infile = ("--in", str(path)) if argv[0] == "classify" else ()
    code, out, err = run(capsys, argv[0], *infile, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("trials", ("0", "-2"))
def test_check_invalid_trials_exit_2(capsys, trials):
    code, out, err = run(capsys, "check", "--suite", "vanishing", "--trials", trials)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_negativity_cli_lists_one_global_eigenvalue_per_qubit(tmp_path, capsys):
    w4 = tmp_path / "w4.txt"
    run(capsys, "catalog", "W4", "--out", str(w4))
    code, out, _ = run(capsys, "negativity", "--in", str(w4))
    assert code == 0
    for row in json.loads(out)["negativity"].values():
        assert row["negative_eigenvalues"] == [pytest.approx(-row["global"] / 2, abs=1e-15)]


@pytest.mark.parametrize("name, expected", (("GHZ4", "IV"), ("W4", "VII"), ("C1", "III")))
def test_states_whose_modulus_overflows_exit_0(tmp_path, capsys, name, expected):
    base = catalog_state(name)
    path = tmp_path / "huge.txt"
    write_state_file(str(path), make_state(
        4, base.amps / np.max(np.abs(base.amps)) * 1.7e308 * (1 + 1j)))
    code, out, err = run(capsys, "classify", "--in", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["class_report"]["major_class"] == expected
    code, out, err = run(capsys, "invariants", "--in", str(path))
    assert (code, err) == (0, "")
    ref = aggregate_invariants(normalize(base))
    assert json.loads(out)["four_qubit"]["tau48"] == pytest.approx(ref.tau48, abs=1e-12)


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


def test_sweep_non_finite_exit_3(tmp_path, capsys):
    # the degree-24 discriminant overflows at the first two points, the closed
    # forms' powers at the third; a NaN must not pass as a zero deviation
    out_csv = tmp_path / "sweep.csv"
    for family, params in (("Psi_ab", ("a=1e20", "b=1")),
                           ("G_abcd", ("a=1e40", "b=1", "c=2", "d=3")),
                           ("Psi_ab", ("a=1e80", "b=1"))):
        argv = ["sweep", "--family", family, "--out", str(out_csv)]
        for p in params:
            argv += ["--param", p]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), family
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_csv.exists()


@pytest.mark.parametrize("value", ("1e-3", "1e-30", "1e-21", "1e12"))
def test_sweep_dres_cancellation_exit_0(capsys, value):
    # dres = n_sq - 2|i48| cancels to 0 here; its deviation is relative to n_sq
    code, out, _ = run(capsys, "sweep", "--family", "Psi_ab",
                       "--param", f"a={value}", "--param", f"b={value}")
    assert code == 0
    header, row = out.splitlines()
    rel = float(row.split(",")[header.split(",").index("dres_rel_dev")])
    assert rel < 1e-14


def test_sweep_dres_off_by_1e_6_exit_3(capsys, monkeypatch):
    cli = importlib.import_module("negfonts.cli")
    exact = cli.family_expected

    def off(family, params):
        expected = dict(exact(family, params))
        expected["dres"] += 1e-6 * expected["n_triple_sq"]
        return expected

    monkeypatch.setattr(cli, "family_expected", off)
    code, out, _ = run(capsys, "sweep", "--family", "Psi_ab",
                       "--param", "a=1.3", "--param", "b=0.4")
    assert code == 3
    header, row = out.splitlines()
    rel = float(row.split(",")[header.split(",").index("dres_rel_dev")])
    assert rel == pytest.approx(1e-6, rel=1e-6)


def test_sweep_underflowing_coefficients_exit_0(capsys):
    code, _, _ = run(capsys, "sweep", "--family", "L_a2_0_3p1t", "--param", "a=1e-78")
    assert code == 0


def test_sweep_bad_grid(capsys):
    code, _, err = run(capsys, "sweep", "--family", "G_abcd", "--param", "a=1,2")
    assert code == 2
    assert "missing grid" in err
    code, _, err = run(capsys, "sweep", "--family", "nosuch", "--param", "a=1")
    assert code == 2


@pytest.mark.parametrize("grid, message", (
    (("a=0:1:100001", "b=1"), "range '0:1:100001' has more than 100000 points"),
    (("a=0:1:400", "b=0:1:251"), "grid of 100400 points is larger than 100000"),
))
def test_sweep_grid_cap_writes_no_file(tmp_path, capsys, grid, message):
    out_path = tmp_path / "sweep.csv"
    argv = [a for g in grid for a in ("--param", g)]
    code, out, err = run(capsys, "sweep", "--family", "Psi_ab", *argv, "--out", str(out_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


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
    # the default trial count and the printed line are unchanged
    code, out, _ = run(capsys, "check", "--suite", "vanishing", "--seed", "4")
    worst, label = importlib.import_module("negfonts.cli")._check_vanishing(100, 4, 1e-9)
    assert (code, out) == (0, f"check vanishing: trials=100 seed=4 {label}={worst:.3e} "
                              "tol=1.0e-09 [ok]\n")


@pytest.mark.parametrize("argv", (
    ("invariants", "--triple", "2"),
    ("classify",),
    ("negativity", "--qubit", "2"),
    ("fonts", "--k", "3"),
    ("sweep", "--family", "L_abc2", "--param", "a=0.8", "--param", "b=0.2:1.8:5",
     "--param", "c=0.8"),
), ids=lambda argv: argv[0])
def test_out_file_matches_stdout(tmp_path, capsys, argv):
    if argv[0] != "sweep":
        path = tmp_path / "psi.txt"
        run(capsys, "catalog", "Psi_ab", "a=1", "b=0.5", "--out", str(path))
        argv = (argv[0], "--in", str(path), *argv[1:])
    code, printed, err = run(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "report.out"
    assert run(capsys, *argv, "--out", str(out_path)) == (0, "", err)
    assert out_path.read_bytes() == printed.encode("utf-8")


def test_reports_deterministic(tmp_path, capsys):
    path = tmp_path / "hs.txt"
    run(capsys, "catalog", "HS", "--out", str(path))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run(capsys, "invariants", "--in", str(path), "--out", str(r1))
    run(capsys, "invariants", "--in", str(path), "--out", str(r2))
    assert r1.read_bytes() == r2.read_bytes()
