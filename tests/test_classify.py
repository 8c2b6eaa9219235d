"""Major-class assignment, font minimization, family closed forms."""

import importlib
from functools import reduce
from itertools import count, product

import numpy as np
import pytest

from helpers import scramble_special
from negfonts import (
    aggregate_invariants,
    catalog_state,
    classify,
    count_nonzero_fonts,
    enumerate_fonts,
    family_expected,
    font_det,
    font_minimize,
    make_state,
    normalize,
    random_state,
    triple_invariants,
)
from negfonts.classify import _decide, _det_moduli, _rotated_amps
from negfonts.errors import MissingParameter, SearchDrift, UnknownFamily, WrongArity

classify_module = importlib.import_module("negfonts.classify")


def major(name, params=None, **kwargs):
    return classify(normalize(catalog_state(name, params)), **kwargs).major_class


def test_worked_examples():
    assert major("Psi_ab", {"a": 1.0, "b": 1.0}) == "I"
    assert major("Psi_a", {"a": 1.0}) == "II"
    assert major("G_abcd", {"a": 1.0, "b": 2.0, "c": 3.0, "d": 5.0}) == "III"
    assert major("G_abcd", {"a": 1.0 + 0.5j, "b": 2.0, "c": 3.0 - 1j, "d": 5.0}) == "III"
    assert major("G_abcd", {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}) == "IV"  # G_a00a
    assert major("G_abcd", {"a": 0.0, "b": 0.7, "c": 0.7, "d": 0.0}) == "IV"  # G_0bb0
    assert major("GHZ4") == "IV"
    assert major("W4") == "VII"
    assert major("G_abcd", {"a": 0.8, "b": 0.8, "c": 0.8, "d": 0.8}) == "VII"  # G_aaaa
    assert major("C1") == "III"
    assert major("C2") == "III"
    assert major("C3") == "III"
    assert major("HS") == "VII"
    assert major("BrownPhi") == "II"


def test_unentangled_states():
    basis = make_state(4, np.eye(16)[3])
    assert classify(basis).major_class == "unentangled"
    # full product of two single-qubit kets and a pair-product is NOT unentangled
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    pairpair = make_state(4, np.kron(bell, bell))
    assert classify(pairpair).major_class == "VII"


@pytest.mark.parametrize("exponent", (-250, -100, -13, 0, 100, 200, 250))
@pytest.mark.parametrize("name, expected", (("GHZ4", "IV"), ("W4", "VII"), ("C1", "III")))
def test_classification_scale_free(name, expected, exponent):
    base = catalog_state(name)
    scaled = make_state(4, base.amps * 10.0 ** exponent)
    assert classify(scaled).major_class == expected
    ref = aggregate_invariants(normalize(base))
    got = aggregate_invariants(normalize(scaled))
    assert got.i4 == pytest.approx(ref.i4, abs=1e-12)
    assert got.tau48 == pytest.approx(ref.tau48, abs=1e-12)
    for a, b in zip(got.triples, ref.triples):
        assert (a.i48, a.n_sq, a.dres) == pytest.approx((b.i48, b.n_sq, b.dres), abs=1e-12)


def test_requires_four_qubits():
    with pytest.raises(WrongArity):
        classify(normalize(catalog_state("GHZ3")))


def test_determinism():
    a = classify(normalize(catalog_state("Psi_ab", {"a": 1.0, "b": 1.0})))
    b = classify(normalize(catalog_state("Psi_ab", {"a": 1.0, "b": 1.0})))
    assert a == b


def test_signature_recorded():
    report = classify(normalize(catalog_state("GHZ4")))
    sig = report.signature
    assert not sig.i48_zero
    assert sig.dres_zero
    assert sig.delta_zero
    assert (sig.n2, sig.n3, sig.n4) == (0, 0, 1)


def test_decision_totality():
    rng = np.random.default_rng(0)
    classes = {"I", "II", "III", "IV", "V", "VI", "VII", "unresolved"}
    for flags in product((False, True), repeat=3):
        for _ in range(4):
            counts = rng.integers(0, 3, size=3)
            cls, _notes = _decide(*flags, *counts)
            assert cls in classes


def test_family_expected_matches_numeric():
    rng = np.random.default_rng(21)
    grids = {
        "G_abcd": ("a", "b", "c", "d"),
        "L_abc2": ("a", "b", "c"),
        "L_a2b2": ("a", "b"),
        "L_a2_0_3p1t": ("a",),
        "Psi_ab": ("a", "b"),
    }
    for family, names in grids.items():
        for _ in range(12):
            params = {p: complex(rng.standard_normal(), rng.standard_normal())
                      for p in names}
            state = catalog_state(family, params)
            head = triple_invariants(state, singled=4)
            expected = family_expected(family, params)
            scale = float(np.linalg.norm(state.amps))
            assert head.i48 == pytest.approx(expected["i48"],
                                             rel=1e-9, abs=1e-9 * scale ** 8)
            assert head.n_sq == pytest.approx(expected["n_triple_sq"],
                                              rel=1e-9, abs=1e-9 * scale ** 8)
            assert head.dres == pytest.approx(expected["dres"],
                                              rel=1e-9, abs=1e-9 * scale ** 8)
            assert head.delta24 == pytest.approx(expected["delta24"],
                                                 rel=1e-9, abs=1e-9 * scale ** 24)


def test_family_expected_degenerate_lines():
    # a = c wipes out the four-body correlations of the three-parameter family
    expected = family_expected("L_abc2", {"a": 0.8, "b": 1.9, "c": 0.8})
    assert abs(expected["i48"]) < 1e-15
    state = catalog_state("L_abc2", {"a": 0.8, "b": 1.9, "c": 0.8})
    assert abs(triple_invariants(state).i48) < 1e-12

    expected = family_expected("L_a2b2", {"a": 1.3, "b": 0.4})
    assert expected["dres"] == pytest.approx(0.0, abs=1e-15)
    assert abs(expected["delta24"]) < 1e-15


def test_family_expected_errors():
    with pytest.raises(UnknownFamily):
        family_expected("nosuch", {})
    with pytest.raises(MissingParameter):
        family_expected("G_abcd", {"a": 1.0})


def test_font_minimize_fixed_points():
    ghz = normalize(catalog_state("GHZ4"))
    minimized, trace = font_minimize(ghz, restarts=2, iters=100, seed=0)
    assert count_nonzero_fonts(minimized, 1, 4) == 1
    assert count_nonzero_fonts(minimized, 1, 3) == 0
    assert count_nonzero_fonts(minimized, 1, 2) == 0
    # the accepted objective never increases along the trace
    objectives = [row[1:] for row in trace]
    assert all(objectives[i + 1] <= objectives[i] for i in range(len(objectives) - 1))

    basis = make_state(4, np.eye(16)[0])
    minimized, _ = font_minimize(basis, restarts=1, iters=50, seed=0)
    assert sum(count_nonzero_fonts(minimized, 1, k) for k in (2, 3, 4)) == 0


def test_font_minimize_recovers_ghz_counts():
    ghz = normalize(catalog_state("GHZ4"))
    hits = 0
    for trial in range(10):
        scrambled = scramble_special(ghz, (2203, trial))
        minimized, _ = font_minimize(scrambled, restarts=4, iters=60, seed=trial)
        counts = tuple(count_nonzero_fonts(minimized, 1, k) for k in (4, 3, 2))
        hits += counts == (1, 0, 0)
    assert hits >= 9


def test_classification_stable_under_scrambling():
    # C1 needs a larger budget: its orbit holds an equal-count frame with a
    # different coherence-order split, found more often than the canonical one
    targets = {"GHZ4": ("IV", 4), "W4": ("VII", 4), "C1": ("III", 16)}
    for idx, (name, (expected, restarts)) in enumerate(targets.items()):
        base = normalize(catalog_state(name))
        for trial in range(3):
            scrambled = scramble_special(base, (2309, idx, trial))
            report = classify(scrambled, use_font_min=True, seed=trial,
                              restarts=restarts, iters=60)
            assert report.major_class == expected, (name, trial, report)


def _euler_reference(a, b, g):
    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return rz(a) @ ry @ rz(g)


def _font_columns(spec):
    """Column pair of a qubit-1 font in the 2 x 8 amplitude matrix."""
    bits = dict(spec.spectators)
    bits.update(zip([q for q in spec.flip_set if q != 1], spec.pattern))
    col = sum(bits[q] << (4 - q) for q in (2, 3, 4))
    flip = sum(1 << (4 - q) for q in spec.flip_set if q != 1)
    return col, col ^ flip


def test_surrogate_kernels_match_references():
    specs = enumerate_fonts(4, 1)
    pairs = list(zip(*np.triu_indices(8, k=1)))
    positions = [pairs.index(tuple(sorted(_font_columns(spec)))) for spec in specs]
    assert sorted(positions) == list(range(len(pairs)))

    haar = random_state(4, 1301)
    rng = np.random.default_rng(1301)
    vectors = [haar.amps]
    for _ in range(50):
        thetas = rng.uniform(0, 2 * np.pi, 12)
        u = reduce(np.kron, [_euler_reference(*thetas[3 * q:3 * q + 3]) for q in range(4)])
        rotated = _rotated_amps(haar.amps, thetas)
        np.testing.assert_allclose(rotated, u @ haar.amps, rtol=0, atol=1e-13)
        vectors.append(rotated)
    for vec in vectors:
        state = make_state(4, vec)
        expected = [abs(font_det(state, spec)) for spec in specs]
        np.testing.assert_allclose(_det_moduli(vec)[positions], expected, rtol=0, atol=1e-15)


def test_font_minimize_drift_is_typed(monkeypatch):
    calls = count()
    monkeypatch.setattr(classify_module, "_invariant_fingerprint",
                        lambda state: np.full(9, float(next(calls))))
    with pytest.raises(SearchDrift):
        font_minimize(normalize(catalog_state("GHZ4")), restarts=1, iters=5)
