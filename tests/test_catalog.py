"""Catalog amplitudes match the published coefficients exactly."""

import math

import numpy as np
import pytest

from negfonts import CATALOG, catalog_names, catalog_state, family_expected, normalize
from negfonts.errors import MissingParameter, NonFinite, UnknownState
from negfonts.states import index_of_bits

S2 = 1 / np.sqrt(2)
S6 = 1 / np.sqrt(6)
S8 = 1 / np.sqrt(8)
OMEGA = np.exp(2j * np.pi / 3)


def amp(state, bits):
    return state.amps[index_of_bits([int(b) for b in bits])]


def test_parameterless_entries_build():
    for name in catalog_names():
        entry_params = __import__("negfonts").CATALOG[name].params
        if not entry_params:
            s = catalog_state(name)
            assert s.amps.any()


def test_bell_and_ghz():
    bell = catalog_state("Bell")
    assert amp(bell, "00") == pytest.approx(S2)
    assert amp(bell, "11") == pytest.approx(S2)
    ghz4 = catalog_state("GHZ4")
    assert amp(ghz4, "0000") == pytest.approx(S2)
    assert amp(ghz4, "1111") == pytest.approx(S2)
    assert np.count_nonzero(normalize(ghz4).amps) == 2
    ghz3 = catalog_state("GHZ3")
    assert amp(ghz3, "000") == pytest.approx(S2)


def test_w_states():
    w3 = catalog_state("W3")
    for bits in ("001", "010", "100"):
        assert amp(w3, bits) == pytest.approx(1 / np.sqrt(3))
    w4 = catalog_state("W4")
    for bits in ("0000", "1100", "1010", "1001"):
        assert amp(w4, bits) == pytest.approx(0.5)


def test_clusters():
    c1 = catalog_state("C1")
    for bits, val in (("0000", 0.5), ("1100", 0.5), ("0011", 0.5), ("1111", -0.5)):
        assert amp(c1, bits) == pytest.approx(val)
    c2 = catalog_state("C2")
    for bits, val in (("0000", 0.5), ("0110", 0.5), ("1001", 0.5), ("1111", -0.5)):
        assert amp(c2, bits) == pytest.approx(val)
    c3 = catalog_state("C3")
    for bits, val in (("0000", 0.5), ("1010", 0.5), ("0101", 0.5), ("1111", -0.5)):
        assert amp(c3, bits) == pytest.approx(val)


def test_dicke_and_hs():
    dicke = catalog_state("Dicke42")
    weight2 = ("0011", "1100", "0101", "1010", "1001", "0110")
    for bits in weight2:
        assert amp(dicke, bits) == pytest.approx(S6)
    assert np.count_nonzero(dicke.amps) == 6

    hs = catalog_state("HS")
    assert amp(hs, "0011") == pytest.approx(S6)
    assert amp(hs, "1100") == pytest.approx(S6)
    assert amp(hs, "1010") == pytest.approx(OMEGA * S6)
    assert amp(hs, "0101") == pytest.approx(OMEGA * S6)
    assert amp(hs, "1001") == pytest.approx(OMEGA ** 2 * S6)
    assert amp(hs, "0110") == pytest.approx(OMEGA ** 2 * S6)
    nz = hs.amps[np.abs(hs.amps) > 0]
    assert len(nz) == 6
    np.testing.assert_allclose(np.abs(nz), S6, atol=1e-12)


def test_brown():
    phi = catalog_state("BrownPhi")
    assert amp(phi, "0000") == pytest.approx(0.5)
    assert amp(phi, "1101") == pytest.approx(0.5)
    for bits in ("1011", "0011", "0110"):
        assert amp(phi, bits) == pytest.approx(S8)
    assert amp(phi, "1110") == pytest.approx(-S8)
    assert np.linalg.norm(phi.amps) == pytest.approx(1.0, abs=1e-12)


def test_families():
    a, b, c, d = 1.5, 0.25 + 1j, -0.75, 2.0
    g = catalog_state("G_abcd", {"a": a, "b": b, "c": c, "d": d})
    assert amp(g, "0000") == pytest.approx((a + d) / 2)
    assert amp(g, "0011") == pytest.approx((a - d) / 2)
    assert amp(g, "1010") == pytest.approx((b + c) / 2)
    assert amp(g, "1001") == pytest.approx((b - c) / 2)

    # a = d, b = c = 0 collapses to the GHZ-type two-term state
    ghz_like = catalog_state("G_abcd", {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0})
    assert amp(ghz_like, "0000") == pytest.approx(1.0)
    assert amp(ghz_like, "1111") == pytest.approx(1.0)
    assert np.count_nonzero(ghz_like.amps) == 2

    l3 = catalog_state("L_abc2", {"a": a, "b": b, "c": c})
    assert amp(l3, "0000") == pytest.approx((a + b) / 2)
    assert amp(l3, "1100") == pytest.approx((a - b) / 2)
    assert amp(l3, "0101") == pytest.approx(c)
    assert amp(l3, "0110") == pytest.approx(1.0)

    l2 = catalog_state("L_a2b2", {"a": a, "b": b})
    assert amp(l2, "0000") == pytest.approx(a)
    assert amp(l2, "1010") == pytest.approx(b)
    assert amp(l2, "0110") == pytest.approx(1.0)
    assert amp(l2, "0011") == pytest.approx(1.0)

    l1 = catalog_state("L_a2_0_3p1t", {"a": a})
    assert amp(l1, "0000") == pytest.approx(a)
    for bits in ("0101", "0110", "0011"):
        assert amp(l1, bits) == pytest.approx(1.0)

    psi = catalog_state("Psi_ab", {"a": a, "b": b})
    assert amp(psi, "0000") == pytest.approx(a)
    for bits in ("1101", "1110", "0011"):
        assert amp(psi, bits) == pytest.approx(b)

    psi_a = catalog_state("Psi_a", {"a": a})
    assert amp(psi_a, "1110") == pytest.approx(1.0)
    assert amp(psi_a, "0000") == pytest.approx(a)


def test_real_params_promoted():
    g = catalog_state("G_abcd", {"a": 1, "b": 2, "c": 3, "d": 4})
    assert g.amps.dtype == np.complex128


def test_errors():
    with pytest.raises(UnknownState):
        catalog_state("nosuch")
    with pytest.raises(MissingParameter):
        catalog_state("Psi_ab", {"a": 1.0})
    with pytest.raises(MissingParameter):
        catalog_state("GHZ4", {"a": 1.0})
    for value in ("x", None, "1"):
        with pytest.raises(MissingParameter):
            catalog_state("Psi_a", {"a": value})
    # an int beyond the float range gets the error of an infinite parameter,
    # and the closed forms get the error of the state
    for value in (math.inf, complex(1, math.nan), 10**400, -10**400):
        with pytest.raises(NonFinite):
            catalog_state("Psi_a", {"a": value})
        with pytest.raises(NonFinite):
            family_expected("Psi_ab", {"a": value, "b": 1})


def test_term_tables_fit_their_qubit_count():
    # catalog_state lays each table out on the entry's qubits by its labels
    for name, entry in CATALOG.items():
        args = [0.7 - 0.3j] * len(entry.params)
        terms = entry.terms(*args)
        assert all(len(bits) == entry.n_qubits and set(bits) <= {"0", "1"} for bits in terms)
        state = catalog_state(name, dict(zip(entry.params, args)))
        assert state.n_qubits == entry.n_qubits
        assert {bits: complex(amp(state, bits)) for bits in terms} == {
            bits: complex(value) for bits, value in terms.items()}
        assert np.count_nonzero(state.amps) == np.count_nonzero(list(terms.values()))
