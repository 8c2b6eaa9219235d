"""Density matrices, partial transposes, negativity."""

import importlib
import warnings

import numpy as np
import pytest

from helpers import schmidt_negativity
from negfonts import (
    catalog_state,
    decomposition_residual,
    density_from_pure,
    global_pt,
    hermitian_eigenvalues,
    kway_pt,
    make_state,
    negative_eigenvalues,
    negativity,
    normalize,
    random_state,
)
from negfonts.errors import BadK, NonFiniteResult, NotHermitian, QubitOutOfRange

ptrans_module = importlib.import_module("negfonts.ptrans")


def test_density_product_state():
    rho = density_from_pure(make_state(2, [1, 0, 0, 0]))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    np.testing.assert_allclose(rho, expected)


def test_density_ghz4():
    rho = density_from_pure(normalize(catalog_state("GHZ4")))
    nz = np.argwhere(np.abs(rho) > 1e-12)
    assert sorted(map(tuple, nz)) == [(0, 0), (0, 15), (15, 0), (15, 15)]
    np.testing.assert_allclose(np.abs(rho[0, 15]), 0.5)
    assert np.trace(rho) == pytest.approx(1.0)


def test_density_rank_one():
    s = random_state(3, 5)
    eig = hermitian_eigenvalues(density_from_pure(s))
    assert eig[-1] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(eig[:-1], 0.0, atol=1e-12)


def test_global_pt_diagonal_invariant():
    rho = density_from_pure(make_state(2, [1, 0, 0, 0]))
    np.testing.assert_allclose(global_pt(rho, 1, 2), rho)


def test_global_pt_bell_eigenvalues():
    rho = density_from_pure(catalog_state("Bell"))
    eig = hermitian_eigenvalues(global_pt(rho, 1, 2))
    np.testing.assert_allclose(eig, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_global_pt_involution_exact():
    for trial in range(500):
        n = 2 + trial % 3
        s = random_state(n, (101, trial))
        rho = density_from_pure(s)
        p = 1 + trial % n
        assert np.array_equal(global_pt(global_pt(rho, p, n), p, n), rho)


def test_transposes_stay_hermitian():
    for trial in range(50):
        n = 3 + trial % 2
        rho = density_from_pure(random_state(n, (7, trial)))
        for p in range(1, n + 1):
            g = global_pt(rho, p, n)
            assert np.max(np.abs(g - g.conj().T)) < 1e-12
            for k in range(2, n + 1):
                m = kway_pt(rho, p, k, n)
                assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_kway_ghz4_equals_global():
    # a state with only 4-way coherences has identical global and 4-way transposes
    rho = density_from_pure(normalize(catalog_state("GHZ4")))
    for p in range(1, 5):
        np.testing.assert_allclose(kway_pt(rho, p, 4, 4), global_pt(rho, p, 4),
                                   atol=1e-14)


def test_kway_diagonal_invariant():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    for k in (2,):
        np.testing.assert_allclose(kway_pt(rho, 1, k, 2), rho)


def test_kway_n2_equals_global():
    rho = density_from_pure(catalog_state("Bell"))
    np.testing.assert_allclose(kway_pt(rho, 1, 2, 2), global_pt(rho, 1, 2))


def test_kway_errors():
    rho = density_from_pure(catalog_state("Bell"))
    with pytest.raises(BadK):
        kway_pt(rho, 1, 5, 2)
    with pytest.raises(QubitOutOfRange):
        kway_pt(rho, 3, 2, 2)
    with pytest.raises(QubitOutOfRange):
        global_pt(rho, 0, 2)
    # a float K or qubit is not an index, even where it equals one
    with pytest.raises(BadK):
        kway_pt(density_from_pure(random_state(4, 0)), 1, 2.5, 4)
    with pytest.raises(QubitOutOfRange):
        kway_pt(rho, 1.0, 2, 2)
    with pytest.raises(QubitOutOfRange):
        global_pt(rho, 1.0, 2)
    with pytest.raises(QubitOutOfRange):
        negativity(catalog_state("Bell"), 1.0)


def test_decomposition_identity():
    worst = 0.0
    for trial in range(250):
        n = 3 + trial % 2
        s = random_state(n, (211, trial))
        for p in range(1, n + 1):
            worst = max(worst, decomposition_residual(s, p))
    assert worst < 1e-12


def test_decomposition_ghz4_tight():
    s = normalize(catalog_state("GHZ4"))
    for p in range(1, 5):
        assert decomposition_residual(s, p) < 1e-14


def test_eigenvalues_simple():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, complex(np.inf, np.inf),
                                 complex(0.0, -np.inf), complex(np.nan, 1.0)))
@pytest.mark.parametrize("where", ((1, 1), (0, 2)))
def test_eigenvalues_reject_non_finite_entries_without_warnings(bad, where):
    m = density_from_pure(random_state(3, 7))
    m[where] = bad
    m[where[::-1]] = np.conj(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult):
            hermitian_eigenvalues(m)


def test_eigenvalues_reject_a_finite_non_hermitian_matrix():
    m = density_from_pure(random_state(3, 7))
    m[0, 2] += 1e-6
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(m)


def test_eigenvalues_reject_a_non_square_matrix():
    with pytest.raises(NotHermitian, match="square"):
        hermitian_eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize("scale", (1e4, 1e-4))
def test_kway_spectra_scale_with_the_state(scale):
    # the Hermiticity check is relative, so an unnormalized state's transposes
    # pass it and their spectra are scale**2 times the unit state's
    unit = random_state(4, 3)
    scaled = make_state(4, unit.amps * scale)
    for p in range(1, 5):
        for k in range(2, 5):
            expected = scale ** 2 * hermitian_eigenvalues(
                kway_pt(density_from_pure(unit), p, k, 4))
            got = hermitian_eigenvalues(kway_pt(density_from_pure(scaled), p, k, 4))
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-12 * np.max(np.abs(expected)))
            negative_eigenvalues(scaled, p, k)
            negativity(scaled, p, k)


def test_eigenvalues_trace_and_reconstruction():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g + g.conj().T
        eig = hermitian_eigenvalues(m)
        assert abs(np.sum(eig) - np.trace(m).real) < 1e-10
        vals, vecs = np.linalg.eigh(m)
        np.testing.assert_allclose(vals, eig, atol=1e-12)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(m - recon)) < 1e-9


def test_negativity_known_values():
    assert negativity(catalog_state("Bell"), 1) == pytest.approx(1.0, abs=1e-12)
    assert negativity(normalize(catalog_state("GHZ3")), 1) == pytest.approx(1.0, abs=1e-12)
    product = make_state(4, np.eye(16)[0])
    for p in range(1, 5):
        assert negativity(product, p) == pytest.approx(0.0, abs=1e-12)
    assert len(negative_eigenvalues(catalog_state("Bell"), 1)) == 1


def test_negativity_matches_schmidt_oracle():
    for trial in range(200):
        n = 2 + trial % 3
        s = random_state(n, (307, trial))
        p = 1 + trial % n
        assert negativity(s, p) == pytest.approx(schmidt_negativity(s, p), abs=1e-9)
        assert negativity(s, p) >= -1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_global_negativity_matches_eigensolve(n):
    for trial in range(4):
        unit = random_state(n, (1423, n, trial))
        for scale in (1.0, 3.7, 1e-3):
            s = make_state(n, unit.amps * scale) if scale != 1.0 else unit
            for p in range(1, n + 1):
                eig = hermitian_eigenvalues(global_pt(density_from_pure(s), p, n))
                assert abs(negativity(s, p) - (np.sum(np.abs(eig)) - 1.0)) <= 1e-12


def test_global_negativity_at_large_scale():
    # the trace norm grows as scale^2 and stays finite up to ~1e154
    unit = random_state(4, 1427)
    for p in range(1, 5):
        big = negativity(make_state(4, unit.amps * 1e150), p)
        assert big == pytest.approx(1e300 * (negativity(unit, p) + 1.0), rel=1e-12)


def _overflowing_ghz4():
    """GHZ4 scaled by 1e200, and with amplitudes 1.5e308 (1 + 1j), whose
    moduli overflow while their parts are finite."""
    return (make_state(4, normalize(catalog_state("GHZ4")).amps * 1e200),
            make_state(4, (np.eye(16)[0] + np.eye(16)[15]) * (1.5e308 * (1 + 1j))))


def test_negativity_non_finite_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _overflowing_ghz4():
            for p in range(1, 5):
                with pytest.raises(NonFiniteResult):
                    negativity(s, p)
                for k in range(2, 5):
                    with pytest.raises(NonFiniteResult):
                        negativity(s, p, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_global_negative_eigenvalue_matches_eigensolve(n):
    # the global transpose of a pure state has exactly one negative eigenvalue
    for trial in range(4):
        unit = random_state(n, (1429, n, trial))
        for scale in (1.0, 3.7, 1e-3):
            s = make_state(n, unit.amps * scale) if scale != 1.0 else unit
            for p in range(1, n + 1):
                eig = hermitian_eigenvalues(global_pt(density_from_pure(s), p, n))
                got = negative_eigenvalues(s, p)
                assert got.shape == (1,)
                assert abs(got[0] - eig[0]) <= 1e-12
                assert np.all(eig[1:] >= -1e-12)


def test_global_negative_eigenvalue_of_product_cuts():
    # the largest modulus is 4, so the scaled amplitudes and their minors are
    # exact and s1 s2 is exactly 0; a product of general floats keeps a
    # round-off s1 s2 and reports it as its one eigenvalue
    kets = ([1, 2], [1, -1], [2j, 1], [1, 1j])
    product = np.kron(np.kron(kets[0], kets[1]), np.kron(kets[2], kets[3]))
    for state in (make_state(4, np.eye(16)[0]), make_state(4, product)):
        for p in range(1, 5):
            got = negative_eigenvalues(state, p)
            assert got.shape == (0,) and got.dtype == np.float64


def test_global_negative_eigenvalue_non_finite_raises():
    # every cut of GHZ4 is entangled, so none may read as a product cut
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _overflowing_ghz4():
            for p in range(1, 5):
                with pytest.raises(NonFiniteResult):
                    negative_eigenvalues(s, p)


def test_a_product_cut_has_no_negative_eigenvalue_at_any_scale():
    # s1 s2 = 0 is read before the squared scale, which overflows past ~1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1.0, 1e-200, 1e160, 1e200, 1.5e308 * (1 + 1j)):
            s = make_state(4, np.eye(16)[0] * scale)
            for p in range(1, 5):
                got = negative_eigenvalues(s, p)
                assert got.shape == (0,) and got.dtype == np.float64, (scale, p)
        # the trace norm is the squared norm, which does overflow
        with pytest.raises(NonFiniteResult):
            negativity(make_state(4, np.eye(16)[0] * 1e160), 1)


def test_global_kind_runs_no_eigensolve(monkeypatch):
    def refuse(matrix):
        raise AssertionError("eigensolve on the global path")

    monkeypatch.setattr(ptrans_module, "hermitian_eigenvalues", refuse)
    s = random_state(5, 1433)
    for p in range(1, 6):
        assert negative_eigenvalues(s, p)[0] == pytest.approx(-negativity(s, p) / 2,
                                                              abs=1e-15)
    with pytest.raises(AssertionError):
        negative_eigenvalues(s, 1, 2)


@pytest.mark.parametrize("kind", (2.5, 2.0, "Global", "2", None, np.float64(3.0)))
def test_a_kind_that_is_neither_global_nor_an_integer_is_bad_k(kind):
    s = random_state(4, 1439)
    with pytest.raises(BadK):
        negativity(s, 1, kind)
    with pytest.raises(BadK):
        negative_eigenvalues(s, 1, kind)


def test_numpy_integer_kinds_equal_python_ints():
    s = random_state(4, 1447)
    for k in (2, 3, 4):
        for kind in (np.int64(k), np.int32(k), np.uint8(k)):
            assert negativity(s, 2, kind) == negativity(s, 2, k)
            np.testing.assert_array_equal(negative_eigenvalues(s, 2, kind),
                                          negative_eigenvalues(s, 2, k))


def _swap_table(n: int, p: int) -> np.ndarray:
    """Reference transpose over qubit p: the flat position each element reads,
    the element with both p-bits flipped where they differ, else itself."""
    dim = 1 << n
    pbit = 1 << (n - p)
    rows, cols = np.indices((dim, dim))
    differs = ((rows ^ cols) & pbit) != 0
    return np.where(differs, (rows ^ pbit) * dim + (cols ^ pbit), rows * dim + cols)


def _layouts(n: int, seed):
    """A density in C order, its Fortran-ordered copy and a strided view."""
    rho = density_from_pure(random_state(n, seed))
    padded = np.zeros((2 << n, 2 << n), dtype=complex)
    padded[::2, ::2] = rho
    yield rho
    yield np.asfortranarray(rho)
    yield padded[::2, ::2]


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_axis_swap_transposes_equal_the_index_table(n):
    for rho in _layouts(n, (1451, n)):
        for p in range(1, n + 1):
            reference = rho.reshape(-1)[_swap_table(n, p)]
            assert _same_bits(global_pt(rho, p, n), reference), (n, p)
            for k in range(2, n + 1):
                want = np.where(ptrans_module._kway_mask(n, p, k), reference, rho)
                assert _same_bits(kway_pt(rho, p, k, n), want), (n, p, k)


def test_transposes_check_the_shape():
    rho = density_from_pure(random_state(3, 1453))
    for bad, n in ((rho[:4, :4], 3), (rho.reshape(4, 16), 3), (rho, 4)):
        with pytest.raises(QubitOutOfRange):
            global_pt(bad, 1, n)
        with pytest.raises(QubitOutOfRange):
            kway_pt(bad, 1, 2, n)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_kway_overflow_raises_without_warnings(n, scale):
    # the density |psi><psi| overflows at these scales
    s = make_state(n, random_state(n, (1459, n)).amps * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in range(1, n + 1):
            for k in range(2, n + 1):
                with pytest.raises(NonFiniteResult):
                    negativity(s, p, k)
                with pytest.raises(NonFiniteResult):
                    negative_eigenvalues(s, p, k)


def test_kway_trace_norm_overflow_raises_without_warnings():
    # the density is finite, its trace norm is not
    s = make_state(5, random_state(5, (1459, 5)).amps * 1e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in range(1, 6):
            for k in range(2, 6):
                with pytest.raises(NonFiniteResult):
                    negativity(s, p, k)
                assert np.all(np.isfinite(negative_eigenvalues(s, p, k)))


@pytest.mark.parametrize("n", [4, 5])
def test_decomposition_residual_overflow_raises_without_warnings(n):
    unit = random_state(n, (1471, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e160, 1e200):
            s = make_state(n, unit.amps * scale)
            for p in range(1, n + 1):
                with pytest.raises(NonFiniteResult):
                    decomposition_residual(s, p)

