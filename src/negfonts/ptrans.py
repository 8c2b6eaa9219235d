"""Density matrices, global and K-way partial transposes, trace-norm negativity.

A matrix element <i|rho|j> carries a coherence order: the number of qubit
positions where the basis labels i and j differ.  The global transpose with
respect to qubit p swaps the p-bits of every element with differing p-bits;
a K-way transpose does the same only for elements of order K (orders 1 and 2
together for K = 2).  Summing the K-way transposes reconstructs the global
one up to (n-2) copies of rho.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BadK, NonFiniteResult, NotHermitian, QubitOutOfRange, check_index
from .fonts import _minors, _qubit_tables
from .states import PureState, _amplitude_scale, _power

GLOBAL = "global"

_HERM_TOL = 1e-10


def density_from_pure(state: PureState) -> np.ndarray:
    """Projector |psi><psi| as a dense matrix."""
    return np.outer(state.amps, state.amps.conj())


@functools.cache
def _kway_mask(n: int, p: int, k: int) -> np.ndarray:
    """Elements a K-way transpose over qubit p moves: p-bits differ, order K
    (orders 1 and 2 together for k == 2)."""
    dim = 1 << n
    popcounts = np.array([bin(x).count("1") for x in range(dim)])
    rows, cols = np.indices((dim, dim))
    order = popcounts[rows ^ cols]
    differs = ((rows ^ cols) & (1 << (n - p))) != 0
    mask = differs & ((order <= 2) if k == 2 else (order == k))
    mask.setflags(write=False)
    return mask


@functools.cache
def _pt_table(n: int, p: int, k: int | None) -> np.ndarray:
    """Flat position in rho of each entry of its transpose over qubit p: the
    global one for k None, else the K-way one.  The smallest unsigned dtype
    holds the positions, which keeps the n=6 tables at 8 KB each."""
    dim = 1 << n
    a, b = 1 << (p - 1), 1 << (n - p)
    flat = np.arange(dim * dim, dtype=np.min_scalar_type(dim * dim - 1))
    # swapping the two p axes swaps the p-bits where they differ and leaves
    # the rest in place
    table = flat.reshape(a, 2, b, a, 2, b).swapaxes(1, 4).reshape(-1)
    if k is not None:
        table = np.where(_kway_mask(n, p, k).reshape(-1), table, flat)
    table.setflags(write=False)
    return table


def _transposed(rho: np.ndarray, n: int, p: int, k: int | None) -> np.ndarray:
    """rho gathered through `_pt_table(n, p, k)`, once p and its shape are checked."""
    check_index(p, 1, n, "qubit")
    dim = 1 << n
    if rho.shape != (dim, dim):
        raise QubitOutOfRange(f"matrix shape {rho.shape} does not match n={n}")
    # `take` casts the small table to intp faster than an index expression does
    return rho.reshape(-1).take(_pt_table(n, p, k)).reshape(rho.shape)


def global_pt(rho: np.ndarray, p: int, n: int) -> np.ndarray:
    """Partial transpose over qubit p: swap the p-bits of row and column labels."""
    return _transposed(rho, n, p, None)


def kway_pt(rho: np.ndarray, p: int, k: int, n: int) -> np.ndarray:
    """Selective transpose over qubit p of the elements of coherence order K
    (orders 1 and 2 for k == 2); everything else is copied."""
    check_index(k, 2, n, "K", BadK)
    return _transposed(rho, n, p, k)


def decomposition_residual(state: PureState, p: int) -> float:
    """Max-norm defect of: global transpose = sum of K-way transposes - (n-2) rho.

    Raises NonFiniteResult where the density or the sum overflows.
    """
    n = state.n_qubits
    # an overflow leaves inf or NaN in the residual, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        rho = density_from_pure(state)
        total = sum(kway_pt(rho, p, k, n) for k in range(2, n + 1))
        residual = np.max(np.abs(global_pt(rho, p, n) - total + (n - 2) * rho))
    if not np.isfinite(residual):
        raise NonFiniteResult(f"decomposition residual of qubit {p} is not finite")
    return float(residual)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Real eigenvalues in ascending order; rejects non-Hermitian input."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    # NaN and inf propagate to the largest modulus, so one pass checks both;
    # a finite entry whose modulus overflows still takes the full test
    scale = np.max(np.abs(m))
    if not np.isfinite(scale) and not np.all(np.isfinite(m)):
        raise NonFiniteResult("matrix has NaN or infinite entries")
    if np.max(np.abs(m - m.conj().T)) > _HERM_TOL * scale:
        raise NotHermitian("matrix is not Hermitian within 1e-10 of its largest entry")
    return np.linalg.eigvalsh(m)


def _kway_spectrum(state: PureState, p: int, k: int) -> np.ndarray:
    """Eigenvalues of the K-way transpose of |psi><psi|."""
    rho = density_from_pure(state)
    return hermitian_eigenvalues(kway_pt(rho, p, k, state.n_qubits))


def _global_parts(state: PureState, p: int) -> tuple:
    """(m^2, u, s1 s2 / m^2) for u = psi / m with qubit p first, m the
    `_amplitude_scale` of psi.

    The global transpose of |psi><psi| over p has the eigenvalues s1^2, s2^2
    and +-s1 s2 for the Schmidt coefficients s1, s2 of the cut p | rest, and
    by Cauchy-Binet (s1 s2)^2 = det rho_p is the sum of |D|^2 over the 2x2
    minors D, the canonical fonts of p.  Taken on u, the minors overflow only
    where the result does.
    """
    check_index(p, 1, state.n_qubits, "qubit")
    scale = float(_amplitude_scale(state.amps))
    unit = state.amps[_qubit_tables(state.n_qubits, p)[0]] / scale
    return _power(scale, 2), unit, np.sqrt(np.sum(np.abs(_minors(unit)) ** 2))


def negativity(state: PureState, p: int, kind=GLOBAL) -> float:
    """Trace norm of the requested transpose minus one.

    `kind` is "global" or an integer coherence order K in 2..n.  The global
    kind is ||psi||^2 + 2 s1 s2 - 1, a K-way kind comes from the spectrum.
    """
    if kind == GLOBAL:
        sq, unit, root = _global_parts(state, p)
        value = sq * (np.vdot(unit, unit).real + 2.0 * root) - 1.0
    else:
        # an overflowing density holds inf or NaN, which the eigensolve rejects,
        # and a trace norm past the float range sums to inf
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.sum(np.abs(_kway_spectrum(state, p, kind))) - 1.0
    if not np.isfinite(value):
        raise NonFiniteResult(f"negativity of qubit {p} is not finite")
    return float(value)


def negative_eigenvalues(state: PureState, p: int, kind=GLOBAL) -> np.ndarray:
    """Negative part of the spectrum of the requested transpose.

    The global kind has the one eigenvalue -s1 s2, or none where s1 s2 = 0.
    """
    if kind != GLOBAL:
        with np.errstate(over="ignore", invalid="ignore"):    # see negativity
            eig = _kway_spectrum(state, p, kind)
        return eig[eig < 0.0]
    sq, _, root = _global_parts(state, p)
    # a product cut has none at any scale, also where the squared scale is inf
    value = -(sq * root) if root else 0.0
    if not np.isfinite(value):
        raise NonFiniteResult(f"negative eigenvalue of qubit {p} is not finite")
    return np.array([value] if value else [], dtype=np.float64)
