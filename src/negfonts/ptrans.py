"""Density matrices, global and K-way partial transposes, trace-norm negativity.

A matrix element <i|rho|j> carries a coherence order: the number of qubit
positions where the basis labels i and j differ.  The global transpose with
respect to qubit p swaps the p-bits of every element with differing p-bits;
a K-way transpose does the same only for elements of order K (orders 1 and 2
together for K = 2).  Summing the K-way transposes reconstructs the global
one up to (n-2) copies of rho.
"""

from __future__ import annotations

import numpy as np

from .errors import BadK, NonFiniteResult, NotHermitian, QubitOutOfRange
from .states import PureState

GLOBAL = "global"

_HERM_TOL = 1e-10


def density_from_pure(state: PureState) -> np.ndarray:
    """Projector |psi><psi| as a dense matrix."""
    return np.outer(state.amps, state.amps.conj())


def _popcounts(dim: int) -> np.ndarray:
    return np.array([bin(x).count("1") for x in range(dim)], dtype=np.int64)


def _swap_mask(rho: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    if not 1 <= p <= n:
        raise QubitOutOfRange(f"qubit {p} outside 1..{n}")
    dim = 1 << n
    if rho.shape != (dim, dim):
        raise QubitOutOfRange(f"matrix shape {rho.shape} does not match n={n}")
    pbit = 1 << (n - p)
    rows, cols = np.indices((dim, dim))
    differs = (rows & pbit) != (cols & pbit)
    return rows, cols, differs, pbit


def global_pt(rho: np.ndarray, p: int, n: int) -> np.ndarray:
    """Partial transpose over qubit p: swap the p-bits of row and column labels."""
    rows, cols, differs, pbit = _swap_mask(rho, n, p)
    return np.where(differs, rho[rows ^ pbit, cols ^ pbit], rho)


def kway_pt(rho: np.ndarray, p: int, k: int, n: int) -> np.ndarray:
    """Selective transpose over qubit p of elements with coherence order K.

    For k == 2 the elements of order 1 and 2 are both transposed; for k > 2
    only the elements of order exactly k.  Everything else is copied.
    """
    if not 2 <= k <= n:
        raise BadK(f"K must be in 2..{n}, got {k}")
    rows, cols, differs, pbit = _swap_mask(rho, n, p)
    order = _popcounts(1 << n)[rows ^ cols]
    if k == 2:
        selected = differs & (order <= 2)
    else:
        selected = differs & (order == k)
    return np.where(selected, rho[rows ^ pbit, cols ^ pbit], rho)


def decomposition_residual(state: PureState, p: int) -> float:
    """Max-norm defect of: global transpose = sum of K-way transposes - (n-2) rho."""
    n = state.n_qubits
    rho = density_from_pure(state)
    total = sum(kway_pt(rho, p, k, n) for k in range(2, n + 1))
    residual = global_pt(rho, p, n) - total + (n - 2) * rho
    return float(np.max(np.abs(residual)))


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Real eigenvalues in ascending order; rejects non-Hermitian input."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteResult("matrix has NaN or infinite entries")
    if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
        raise NotHermitian("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh(m)


def negativity(state: PureState, p: int, kind=GLOBAL) -> float:
    """Trace norm of the requested transpose minus one.

    `kind` is "global" or an integer coherence order K in 2..n.
    """
    n = state.n_qubits
    rho = density_from_pure(state)
    if kind == GLOBAL:
        transposed = global_pt(rho, p, n)
    else:
        transposed = kway_pt(rho, p, int(kind), n)
    eig = hermitian_eigenvalues(transposed)
    return float(np.sum(np.abs(eig)) - 1.0)


def negative_eigenvalues(state: PureState, p: int, kind=GLOBAL) -> np.ndarray:
    """Negative part of the spectrum of the requested transpose."""
    n = state.n_qubits
    rho = density_from_pure(state)
    if kind == GLOBAL:
        transposed = global_pt(rho, p, n)
    else:
        transposed = kway_pt(rho, p, int(kind), n)
    eig = hermitian_eigenvalues(transposed)
    return eig[eig < 0.0]
