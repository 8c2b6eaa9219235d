"""Pure-state vectors, basis indexing, and local-unitary actions.

Convention: qubit 1 is the most significant bit of the basis index, so the
amplitude of |i1 i2 ... in> sits at array position sum_k i_k * 2**(n-k).
Reshaping the vector to shape (2,)*n therefore maps qubit k to axis k-1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPermutation,
    NonFinite,
    NonUnitary,
    ZeroVector,
    check_index,
)

MIN_QUBITS = 2
MAX_QUBITS = 6

_UNITARY_TOL = 1e-12
_ZERO_FLOOR = 1e-300


def index_of_bits(bits: Sequence[int]) -> int:
    """Array position of basis label (i1, ..., in), qubit 1 most significant."""
    pos = 0
    for b in bits:
        check_index(b, 0, 1, "bit")
        pos = (pos << 1) | int(b)
    return pos


def bits_of_index(index: int, n: int) -> tuple[int, ...]:
    """Basis label (i1, ..., in) of an array position."""
    return tuple((index >> (n - k)) & 1 for k in range(1, n + 1))


def _power(x: float, n: int) -> float:
    """x ** n of a Python float as numpy's float64 computes it (libm pow, which
    differs from x * x in the last bit of some squares), saturating to inf
    where Python raises OverflowError and numpy warns."""
    try:
        return x ** n
    except OverflowError:
        return math.inf


def _amplitude_scale(amps: np.ndarray) -> np.float64:
    """Largest modulus of the amplitudes, or, where that modulus overflows,
    their largest real or imaginary part: finite for any finite amplitudes."""
    scale = np.max(np.abs(amps))
    if scale == math.inf:                   # a float compare, cheaper than np.isinf
        scale = max(np.max(np.abs(amps.real)), np.max(np.abs(amps.imag)))
    return scale


@dataclass(frozen=True, eq=False)
class PureState:
    """Dense complex amplitude vector over the computational basis."""

    n_qubits: int
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def norm(self) -> float:
        """Euclidean norm, finite whenever it fits in a float.

        If the plain sum of squares underflows to 0 or overflows to inf, the
        norm is taken on the amplitudes divided by `_amplitude_scale`.  It is
        a numpy float, so a degree-d threshold `tol * norm ** d` saturates to inf
        instead of raising OverflowError.
        """
        with np.errstate(over="ignore", under="ignore"):
            norm = np.linalg.norm(self.amps)
            if norm == 0.0 or norm == math.inf:    # see _amplitude_scale
                scale = _amplitude_scale(self.amps)
                if scale > 0.0:
                    norm = scale * np.linalg.norm(self.amps / scale)
        return np.float64(norm)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (2,)*n; axis k-1 is qubit k."""
        return self.amps.reshape((2,) * self.n_qubits)

    def amplitude(self, bits: Sequence[int]) -> complex:
        return complex(self.amps[index_of_bits(bits)])


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """2x2 unitary acting on one qubit; `special` marks unit determinant."""

    matrix: np.ndarray
    qubit: int
    special: bool = False


def make_state(n: int, amps: Iterable[complex]) -> PureState:
    """Build a state from raw amplitudes; no normalization is applied."""
    check_index(n, MIN_QUBITS, MAX_QUBITS, "n_qubits")
    vec = np.asarray(list(amps) if not isinstance(amps, np.ndarray) else amps,
                     dtype=np.complex128).ravel().copy()
    if vec.size != (1 << n):
        raise DimensionMismatch(f"need {1 << n} amplitudes for n={n}, got {vec.size}")
    if not np.all(np.isfinite(vec.view(np.float64))):
        raise NonFinite("amplitudes must be finite")
    if np.max(np.abs(vec)) < _ZERO_FLOOR:
        raise ZeroVector("all amplitudes vanish")
    vec.setflags(write=False)
    return PureState(n_qubits=n, amps=vec)


def normalize(state: PureState) -> PureState:
    """Rescale to unit Euclidean norm, preserving direction.

    Dividing by `_amplitude_scale` first keeps the squared norm clear of
    underflow and overflow at any finite scale.
    """
    scale = float(_amplitude_scale(state.amps))
    if scale < _ZERO_FLOOR:
        raise ZeroVector("cannot normalize a zero vector")
    vec = state.amps / scale
    vec /= np.linalg.norm(vec)
    vec.setflags(write=False)
    return PureState(state.n_qubits, vec)


def _check_unitary(m: np.ndarray, special: bool = False) -> None:
    """Raise NonUnitary unless m is a 2x2 unitary within 1e-12, of unit
    determinant if `special`.

    The defect sums the moduli of the distinct entries of m^H m - I on Python
    numbers, so a NaN or infinite entry gives a NaN or infinite defect, which
    `not defect <= tol` rejects.
    """
    if m.shape != (2, 2):
        raise NonUnitary(f"expected a 2x2 matrix, got shape {m.shape}")
    a, b, c, d = m.ravel().tolist()
    defect = (abs(abs(a) * abs(a) + abs(c) * abs(c) - 1)
              + abs(abs(b) * abs(b) + abs(d) * abs(d) - 1)
              + abs(a.conjugate() * b + c.conjugate() * d))
    if not defect <= _UNITARY_TOL:
        raise NonUnitary("matrix is not unitary within 1e-12")
    if special and not abs(a * d - b * c - 1) <= _UNITARY_TOL:
        raise NonUnitary("special unitary must have unit determinant")


def local_unitary(matrix: np.ndarray, qubit: int, special: bool = False) -> LocalUnitary:
    """Validate and wrap a 2x2 unitary for one qubit."""
    m = np.array(matrix, dtype=np.complex128)
    _check_unitary(m, special)
    m.setflags(write=False)
    return LocalUnitary(matrix=m, qubit=qubit, special=special)


def apply_local_unitary(state: PureState, u: LocalUnitary) -> PureState:
    """Act with u.matrix on the indicated qubit."""
    n = state.n_qubits
    check_index(u.qubit, 1, n, "qubit")
    _check_unitary(u.matrix)
    # the qubit's axis first, the others flattened in order: the one matmul
    # `np.tensordot` would make, without its bookkeeping
    lead = 1 << (u.qubit - 1)
    psi = state.amps.reshape(lead, 2, -1).swapaxes(0, 1).reshape(2, -1)
    vec = np.dot(u.matrix, psi).reshape(2, lead, -1).swapaxes(0, 1).reshape(-1)
    vec.setflags(write=False)
    return PureState(n, vec)


def permute_qubits(state: PureState, perm: Sequence[int]) -> PureState:
    """Relabel qubits: the qubit at position k moves to position perm[k-1]."""
    n = state.n_qubits
    perm = tuple(perm)
    for p in perm:      # int() would take 1.5 and True
        check_index(p, 1, n, "a permuted qubit", InvalidPermutation)
    if sorted(perm) != list(range(1, n + 1)):
        raise InvalidPermutation(f"{tuple(map(int, perm))} is not a permutation of 1..{n}")
    vec = state.amps[_permutation_table(n, perm)]
    vec.setflags(write=False)
    return PureState(n, vec)


@functools.cache
def _permutation_table(n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Position in the input amplitudes of each amplitude of the permuted
    state, for a checked permutation of 1..n."""
    # output axis j-1 receives the input axis that maps to position j
    axes = [perm.index(j) for j in range(1, n + 1)]
    table = np.arange(1 << n).reshape((2,) * n).transpose(axes).reshape(-1)
    table.setflags(write=False)
    return table


def inverse_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm, start=1):
        inv[new - 1] = old
    return tuple(inv)


def random_state(n: int, seed) -> PureState:
    """Unit vector with i.i.d. standard complex Gaussian amplitudes."""
    check_index(n, MIN_QUBITS, MAX_QUBITS, "n_qubits")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return normalize(make_state(n, vec))


def random_special_unitary(seed, qubit: int) -> LocalUnitary:
    """Haar-like SU(2) sample: U = [[a, -conj(b)], [b, conj(a)]], |a|^2+|b|^2 = 1."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    r = np.hypot(abs(a), abs(b))
    a, b = a / r, b / r
    m = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
    return local_unitary(m, qubit, special=True)


def inner(lhs: PureState, rhs: PureState) -> complex:
    """Hermitian inner product <lhs|rhs>."""
    if lhs.n_qubits != rhs.n_qubits:
        raise DimensionMismatch("states have different qubit counts")
    return complex(np.vdot(lhs.amps, rhs.amps))
