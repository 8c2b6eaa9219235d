"""Exception types shared across the package, and the checks of tolerances,
integer arguments and qubit counts."""

import math

import numpy as np


class NegfontsError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NegfontsError):
    """Amplitude vector length does not match 2**n_qubits."""


class ZeroVector(NegfontsError):
    """All amplitudes vanish; the vector does not define a state."""


class NonFinite(NegfontsError):
    """Amplitudes contain NaN or infinity."""


class QubitOutOfRange(NegfontsError):
    """Qubit index outside 1..n_qubits, or qubit count outside 2..6."""


class NonUnitary(NegfontsError):
    """Matrix fails the unitarity check."""


class InvalidPermutation(NegfontsError):
    """Sequence is not a bijection on 1..n."""


class BadK(NegfontsError):
    """Coherence order K outside 2..n."""


class BadBudget(NegfontsError):
    """A trial, restart or iteration count is out of range."""


class BadTolerance(NegfontsError):
    """A zero tolerance or threshold is negative or not finite."""


def check_tolerance(tol: float, name: str = "tol") -> None:
    """Raise BadTolerance unless 0 <= tol < inf (NaN fails both comparisons)."""
    if not 0 <= tol < math.inf:
        raise BadTolerance(f"{name} must be finite and at least 0, got {tol}")


def check_index(value, least: int, most: int | None, name: str,
                error: type[NegfontsError] = QubitOutOfRange) -> None:
    """Raise `error` unless value is an int or numpy integer, not a bool, in
    least..most; most=None sets no upper end."""
    # the exact-int test first: it is the common case, and half the cost
    if not ((type(value) is int
             or isinstance(value, (int, np.integer)) and not isinstance(value, bool))
            and least <= value and (most is None or value <= most)):
        span = f"of at least {least}" if most is None else f"in {least}..{most}"
        raise error(f"{name} must be an integer {span}, got {value!r}")


def check_arity(state, n: int, op: str) -> None:
    """Raise WrongArity unless the state has n qubits."""
    if state.n_qubits != n:
        raise WrongArity(f"{op} requires n={n}, got n={state.n_qubits}")


class NotHermitian(NegfontsError):
    """Matrix fails the Hermiticity check."""


class WrongArity(NegfontsError):
    """Operation requires a fixed qubit count the state does not have."""


class SpecMismatch(NegfontsError):
    """Font specification is inconsistent with the given state."""


class UnknownState(NegfontsError):
    """Name not present in the state catalog."""


class MissingParameter(NegfontsError):
    """Catalog family invoked with a parameter missing, unknown or not a number."""


class UnknownFamily(NegfontsError):
    """Family name has no closed-form expectations."""


class BadGrid(NegfontsError):
    """Sweep grid specification is empty or malformed."""


class ParseError(NegfontsError):
    """State file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SearchDrift(NegfontsError):
    """Font search left the local-unitary orbit: an invariant moved beyond 1e-8."""


class NonFiniteResult(NegfontsError):
    """A computed value is NaN or infinite, so no report is written."""
