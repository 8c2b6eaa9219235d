"""Exception types shared across the package, and the tolerance check."""

import math


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


class NotHermitian(NegfontsError):
    """Matrix fails the Hermiticity check."""


class WrongArity(NegfontsError):
    """Operation requires a fixed qubit count the state does not have."""


class SpecMismatch(NegfontsError):
    """Font specification is inconsistent with the given state."""


class UnknownState(NegfontsError):
    """Name not present in the state catalog."""


class MissingParameter(NegfontsError):
    """Catalog family invoked without a required parameter."""


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


class UnsupportedArity(NegfontsError):
    """Command supports only 2-, 3-, or 4-qubit states."""
