"""Exception types shared across the package."""


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
