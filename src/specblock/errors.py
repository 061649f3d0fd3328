"""Exception hierarchy for the library."""


class SpecblockError(Exception):
    """Base class for all library errors."""


class ArgumentError(SpecblockError):
    """An input violates a documented precondition."""


class ParseError(ArgumentError):
    """A problem file or matrix file cannot be parsed."""


class ProfileError(ArgumentError):
    """Plasma profile samples violate their invariants."""


class NumericError(SpecblockError):
    """A numerical routine failed to meet its contract (e.g. no convergence)."""


class HypothesisError(SpecblockError):
    """A theorem hypothesis is violated.

    Distinct from a bound *failing*: callers catch this, and the particular
    hypotheses below, to mark a check "not applicable" rather than "failed".
    """


class SingularShiftError(HypothesisError):
    """A spectral shift lands on, or too close to, spectrum it must avoid."""


class LandmarkError(HypothesisError):
    """No spectrum of the assembled matrix lies above max sigma(C)."""


class NotAGraphError(HypothesisError):
    """A spectral subspace contains a vector with vanishing first component."""


class DegenerateGapError(HypothesisError):
    """An eigenvalue gap collapsed; isolation radii are undefined."""


class PairingError(HypothesisError):
    """An eigenvector could not be paired with a diagonal-block eigenvector."""


class UnderflowError(HypothesisError):
    """A quantity a statement needs underflows double precision at the
    block's scale."""
