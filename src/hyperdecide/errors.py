"""Exception types shared across the package.

Validation errors name the violated structural requirement and the offending
index so a failing input can be repaired without rerunning the check by hand.
"""


class HyperdecideError(Exception):
    """Base class for everything raised deliberately by this package."""


class DimensionError(HyperdecideError):
    """Array has the wrong shape, or the state dimension is unsupported."""


class NonFiniteWeightError(HyperdecideError):
    """An interaction weight is infinite or NaN."""


class AsymmetryError(HyperdecideError):
    """A matrix required to be symmetric is not."""


class SelfLoopError(HyperdecideError):
    """An interaction includes the agent itself, or repeats a participant."""


class NegativeWeightError(HyperdecideError):
    """Interaction weights must be nonnegative."""


class DisconnectedError(HyperdecideError):
    """The pairwise support graph does not connect all agents."""


class ZeroDegreeError(HyperdecideError):
    """An agent receives no influence at all (generalized degree zero)."""


class GenerationError(HyperdecideError):
    """Random instance generation exhausted its resampling budget."""


class FormatError(HyperdecideError):
    """Text serialization could not be parsed; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotSymmetricError(HyperdecideError):
    """Symmetric eigensolver got a matrix that is not symmetric."""


class ConvergenceError(HyperdecideError):
    """An eigenvalue routine failed to converge or missed its residual."""


class MultiplicityError(HyperdecideError):
    """The leading eigenvalue is not numerically simple."""


class DivergenceError(HyperdecideError):
    """A trajectory left the admissible region: a component passed
    max(1e6, 10 pi) in magnitude or turned NaN."""


class NewtonDivergence(HyperdecideError):
    """Damped Newton ran out of iterations or line-search reductions."""


class SingularJacobian(HyperdecideError):
    """Newton hit a Jacobian too singular to solve against."""


class NoBistabilityError(HyperdecideError):
    """The requested bistability interval is empty or fails verification."""
