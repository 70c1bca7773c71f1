"""Exception hierarchy.

Every failure mode of the library is a subclass of DrinfeldLabError so
callers (and the CLI) can map errors to exit codes uniformly.  Errors that
have a standard remediation carry it in ``hint``.
"""


class DrinfeldLabError(Exception):
    """Base class for all library errors."""

    def __init__(self, message, hint=None):
        super().__init__(message)
        self.hint = hint

    def record(self):
        rec = {"error": type(self).__name__, "message": str(self)}
        if self.hint:
            rec["hint"] = self.hint
        return rec


class ConfigError(DrinfeldLabError):
    """Invalid field/run configuration."""


class PrecisionExhausted(DrinfeldLabError):
    """An operation needs a known leading term but none survives."""


class DivisionByApparentZero(DrinfeldLabError):
    """Divisor is zero to its stated precision."""


class IndeterminateValuation(DrinfeldLabError):
    """Valuation requested of a value that is zero to precision only."""


class GridTooCoarse(DrinfeldLabError):
    """A required exponent does not lie on the theta^(1/e) grid.

    needed_factor, when known, is a multiplier for e that would make this
    particular step representable (configuration search uses it).
    """

    def __init__(self, message, hint=None, needed_factor=None):
        super().__init__(message, hint)
        self.needed_factor = needed_factor


class NoConvergence(DrinfeldLabError):
    """Newton iteration cannot certify convergence from the given seed.

    residual_valuation, when known, is v(f) at the iterate where an
    iteration stalled.
    """

    def __init__(self, message, hint=None, residual_valuation=None):
        super().__init__(message, hint)
        self.residual_valuation = residual_valuation


class ResidueFieldTooSmall(DrinfeldLabError):
    """A residual equation has no root in the configured finite field."""


class DivergentEvaluation(DrinfeldLabError):
    """Series evaluation outside its certified convergence region."""


class PoleHit(DrinfeldLabError):
    """Evaluation point coincides with a pole to working precision."""


class ShapeMismatch(DrinfeldLabError):
    """Incompatible matrix/vector shapes."""


class SingularSpecialization(DrinfeldLabError):
    """A matrix that must be invertible is singular to precision."""


class NotAUnit(DrinfeldLabError):
    """A quantity expected to be a unit has nonzero valuation."""


class IndependenceFailure(DrinfeldLabError):
    """Chosen lattice seeds produced a degenerate period basis."""


class VerificationFailed(DrinfeldLabError):
    """A constructed object fails its defining identity."""
