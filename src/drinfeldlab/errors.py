"""Exception hierarchy.

Every failure mode of the library is a subclass of DrinfeldLabError and
carries the CLI's exit code for it in ``exit_code``: 2 for a configuration
error (and any error not listed below), 3 for the precision and grid
family, 4 for the verification family.  Errors that have a standard
remediation carry it in ``hint``.
"""


class DrinfeldLabError(Exception):
    """Base class for all library errors."""

    exit_code = 2

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

    exit_code = 3


class DivisionByApparentZero(DrinfeldLabError):
    """Divisor is zero to its stated precision."""

    exit_code = 3


class IndeterminateValuation(DrinfeldLabError):
    """Valuation requested of a value that is zero to precision only."""

    exit_code = 3


class GridTooCoarse(DrinfeldLabError):
    """A required exponent does not lie on the theta^(1/e) grid.

    needed_factor, when known, is a multiplier for e that would make this
    particular step representable (configuration search uses it).
    """

    exit_code = 3

    def __init__(self, message, hint=None, needed_factor=None):
        super().__init__(message, hint)
        self.needed_factor = needed_factor


class NoConvergence(DrinfeldLabError):
    """Newton iteration cannot certify convergence from the given seed.

    residual_valuation, when known, is v(f) at the iterate where an
    iteration stalled.
    """

    exit_code = 3

    def __init__(self, message, hint=None, residual_valuation=None):
        super().__init__(message, hint)
        self.residual_valuation = residual_valuation


class ResidueFieldTooSmall(DrinfeldLabError):
    """A residual equation has no root in the configured finite field."""

    exit_code = 3


class DivergentEvaluation(DrinfeldLabError):
    """Series evaluation outside its certified convergence region."""

    exit_code = 3


class PoleHit(DrinfeldLabError):
    """Evaluation point coincides with a pole to working precision."""

    exit_code = 3


class ShapeMismatch(DrinfeldLabError):
    """Incompatible matrix/vector shapes."""


class SingularSpecialization(DrinfeldLabError):
    """A matrix that must be invertible is singular to precision."""

    exit_code = 4


class NotAUnit(DrinfeldLabError):
    """A quantity expected to be a unit has nonzero valuation."""

    exit_code = 4


class IndependenceFailure(DrinfeldLabError):
    """Chosen lattice seeds produced a degenerate period basis."""

    exit_code = 4


class VerificationFailed(DrinfeldLabError):
    """A constructed object fails its defining identity."""

    exit_code = 4
