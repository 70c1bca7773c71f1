"""drinfeldlab: exact arithmetic for rank-1/2 Drinfeld modules.

Construction of Drinfeld modules over precision-tracked Laurent expansions
in theta^(-1/e), their periods, quasi-periods, logarithms, Anderson
generating functions and Frobenius difference systems, with a verification
suite that machine-checks every identity at configurable precision.
"""

from .agf import AndersonGF
from .cinf import CInfApprox, FieldConfig, INF
from .drinfeld import (Biderivation, DrinfeldModule, Lattice, Tower,
                       compose_qlinear, verify_morphism)
from .errors import (ConfigError, DivergentEvaluation,
                     DivisionByApparentZero, DrinfeldLabError, GridTooCoarse,
                     IndeterminateValuation, IndependenceFailure,
                     NoConvergence, NotAUnit, PoleHit, PrecisionExhausted,
                     ResidueFieldTooSmall, ShapeMismatch,
                     SingularSpecialization, VerificationFailed)
from .fields import FiniteField
from .logext import (ExtendedSystem, GVector, LogPoint, make_log_point,
                     relation_certificate)
from .motive import MotiveMatrices, OmegaData, phi_matrix, xi_constant
from .roots import (NewtonPolygon, all_nonzero_roots, hensel_root,
                    newton_polygon)
from .skew import SigmaPoly, SkewPoly, TwistedPoly
from .tseries import TMatrix, TSeries
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "AndersonGF", "Biderivation", "CInfApprox", "ConfigError",
    "DivergentEvaluation", "DivisionByApparentZero", "DrinfeldLabError",
    "DrinfeldModule", "ExtendedSystem", "FieldConfig", "FiniteField",
    "GVector", "GridTooCoarse", "INF", "IndeterminateValuation",
    "IndependenceFailure", "Lattice", "LogPoint", "MotiveMatrices",
    "NewtonPolygon", "NoConvergence", "NotAUnit", "OmegaData", "PoleHit",
    "PrecisionExhausted", "ResidueFieldTooSmall", "ShapeMismatch",
    "SigmaPoly", "SingularSpecialization", "SkewPoly", "TMatrix", "TSeries",
    "Tower", "TwistedPoly", "VerificationFailed", "all_nonzero_roots",
    "compose_qlinear", "hensel_root", "make_log_point", "newton_polygon",
    "phi_matrix", "relation_certificate", "run_suite", "verify_morphism",
    "xi_constant",
]
