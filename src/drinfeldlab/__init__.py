"""drinfeldlab: exact arithmetic for rank-1/2 Drinfeld modules.

Construction of Drinfeld modules over precision-tracked Laurent expansions
in theta^(-1/e), their periods, quasi-periods, logarithms, Anderson
generating functions and Frobenius difference systems, with a verification
suite that machine-checks every identity at configurable precision.

The names below load their submodule on first use (PEP 562), so importing
the package, or running one CLI command, loads only the modules it needs.
A name is looked up in its submodule on every access, never copied into
the package, so it is always the submodule's current object.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "AndersonGF": "agf",
    "CInfApprox": "cinf", "FieldConfig": "cinf", "INF": "cinf",
    "Biderivation": "drinfeld", "DrinfeldModule": "drinfeld",
    "Lattice": "drinfeld", "Tower": "drinfeld",
    "compose_qlinear": "drinfeld", "verify_morphism": "drinfeld",
    "ConfigError": "errors", "DivergentEvaluation": "errors",
    "DivisionByApparentZero": "errors", "DrinfeldLabError": "errors",
    "GridTooCoarse": "errors", "IndeterminateValuation": "errors",
    "IndependenceFailure": "errors", "NoConvergence": "errors",
    "NotAUnit": "errors", "PoleHit": "errors",
    "PrecisionExhausted": "errors", "ResidueFieldTooSmall": "errors",
    "ShapeMismatch": "errors", "SingularSpecialization": "errors",
    "VerificationFailed": "errors",
    "FiniteField": "fields",
    "ExtendedSystem": "logext", "GVector": "logext", "LogPoint": "logext",
    "make_log_point": "logext", "relation_certificate": "logext",
    "MotiveMatrices": "motive", "OmegaData": "motive",
    "phi_matrix": "motive", "xi_constant": "motive",
    "all_nonzero_roots": "roots",
    "SigmaPoly": "skew", "SkewPoly": "skew", "TwistedPoly": "skew",
    "TMatrix": "tseries", "TSeries": "tseries",
    "run_suite": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    sub = _EXPORTS.get(name)
    if sub is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(import_module("." + sub, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
