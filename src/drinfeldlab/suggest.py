"""Automatic choice of the minimal workable grid and residue field.

Given a module shape (rank plus the theta-polynomial coefficients), the
search starts from the smallest configuration the validation rules allow
(e = (q-1) q^depth, m = 2 so the sign constant exists) and lets the
computation itself drive refinement: a GridTooCoarse carries the factor
the grid is missing, a ResidueFieldTooSmall bumps the extension degree.
The probe is full torsion enumeration plus the sign constant, which is
what every later construction needs.

Wildly ramified modules refine forever by construction; the search stops
after a bounded number of grid refinements and reports the suspicion
instead.
"""

from .cinf import FieldConfig
from .drinfeld import DrinfeldModule
from .errors import (ConfigError, GridTooCoarse, NoConvergence,
                     ResidueFieldTooSmall)
from .motive import xi_constant

_MAX_GRID_REFINEMENTS = 4
_MAX_M = 16


def _build_module(cfg, rank, kappa_codes, u_codes):
    if rank == 1:
        return DrinfeldModule(cfg, 1)
    kappa = cfg.from_theta_poly([cfg.field.from_int(c) for c in kappa_codes])
    u = cfg.from_theta_poly([cfg.field.from_int(c) for c in u_codes])
    return DrinfeldModule(cfg, 2, kappa, u)


def suggest_config(p, s=1, rank=2, kappa_poly=(1,), u_poly=(1,), depth=2,
                   prec=240, **extra):
    """Minimal (m, e) for which the module's torsion splits and the sign
    constant exists.  kappa_poly/u_poly are integer coefficient lists of
    theta-polynomials (low degree first).

    Returns {"m", "e", "refinements", "torsion_valuations"}; raises
    GridTooCoarse with a wild-ramification note when grid refinement does
    not terminate.
    """
    m = 2
    # the first config bounds p, s and depth before any power is formed
    e = base = FieldConfig(p, s, m, depth=depth, prec=prec, **extra).e
    refinements = 0
    while True:
        try:
            cfg = FieldConfig(p, s, m, e=e, depth=depth, prec=prec, **extra)
            xi_constant(cfg)
            module = _build_module(cfg, rank, kappa_poly, u_poly)
            points = module.torsion_points()
            return {
                "p": p, "s": s, "m": m, "e": e,
                "refinements": refinements,
                "torsion_valuations": sorted(
                    {x.valuation() for x in points}),
            }
        except ResidueFieldTooSmall:
            m += 2
            if m > _MAX_M:
                raise
        except GridTooCoarse as ex:
            refinements += 1
            if refinements > _MAX_GRID_REFINEMENTS:
                raise GridTooCoarse(
                    "grid refinement did not terminate after %d rounds; "
                    "the torsion is likely wildly ramified and has no "
                    "theta-power-grid expansion" % _MAX_GRID_REFINEMENTS,
                    hint="this module's periods cannot be represented in "
                         "any F_{q^m}((theta^(-1/e)))")
            # a slope with denominator f becomes integral on the e*f grid,
            # and base | e keeps the validation rule satisfied
            e *= ex.needed_factor or p
        except NoConvergence as ex:
            raise ConfigError(
                "torsion search failed to converge: %s" % ex) from ex
