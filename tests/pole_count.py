"""A module over a copy of its FieldConfig with a chosen pole count, for
tests that need a generating function with I poles."""

from drinfeldlab.cinf import FieldConfig
from drinfeldlab.drinfeld import DrinfeldModule

_TWINS = {}


def with_pole_count(module, I):
    """module's twin over its config with pole_count I, built once per
    (module, I): every AndersonGF over it has I poles.  The two configs are
    the same field and grid (FieldConfig.same_as), so their values mix."""
    twin = _TWINS.get((module, I))
    if twin is None:
        c = module.cfg
        cfg = FieldConfig(c.p, c.s, c.m, c.modulus, e=c.e, depth=c.depth,
                          prec=c.prec, rel_prec=c.rel_prec,
                          t_terms=c.t_terms, exp_depth=c.exp_depth,
                          pole_count=I, tower_cap=c.tower_cap)
        twin = (DrinfeldModule(cfg, 1) if module.rank == 1
                else DrinfeldModule(cfg, 2, module.kappa, module.u))
        _TWINS[module, I] = twin
    return twin
