"""The built-in sample modules behind ``--q`` and the verification suite.

q3:      rho_t = theta + tau + tau^2 over F_81, e = 72;
q5-tame: rho_t = theta + tau + tau^2 over F_625, e = 600;
q5:      rho_t = theta + theta tau + tau^2 over F_25, e = 100, whose large
         torsion is wildly ramified, so only its representable part is
         usable.
"""

from .cinf import FieldConfig, once
from .drinfeld import DrinfeldModule


class SampleContext:
    """Lazily built sample data for one configuration."""

    def __init__(self, label, cfg, kappa=None, u=None, wild=False):
        self.label = label
        self.cfg = cfg
        self.wild = wild
        self.carlitz = DrinfeldModule(cfg, 1)
        if kappa is None and u is None:
            self.module = None
        else:
            self.module = DrinfeldModule(cfg, 2, kappa, u)
        self._memo = {}

    @property
    def lattice(self):
        return self.module.periods()

    def motive(self, T=16):
        """The motive through T coefficients; one per T (_motive)."""
        return self._motive(T)

    @once
    def _motive(self, T):
        from .motive import MotiveMatrices
        return MotiveMatrices(self.module, self.lattice, T=T)

    @once
    def tame_period_tower(self):
        """First period from the representable torsion (works even when the
        rest of the torsion is wild)."""
        pts, _ = self.module.torsion_points(partial=True)
        return self.module.period_from_seed(pts[0])


def context_q3():
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    return SampleContext("q3", cfg, kappa=cfg.one(), u=cfg.one())


def context_q5_tame():
    cfg = FieldConfig(5, 1, 4, e=600, prec=240)
    return SampleContext("q5-tame", cfg, kappa=cfg.one(), u=cfg.one())


def context_q5_wild():
    cfg = FieldConfig(5, 1, 2, e=100, prec=240)
    return SampleContext("q5", cfg, kappa=cfg.theta(), u=cfg.one(),
                         wild=True)
