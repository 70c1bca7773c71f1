"""The built-in sample modules behind ``--q`` and the verification suite.

q3:      rho_t = theta + tau + tau^2 over F_81, e = 72;
q5-tame: rho_t = theta + tau + tau^2 over F_625, e = 600;
q5:      rho_t = theta + theta tau + tau^2 over F_25, e = 100, whose large
         torsion is wildly ramified, so only its representable part is
         usable.
"""

from .cinf import FieldConfig
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
        self._motive = None
        self._tame_tower = None

    @property
    def lattice(self):
        return self.module.periods()

    def motive(self, T=16):
        from .motive import MotiveMatrices
        if self._motive is None or self._motive.T != T:
            self._motive = MotiveMatrices(self.module, self.lattice, T=T)
        return self._motive

    def tame_period_tower(self):
        """First period from the representable torsion (works even when the
        rest of the torsion is wild)."""
        if self._tame_tower is None:
            pts, _ = self.module.torsion_points(partial=True)
            self._tame_tower = self.module.period_from_seed(pts[0])
        return self._tame_tower


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
