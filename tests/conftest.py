import pytest

from drinfeldlab.cinf import FieldConfig
from drinfeldlab.samples import context_q3, context_q5_tame, context_q5_wild


@pytest.fixture(scope="session")
def cfg_small():
    """q = 3 over F_9, the smallest grid that carries the Carlitz objects."""
    return FieldConfig(3, 1, 2, e=18, prec=240)


@pytest.fixture(scope="session")
def ctx3():
    """q = 3 sample: rho_t = theta + tau + tau^2 over F_81, e = 72."""
    return context_q3()


@pytest.fixture(scope="session")
def ctx5():
    """Tame q = 5 sample: rho_t = theta + tau + tau^2 over F_625, e = 600."""
    return context_q5_tame()


@pytest.fixture(scope="session")
def ctx5w():
    """The q = 5 module theta + theta tau + tau^2, whose large torsion is
    wildly ramified; only its representable part is usable."""
    return context_q5_wild()
