"""What a cold start imports, and the lazily resolved package names.

The footprint tests run fresh interpreters with ``-S -X importtime`` (no
site-packages, no bytecode written) and read the modules each one imported
from the import log.
"""

import importlib
import os
import subprocess
import sys

import pytest

import drinfeldlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(drinfeldlab.__file__)))

# modules no numeric command outside their own should load
_HEAVY = {"drinfeldlab.verify", "drinfeldlab.logext", "drinfeldlab.motive",
          "drinfeldlab.agf", "drinfeldlab.skew", "drinfeldlab.suggest"}


def _imported(*argv):
    """Modules a fresh interpreter imports while running python argv."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime"]
                          + list(argv), env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _library(modules):
    return {m for m in modules if m.split(".")[0] == "drinfeldlab"}


def test_package_import_loads_no_submodule():
    assert _library(_imported("-c", "import drinfeldlab")) == {"drinfeldlab"}


def test_exp_eval_loads_only_what_it_runs():
    mods = _imported("-m", "drinfeldlab", "exp-eval", "--q", "3", "--z",
                     "theta^-1", "--json")
    assert "drinfeldlab.drinfeld" in mods
    assert not mods & _HEAVY
    # no debug logging, and no Fraction: nothing prints a theta-valuation
    assert not mods & {"logging", "fractions"}


def test_torsion_loads_no_fractions():
    # the torsion polygon is read off an integer lower envelope
    mods = _imported("-m", "drinfeldlab", "torsion", "--q", "3", "--json")
    assert "drinfeldlab.roots" in mods
    assert not mods & _HEAVY - {"drinfeldlab.skew"}
    assert not mods & {"logging", "fractions"}


def test_psi_loads_motive_but_not_the_log_layer():
    mods = _imported("-m", "drinfeldlab", "psi", "--q", "3", "--json")
    assert "drinfeldlab.motive" in mods
    assert not mods & {"drinfeldlab.verify", "drinfeldlab.logext"}


def test_log_point_loads_no_motive():
    # a log point is a lambda, its exp check and the generating function
    # that check reads: no series, no motive
    mods = _imported("-m", "drinfeldlab", "log-point", "--q", "3",
                     "--alpha", "theta^-1", "--json")
    assert "drinfeldlab.logext" in mods
    assert not mods & {"drinfeldlab.motive", "drinfeldlab.tseries",
                       "drinfeldlab.verify"}


def test_every_public_name_is_its_submodules_object():
    for name in drinfeldlab.__all__:
        sub = importlib.import_module(
            "drinfeldlab." + drinfeldlab._EXPORTS[name])
        assert getattr(drinfeldlab, name) is getattr(sub, name)
        # resolved on each access, never copied into the package
        assert name not in vars(drinfeldlab)
    assert set(drinfeldlab._EXPORTS) == set(drinfeldlab.__all__)


def test_package_name_follows_its_submodule(monkeypatch):
    roots = importlib.import_module("drinfeldlab.roots")
    original = roots.all_nonzero_roots
    monkeypatch.setattr(roots, "all_nonzero_roots", len)
    assert drinfeldlab.all_nonzero_roots is len
    monkeypatch.undo()
    assert drinfeldlab.all_nonzero_roots is original


def test_dir_and_star_import_cover_all():
    assert set(drinfeldlab.__all__) <= set(dir(drinfeldlab))
    assert "__version__" in dir(drinfeldlab)
    ns = {}
    exec("from drinfeldlab import *", ns)
    assert set(drinfeldlab.__all__) <= set(ns)
    assert ns["FieldConfig"] is drinfeldlab.FieldConfig


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        drinfeldlab.no_such_name
    assert not hasattr(drinfeldlab, "SampleContext")
    with pytest.raises(ImportError):
        exec("from drinfeldlab import no_such_name", {})
