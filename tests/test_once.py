"""The one memo rule (cinf.once): a value is computed once per owner and
arguments, and threads racing on an empty memo all get the value kept."""

import importlib
import inspect
import pkgutil
import sys
import threading

import pytest

import drinfeldlab
from drinfeldlab import cinf, motive
from drinfeldlab.agf import AndersonGF
from drinfeldlab.logext import make_log_point
from drinfeldlab.motive import MotiveMatrices
from drinfeldlab.samples import context_q3

# (owner, method, arguments) for every method cinf.once memoizes; an
# argument given as a name is that owner
MEMOIZED = [
    ("module", "_tail_envelope", ("exp", 12)),
    ("module", "_tail_envelope", ("log", 12)),
    ("module", "_lines", ("exp",)),
    ("module", "_lines", ("step",)),
    ("module", "_log_threshold", ()),
    ("module", "_torsion", (False,)),
    ("module", "_torsion", (True,)),
    ("module", "_lattice", ()),
    ("gf", "_twisted_pair", (8,)),
    ("gf", "twisted_pair_at_theta", ()),
    ("gf", "_exp_u", ()),
    ("gf", "quasi_period", ()),
    ("point", "g_vector", ("motive",)),
    ("gvector", "_pair", ()),
    ("gvector", "psi_row", ()),
    ("gvector", "block_row", ()),
    ("motive", "psi_square", ()),
    ("motive", "det_psi", ()),
    ("motive", "psi_twist", ()),
    ("motive", "phi_psi", ()),
    ("motive", "psi_at_theta", ()),
    ("motive", "reference_psi_at_theta", ()),
    ("ctx", "_motive", (16,)),
    ("ctx", "tame_period_tower", ()),
]


def _owners():
    ctx = context_q3()
    mot = ctx.motive()
    point = make_log_point(ctx.module, alpha=ctx.cfg.theta(-1))
    return {"ctx": ctx, "module": ctx.module, "motive": mot, "point": point,
            "gf": point.gf, "gvector": point.g_vector(mot)}


def _count_dots(monkeypatch):
    """Every dot call, through cinf.dot or any module's name bound to it."""
    calls = []
    real = cinf.dot

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("drinfeldlab") and getattr(mod, "dot", None) \
                is real:
            monkeypatch.setattr(mod, "dot", counted)
    return calls


def test_every_memoized_method_is_in_the_table():
    found = set()
    for info in pkgutil.iter_modules(drinfeldlab.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module("drinfeldlab." + info.name)
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                found |= {name for name, f in vars(cls).items()
                          if inspect.isfunction(f)
                          and hasattr(f, "__wrapped__")}
    assert found == {name for _, name, _ in MEMOIZED}


def test_each_value_computed_once_per_owner(monkeypatch):
    owners = _owners()
    calls = _count_dots(monkeypatch)
    for owner, name, args in MEMOIZED:
        obj = owners[owner]
        args = tuple(owners.get(a, a) if isinstance(a, str) else a
                     for a in args)
        first = getattr(obj, name)(*args)
        assert first is not None
        del calls[:]
        assert getattr(obj, name)(*args) is first, (owner, name)
        assert calls == [], (owner, name)
    # a memo key is the arguments as given: a public default is resolved
    # before the memo is read
    ctx, gf = owners["ctx"], owners["gf"]
    assert ctx.motive() is ctx.motive(16) is owners["motive"]
    assert ctx.motive(8) is not ctx.motive() and ctx.motive(8).T == 8
    assert gf.twisted_pair() is gf.twisted_pair(ctx.cfg.t_terms)
    assert owners["module"].periods() is owners["module"]._lattice()


def _motive_square(monkeypatch, build):
    ctx = context_q3()
    mot = MotiveMatrices(ctx.module, ctx.lattice, T=4)
    monkeypatch.setattr(motive, "square_products", build(
        motive.square_products))
    return mot.psi_square


def _pair_at_theta(monkeypatch, build):
    ctx = context_q3()
    gf = AndersonGF(ctx.module, ctx.cfg.theta(-1))
    monkeypatch.setattr(AndersonGF, "eval_twisted", build(
        AndersonGF.eval_twisted))
    return gf.twisted_pair_at_theta


@pytest.mark.parametrize("reader", [_motive_square, _pair_at_theta],
                         ids=["psi_square", "pair_at_theta"])
def test_racing_readers_get_the_kept_value(monkeypatch, reader):
    # both threads are inside the build at once, so both build; the first
    # value published is the one every reader gets, later reads included
    inside = threading.Barrier(2, timeout=60)

    def build(real):
        def both_build(*args):
            inside.wait()
            return real(*args)
        return both_build

    read = reader(monkeypatch, build)
    results = []
    threads = [threading.Thread(target=lambda: results.append(read()))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 2
    assert results[0] is results[1] is read()
