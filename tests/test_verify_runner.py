"""The suite runner of drinfeldlab.verify: the q5 group in a forked child
beside q3, or both groups in process, with the same report bytes, error
records and exit codes on either path, and no child left afterwards."""

import json
import os
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from drinfeldlab import verify
from drinfeldlab.cli import main
from drinfeldlab.errors import ConfigError

_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" \
    / "suite.json"


def _golden():
    return json.loads(_GOLDEN.read_text())["stdout"]


def _cpus(monkeypatch, n):
    """Make n CPUs look usable and count the forks run_suite makes."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "in-process"])
def runner(request, monkeypatch):
    """Each path of run_suite, chosen by the CPUs it sees: two fork, one
    does not; yields (path, forks)."""
    forks = _cpus(monkeypatch, 2 if request.param == "forked" else 1)
    yield request.param, forks
    _assert_no_child()
    assert len(forks) == (request.param == "forked")


def _verify(capsys, *extra):
    code = main(["verify", "--json", *extra])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.slow
def test_both_paths_print_the_golden_bytes(capsys, runner):
    assert _verify(capsys) == (0, _golden(), "")


@pytest.mark.slow
def test_timings_are_the_only_extra_field(capsys, runner):
    code, out, err = _verify(capsys, "--timings")
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert all(r.pop("wall_time") >= 0 for r in got["checks"])
    assert got == json.loads(_golden())


@pytest.mark.slow
@pytest.mark.parametrize("label", ["q3", "q5"])
def test_a_raising_group_exits_as_in_process(capsys, monkeypatch, runner,
                                             label):
    # q5 (the wild sample, the child's last job) raises in the child's
    # group, which the parent then runs itself; q3 raises in the parent's
    # group, whose child is killed and reaped
    real = verify.check_log_layer

    def check_log_layer(ctx):
        if ctx.label == label:
            raise ConfigError("injected at %s" % label)
        return real(ctx)

    monkeypatch.setattr(verify, "check_log_layer", check_log_layer)
    code, out, err = _verify(capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ConfigError",
                               "message": "injected at %s" % label}


@pytest.mark.slow
def test_a_dead_child_leaves_its_group_to_the_parent(capsys, monkeypatch):
    # the child dies before it sends a byte; the parent runs the q5 group
    forks = _cpus(monkeypatch, 2)

    def die(obj):
        os._exit(3)

    monkeypatch.setattr(verify, "json",
                        SimpleNamespace(dumps=die, loads=json.loads))
    assert _verify(capsys) == (0, _golden(), "")
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.slow
def test_a_threaded_caller_runs_in_process(monkeypatch):
    forks = _cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        report = verify.run_suite()
    finally:
        release.set()
        other.join()
    assert forks == [] and report["pass"]
