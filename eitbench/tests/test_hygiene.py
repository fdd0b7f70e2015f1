"""Process hygiene and robustness of the benchmark harness.

Run from the repository root:  python3 -m pytest -q eitbench/tests

Each end-to-end test starts ``run.py`` as the leader of a new session, so
every process it starts shares that session id; after ``run.py`` has
returned, no live process may remain in the session, whether the run
succeeded, failed a check, or was interrupted.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(REPO, "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def _stat(pid):
    """(state, session id) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return fields[0], int(fields[3])


def _alive(pid):
    st = _stat(pid)
    return st is not None and st[0] not in ("Z", "X")


def _session_members(sid):
    pids = [int(p) for p in os.listdir("/proc") if p.isdigit()]
    return [p for p in pids
            if (st := _stat(p)) and st[1] == sid and st[0] not in ("Z", "X")]


def _start(args, cwd=REPO):
    return subprocess.Popen([sys.executable, "eitbench/run.py", *args],
                            cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


def _finish(proc, timeout):
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    left = _session_members(proc.pid)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == [], f"processes left running: {left}"
    return out, err


def _wait_for_worker(sid, timeout=120.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        for pid in _session_members(sid):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if b"worker.py\0run" in fh.read():
                        return pid
            except FileNotFoundError:
                pass
        time.sleep(0.2)
    raise AssertionError("no workload child appeared")


def test_timeout_kills_child_and_grandchild(tmp_path):
    pidfile = tmp_path / "pids"
    script = (
        "import os, subprocess, sys, time\n"
        "g = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(120)'])\n"
        f"open({str(pidfile)!r}, 'w').write(f'{{os.getpid()}} {{g.pid}}')\n"
        "time.sleep(120)\n")
    with pytest.raises(run.ChildFailed, match="timed out"):
        run.run_child([sys.executable, "-c", script], dict(os.environ), 3.0)
    pids = [int(p) for p in pidfile.read_text().split()]
    deadline = time.monotonic() + 5.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(p) for p in pids)


def test_success_leaves_nothing_running():
    proc = _start(["--workload", "fit_mu", "--seed", "3", "--seconds", "1",
                   "--trace", "0"])
    out, err = _finish(proc, 170)
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupt_kills_workload_child(sig):
    proc = _start(["--workload", "scan_coupling_off", "--seed", "1",
                   "--seconds", "60", "--trace", "0"])
    worker = _wait_for_worker(proc.pid)
    proc.send_signal(sig)
    out, err = _finish(proc, 30)
    assert proc.returncode == 130, err
    assert out.strip() == ""
    assert not _alive(worker)


def test_failed_check_is_reported_and_leaves_nothing_running(tmp_path):
    """A 1e-5 error in rho22 breaks the Voigt check of every round."""
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "eitbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_out",
                                                  "tests"))
    analytic = tmp_path / "src" / "eitmol" / "analytic.py"
    text = analytic.read_text()
    needle = "return -(g1**2 * rho11_init) / (2.0 * D) * np.imag(frac)"
    assert needle in text
    analytic.write_text(text.replace(needle, needle + " * (1.0 + 1e-5)"))
    proc = _start(["--workload", "scan_coupling_off", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    out, err = _finish(proc, 170)
    assert proc.returncode == 1
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "Voigt" in err


def test_missing_program_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "eitbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_out"))
    proc = _start(["--workload", "fit_mu", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    out, _ = _finish(proc, 60)
    assert proc.returncode != 0
    assert out.strip() == ""


@pytest.fixture
def restore_eitmol():
    yield
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("eitmol"):
            for attr, value in list(vars(mod).items()):
                if hasattr(value, "__wrapped__"):
                    setattr(mod, attr, value.__wrapped__)


def test_renamed_targets_are_reported_absent(monkeypatch, restore_eitmol):
    import numpy as np

    import eitmol.cli  # noqa: F401
    from eitmol import analytic
    from eitmol.config import preset_config

    def broken_counter(args, kwargs, result):
        raise TypeError("signature changed")

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("analytic.fused", "eitmol.analytic", "populations_fused",
         "analytic.fused_points", tracing._size_of_result),
        ("solver.gone", "eitmol.no_such_module", "solve", None, None),
        ("analytic.rho22", "eitmol.analytic", "coupling_saturation_factor",
         "analytic.rho22_points", broken_counter),
    ))
    sys_ = preset_config("li2_fig6b").system
    d1 = np.linspace(-50.0, 50.0, 7)
    before = analytic.population_rho22(sys_, 1.0, 30.0, d1, 3.0)
    tracer = tracing.Tracer()
    tracer.install()
    assert "eitmol.analytic.populations_fused" in tracer.absent
    assert "eitmol.no_such_module.solve" in tracer.absent

    import eitmol.spectrum
    after = eitmol.spectrum.population_rho22(sys_, 1.0, 30.0, d1, 3.0)
    assert np.array_equal(before, after)
    assert tracer.counts["analytic.rho22_points"] == d1.size

    analytic.coupling_saturation_factor(
        sys_, eitmol.system.DriveParams.for_system(sys_, 1.0, 30.0, 0.0, 0.0))
    assert any("coupling_saturation_factor (counter)" in a
               for a in tracer.absent)
    metrics = tracing.layer_metrics(tracer.snapshot(), tracer.snapshot())
    assert set(metrics) >= {"analytic.rho22_points", "spectrum.self_s"}
