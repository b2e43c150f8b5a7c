"""Resumable runs: failure recording, retries, resume, SIGKILL safety.

Every test drives ``repro.orchestrate.execute_run`` (or its CLI) into a
run directory, the one resume format. Most swap the simulator for a stub
(``executor.run_cell_spec``) over the fake workloads alpha/beta/gamma, so
a cell costs nothing and its failures are scripted; the stub runs
in-process because these runs use ``jobs=1``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.orchestrate import RunIdentityError, execute_run
from repro.orchestrate.__main__ import main as orchestrate_main
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import (
    MANIFEST_VERSION,
    load_cells,
    load_manifest,
    manifest_path,
)
from repro.orchestrate.runs import recorded_experiment
from repro.parallel import executor
from repro.parallel.cellkey import CACHE_SCHEMA_VERSION, CellSpec
from repro.resilience import DeadlockError, SimulationError
from repro.resilience.errors import CellTimeout
from repro.resilience.policy import RetryPolicy
from repro.sim.simulator import resolve_engine
from repro.uarch.stats import SimStats

WORKLOADS = ["alpha", "beta", "gamma"]
MODES = ("ooo", "crisp")


def experiment(**kw):
    kw.setdefault("workloads", list(WORKLOADS))
    kw.setdefault("modes", MODES)
    return SuiteMatrix(**kw)


def ok_payload(spec):
    return {"workload": spec.workload, "mode": spec.mode, "ipc": 1.0,
            "critical_pcs": [],
            "stats": SimStats(cycles=100, retired=100).to_dict()}


def run(tmp_path, exp=None, **kw):
    return execute_run(exp or experiment(), run_dir=tmp_path / "run", **kw)


def cells(tmp_path) -> dict:
    """The stored run-dir cells by ``workload/mode``."""
    return {f"{c['workload']}/{c['mode']}": c
            for c in load_cells(tmp_path / "run").values()}


def recorder(calls):
    def run_cell(spec):
        calls.append(spec.label())
        return ok_payload(spec)
    return run_cell


def test_fresh_sweep_completes_all_cells(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(executor, "run_cell_spec", recorder(calls))
    summary = run(tmp_path)
    assert summary["failed"] == 0
    assert len(calls) == len(WORKLOADS) * len(MODES)
    stored = cells(tmp_path)
    assert set(stored) == {f"{w}/{m}" for w in WORKLOADS for m in MODES}
    assert all(c["status"] == "done" for c in stored.values())
    assert load_manifest(tmp_path / "run")["status"] == "complete"


def test_resume_skips_finished_cells(tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "run_cell_spec", ok_payload)
    run(tmp_path)

    calls = []
    monkeypatch.setattr(executor, "run_cell_spec", recorder(calls))
    assert orchestrate_main(["run", "--resume", "--run-dir",
                             str(tmp_path / "run"), "--no-cache"]) == 0
    assert calls == []


def test_hard_failure_recorded_and_sweep_continues(tmp_path, monkeypatch):
    def run_cell(spec):
        if spec.workload == "beta":
            raise DeadlockError("no retirement for 5000 cycles")
        return ok_payload(spec)

    monkeypatch.setattr(executor, "run_cell_spec", run_cell)
    summary = run(tmp_path)
    assert summary["failed"] == 2
    stored = cells(tmp_path)
    failed = {k: c for k, c in stored.items() if c["status"] == "failed"}
    assert set(failed) == {"beta/ooo", "beta/crisp"}
    for cell in failed.values():
        assert cell["error_type"] == "DeadlockError"
        assert "no retirement" in cell["error"]
        assert cell["attempts"] == 1  # hard failures are not retried
    assert sum(c["status"] == "done" for c in stored.values()) == 4
    assert load_manifest(tmp_path / "run")["status"] == "partial"


def test_hard_failure_records_bundle_path(tmp_path, monkeypatch):
    """A hard failure's crash bundle reaches the stored run-dir cell, and
    ``crash_dir`` is stamped onto the cells that run."""

    def run_cell(spec):
        raise SimulationError(
            "wedged", bundle_path=os.path.join(spec.crash_dir, "crash-x.json"))

    monkeypatch.setattr(executor, "run_cell_spec", run_cell)
    crash_dir = str(tmp_path / "crashes")
    run(tmp_path, experiment(workloads=["alpha"], modes=("ooo",)),
        crash_dir=crash_dir)
    cell = cells(tmp_path)["alpha/ooo"]
    assert cell["status"] == "failed"
    assert cell["crash_bundle"] == os.path.join(crash_dir, "crash-x.json")


def test_transient_failure_retried(tmp_path, monkeypatch):
    attempts = {"n": 0}

    def run_cell(spec):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise OSError("spurious I/O error")
        return ok_payload(spec)

    monkeypatch.setattr(executor, "run_cell_spec", run_cell)
    run(tmp_path, experiment(workloads=["alpha"], modes=("ooo",)))
    cell = cells(tmp_path)["alpha/ooo"]
    assert cell["status"] == "done"
    assert cell["attempts"] == 2


def test_transient_failure_exhausts_retries(tmp_path, monkeypatch):
    def run_cell(spec):
        raise OSError("disk on fire")

    monkeypatch.setattr(executor, "run_cell_spec", run_cell)
    run(tmp_path, experiment(workloads=["alpha"], modes=("ooo",)),
        policy=RetryPolicy.immediate(2))
    cell = cells(tmp_path)["alpha/ooo"]
    assert cell["status"] == "failed"
    assert cell["attempts"] == 3
    assert cell["error_type"] == "OSError"


def test_retry_failed_reruns_only_failures(tmp_path, monkeypatch):
    """``--resume`` re-runs every cell that is not ``done``."""

    def broken(spec):
        if spec.workload == "beta":
            raise SimulationError("wedged")
        return ok_payload(spec)

    monkeypatch.setattr(executor, "run_cell_spec", broken)
    run(tmp_path)

    calls = []
    monkeypatch.setattr(executor, "run_cell_spec", recorder(calls))
    summary = run(tmp_path, resume=True)
    assert sorted(calls) == ["beta/crisp", "beta/ooo"]
    assert summary["failed"] == 0
    assert all(c["status"] == "done" for c in cells(tmp_path).values())


def test_config_error_propagates(tmp_path, monkeypatch):
    def run_cell(spec):
        raise ValueError("critical_pcs passed in mode 'ooo'")

    monkeypatch.setattr(executor, "run_cell_spec", run_cell)
    with pytest.raises(ValueError, match="critical_pcs"):
        run(tmp_path)


def test_timeout_is_transient(tmp_path, monkeypatch):
    slow = {"on": True}

    def run_cell(spec):
        if slow["on"]:
            slow["on"] = False
            raise CellTimeout("cell exceeded cycle budget 50")
        return ok_payload(spec)

    monkeypatch.setattr(executor, "run_cell_spec", run_cell)
    run(tmp_path, experiment(workloads=["alpha"], modes=("ooo",)))
    cell = cells(tmp_path)["alpha/ooo"]
    assert cell["status"] == "done"
    assert cell["attempts"] == 2


def test_cycle_budget_timeout_works_off_main_thread(tmp_path):
    """The old SIGALRM wall-clock alarm silently never fired off the POSIX
    main thread; the cycle-budget watchdog must time cells out anywhere."""
    results = {}

    def worker_run():
        results["summary"] = run(
            tmp_path, experiment(workloads=["mcf"], modes=("ooo",),
                                 scale=0.05),
            cycle_budget=50, policy=RetryPolicy.immediate(0))

    worker = threading.Thread(target=worker_run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert results["summary"]["failed"] == 1
    cell = cells(tmp_path)["mcf/ooo"]
    assert cell["status"] == "failed"
    assert cell["error_type"] == "CellTimeout"
    assert "cycle budget" in cell["error"]


def test_scale_mismatch_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "run_cell_spec", ok_payload)
    run(tmp_path, experiment(scale=1.0))
    with pytest.raises(RunIdentityError, match="args"):
        run(tmp_path, experiment(scale=0.5), resume=True)


def test_checkpoint_records_full_execution_identity(tmp_path, monkeypatch):
    """The manifest pins the execution identity and names the experiment
    well enough to rebuild it, which is what a resume without
    ``--experiment`` does."""
    monkeypatch.setattr(executor, "run_cell_spec", ok_payload)
    run(tmp_path)
    manifest = load_manifest(tmp_path / "run")
    assert manifest["manifest_version"] == MANIFEST_VERSION
    assert manifest["instance"]["engine"] == resolve_engine(None)
    assert manifest["instance"]["cache_schema"] == CACHE_SCHEMA_VERSION
    rebuilt = recorded_experiment(manifest)
    assert rebuilt.args() == experiment().args()
    assert [c.key for c in rebuilt.plan()] == [c.key for c in experiment().plan()]


def test_engine_mismatch_rejected_on_resume(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(executor, "run_cell_spec", ok_payload)
    run(tmp_path)
    other = "array" if resolve_engine(None) == "obj" else "obj"
    code = orchestrate_main(["run", "--resume", "--run-dir",
                             str(tmp_path / "run"), "--engine", other,
                             "--no-cache"])
    assert code == 1
    err = capsys.readouterr().err
    assert "identity mismatch" in err and "instance.engine" in err


def test_cache_schema_mismatch_rejected_on_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "run_cell_spec", ok_payload)
    run(tmp_path)
    path = manifest_path(tmp_path / "run")
    manifest = json.loads(path.read_text())
    manifest["instance"]["cache_schema"] = -1
    path.write_text(json.dumps(manifest))
    with pytest.raises(RunIdentityError, match="cache_schema"):
        run(tmp_path, resume=True)


def test_real_cell_runs_the_simulator(tmp_path):
    run(tmp_path, experiment(workloads=["mcf"], modes=("ooo",), scale=0.05))
    cell = cells(tmp_path)["mcf/ooo"]
    assert cell["status"] == "done"
    assert cell["ipc"] > 0 and cell["stats"]["retired"] > 0


def test_default_cell_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="unknown mode"):
        run(tmp_path, experiment(workloads=["mcf"], modes=("turbo",),
                                 scale=0.05))


KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys
    from repro.orchestrate import execute_run
    from repro.orchestrate.experiment import SuiteMatrix
    from repro.parallel import executor
    from repro.uarch.stats import SimStats

    calls = []

    def run_cell(spec):
        calls.append(spec.label())
        if len(calls) == 5:
            os.kill(os.getpid(), signal.SIGKILL)  # simulate a hard crash
        return {"ipc": 1.0, "critical_pcs": [],
                "stats": SimStats(cycles=100, retired=100).to_dict()}

    executor.run_cell_spec = run_cell
    execute_run(SuiteMatrix(workloads=["alpha", "beta", "gamma"]),
                run_dir=sys.argv[1])
    """
)


def test_sigkill_mid_sweep_resumes_cleanly(tmp_path, monkeypatch):
    """kill -9 mid-run loses at most the in-flight cell."""
    run_dir = tmp_path / "run"
    script = tmp_path / "kill_mid_run.py"
    script.write_text(KILL_SCRIPT)
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    proc = subprocess.run(
        [sys.executable, str(script), str(run_dir)],
        env=env,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL

    # The run dir survived the kill and holds every finished cell.
    assert set(cells(tmp_path)) == {
        "alpha/ooo", "alpha/crisp", "beta/ooo", "beta/crisp",
    }

    # The CLI resume runs only the two unfinished cells.
    calls = []
    monkeypatch.setattr(executor, "run_cell_spec", recorder(calls))
    assert orchestrate_main(["run", "--resume", "--run-dir", str(run_dir),
                             "--no-cache"]) == 0
    assert calls == ["gamma/ooo", "gamma/crisp"]
    stored = cells(tmp_path)
    assert len(stored) == 6
    assert all(c["status"] == "done" for c in stored.values())
    assert load_manifest(run_dir)["status"] == "complete"


# -- shared RetryPolicy: backoff and deadline on the serial executor path ------


def test_runner_waits_out_the_policy_backoff(monkeypatch):
    """Transient retries pace themselves by the policy's deterministic
    delay schedule instead of hammering immediately."""
    policy = RetryPolicy(retries=2, backoff_base=0.05, jitter=0.0,
                         backoff_factor=2.0)
    attempts = {"n": 0}

    def flaky(spec):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise CellTimeout("transient")
        return ok_payload(spec)

    monkeypatch.setattr(executor, "run_cell_spec", flaky)
    start = time.monotonic()
    (result,) = executor.run_cells(
        [CellSpec(workload="alpha", mode="ooo")], jobs=1, policy=policy)
    elapsed = time.monotonic() - start
    assert result.ok
    assert result.attempts == 3
    # Two waits: delay(1) + delay(2) = 0.05 + 0.10 with zero jitter.
    assert elapsed >= 0.15


def test_runner_deadline_stops_retries_before_the_budget(monkeypatch):
    policy = RetryPolicy(retries=100, backoff_base=0.0, deadline=0.2)

    def slow_transient(spec):
        time.sleep(0.15)
        raise CellTimeout("still transient")

    monkeypatch.setattr(executor, "run_cell_spec", slow_transient)
    (result,) = executor.run_cells(
        [CellSpec(workload="alpha", mode="ooo")], jobs=1, policy=policy)
    assert not result.ok
    assert result.error_type == "CellTimeout"
    # The wall-clock deadline cut retries far short of the 100 budget.
    assert 2 <= result.attempts <= 4


def test_cli_flags_build_the_shared_policy():
    from repro.orchestrate.__main__ import build_parser, build_policy

    args = build_parser().parse_args(
        ["run", "--experiment", "suite", "--retries", "3",
         "--retry-backoff", "0.5", "--deadline", "60"])
    assert build_policy(args) == RetryPolicy(
        retries=3, backoff_base=0.5, deadline=60.0)
    # Defaults: one immediate retry, no deadline — the historical policy.
    default = build_policy(
        build_parser().parse_args(["run", "--experiment", "suite"]))
    assert default == RetryPolicy.immediate(1)
