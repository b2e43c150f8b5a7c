"""``orchestrate run``: resume from the manifest alone, and the per-cell
failure flags (docs/RESILIENCE.md)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.orchestrate import execute_run
from repro.orchestrate.__main__ import main
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import load_cells, load_manifest
from repro.parallel import executor
from repro.sim.simulator import resolve_engine

FAST = 0.05


def cheap_experiment():
    return SuiteMatrix(scale=FAST, workloads=["pointer_chase"],
                       modes=("ooo", "crisp"))


def record_cells(monkeypatch) -> list:
    """Record every spec the executor simulates (in-process runs)."""
    seen = []
    real = executor.run_cell_spec

    def recording(spec):
        seen.append(spec)
        return real(spec)

    monkeypatch.setattr(executor, "run_cell_spec", recording)
    return seen


def test_resume_without_experiment_rebuilds_it_from_the_manifest(
        tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "run"
    execute_run(cheap_experiment(), run_dir=run_dir)
    manifest = load_manifest(run_dir)
    victim = next(key for key, meta in manifest["cells"].items()
                  if meta["mode"] == "crisp")
    (run_dir / "cells" / f"{victim}.json").unlink()

    seen = record_cells(monkeypatch)
    assert main(["run", "--resume", "--run-dir", str(run_dir),
                 "--no-cache"]) == 0
    assert [spec.label() for spec in seen] == ["pointer_chase/crisp"]
    assert load_manifest(run_dir)["status"] == "complete"
    assert "pointer_chase" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--resume", "--run-dir", "DIR", "--scale", "1.0"],
    ["--resume", "--run-dir", "DIR", "--workloads", "mcf"],
    ["--resume", "--run-dir", "DIR", "--seeds", "1"],
    ["--resume"],
    ["--run-dir", "DIR"],
    [],
])
def test_run_without_experiment_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", *argv])
    assert excinfo.value.code == 2
    assert "--experiment" in capsys.readouterr().err


def test_missing_run_dir_is_an_error_not_a_traceback(tmp_path, capsys):
    assert main(["run", "--resume", "--run-dir", str(tmp_path / "none"),
                 "--no-cache"]) == 1
    assert "no manifest.json" in capsys.readouterr().err


def test_failure_flags_are_stamped_onto_the_cells_that_run(
        tmp_path, monkeypatch):
    seen = record_cells(monkeypatch)
    assert main(["run", "--experiment", "suite", "--workloads",
                 "pointer_chase", "--scale", str(FAST), "--no-cache",
                 "--run-dir", str(tmp_path / "run"),
                 "--cycle-budget", "100000000", "--invariants", "periodic",
                 "--crash-dir", str(tmp_path / "crashes")]) == 0
    assert len(seen) == 2
    for spec in seen:
        assert spec.cycle_budget == 100_000_000
        assert spec.invariants == "periodic"
        assert spec.crash_dir == str(tmp_path / "crashes")
    # Execution-only fields: the stored cells keep the plan's keys.
    plan_keys = {cell.key for cell in cheap_experiment().plan()}
    assert set(load_cells(tmp_path / "run")) == plan_keys


def test_execute_run_hands_over_the_plan_specs_untouched(
        tmp_path, monkeypatch):
    """Without a failure flag, only the resolved engine is stamped on."""
    seen = record_cells(monkeypatch)
    experiment = cheap_experiment()
    execute_run(experiment, run_dir=tmp_path / "run")
    engine = resolve_engine(None)
    assert seen == [replace(cell.spec, engine=engine)
                    for cell in experiment.plan()]
