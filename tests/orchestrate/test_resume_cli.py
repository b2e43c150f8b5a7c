"""``orchestrate run``: resume from the manifest alone, and the per-cell
failure flags (docs/RESILIENCE.md)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.orchestrate import execute_run, report_run
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


def test_an_indented_run_dir_resumes_and_reports_unchanged(
        tmp_path, monkeypatch):
    """Run-dir files used to be written with ``indent=1``; such a run dir
    re-reports the same report and resumes with every cell done."""
    run_dir = tmp_path / "run"
    execute_run(cheap_experiment(), run_dir=run_dir)
    compact = report_run(run_dir)
    files = [run_dir / "manifest.json", run_dir / "report.json",
             *(run_dir / "cells").glob("*.json")]
    assert len(files) == 4
    for path in files:
        payload = json.loads(path.read_text())
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)

    indented = report_run(run_dir)
    del compact["generated"], indented["generated"]
    assert indented == compact

    seen = record_cells(monkeypatch)
    assert main(["run", "--resume", "--run-dir", str(run_dir),
                 "--no-cache"]) == 0
    assert seen == []
    manifest = load_manifest(run_dir)
    assert manifest["status"] == "complete"
    assert manifest["cells_done"] == 2
