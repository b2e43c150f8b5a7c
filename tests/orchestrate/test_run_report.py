"""execute_run / report_run: run directories, resume, identity checks.

Cells use pointer_chase at scale 0.05 so a fresh simulation costs well
under a second; the fig7 equivalence test is the acceptance property that
a run directory's figure is bit-identical to ``run_inline()``'s.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.orchestrate import (
    RunIdentityError,
    build_manifest,
    execute_run,
    get_experiment,
    report_run,
)
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import (
    atomic_write_json,
    load_manifest,
    manifest_path,
    new_run_dir,
)
from repro.parallel import ResultCache
from repro.parallel.cellkey import CACHE_SCHEMA_VERSION
from repro.sim.simulator import resolve_engine

FAST = 0.05


def cheap_experiment(**kw):
    kw.setdefault("scale", FAST)
    kw.setdefault("workloads", ["pointer_chase"])
    kw.setdefault("modes", ("ooo",))
    return SuiteMatrix(**kw)


def other_engine() -> str:
    return "array" if resolve_engine(None) == "obj" else "obj"


# -- fresh runs ----------------------------------------------------------------


def test_fresh_run_writes_the_full_directory(tmp_path):
    summary = execute_run(cheap_experiment(), out=tmp_path / "runs")
    run_dir = tmp_path / "runs" / "suite" / "run-001"
    assert summary["run_dir"] == str(run_dir)
    assert summary["failed"] == 0

    manifest = load_manifest(run_dir)
    assert manifest["status"] == "complete"
    assert manifest["experiment"] == "suite"
    assert "kind" not in manifest
    # The full execution identity is recorded.
    identity = manifest["instance"]
    assert identity["engine"] == resolve_engine(None)
    assert identity["sample"] == "off"
    assert identity["cache_schema"] == CACHE_SCHEMA_VERSION
    # One stored cell per planned cell, plus both report renderings.
    cells = list((run_dir / "cells").glob("*.json"))
    assert {p.stem for p in cells} == set(manifest["cells"])
    assert (run_dir / "report.md").is_file()
    report = json.loads((run_dir / "report.json").read_text())
    assert "kind" not in report
    assert report["identity"] == identity
    assert report["figure"]["headers"][0] == "workload"
    assert summary["figure"].row_for("pointer_chase")


def test_consecutive_runs_get_numbered_directories(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    execute_run(cheap_experiment(), out=tmp_path / "runs", cache=cache)
    summary = execute_run(cheap_experiment(), out=tmp_path / "runs", cache=cache)
    assert summary["run_dir"].endswith("run-002")


def test_warm_rerun_is_served_from_the_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    execute_run(cheap_experiment(), out=tmp_path / "runs", cache=cache)
    assert cache.stats.stores == 1

    seen = []
    summary = execute_run(
        cheap_experiment(), out=tmp_path / "runs", cache=cache,
        on_cell=lambda key, result: seen.append(result),
    )
    # Every cell of the second run came from the cache, none re-simulated.
    assert cache.stats.hits == 1
    assert [r.from_cache for r in seen] == [True]
    manifest = load_manifest(summary["run_dir"])
    assert manifest["cache"]["hits"] == 1
    # The counters cover this run only, not the cache object's lifetime.
    assert manifest["cache"] == {"hits": 1, "misses": 0, "stores": 0}


# -- resume --------------------------------------------------------------------


def test_resume_simulates_nothing_when_complete(tmp_path):
    execute_run(cheap_experiment(), out=tmp_path / "runs")
    simulated = []
    summary = execute_run(
        cheap_experiment(), out=tmp_path / "runs", resume=True,
        on_cell=lambda key, result: simulated.append(key),
    )
    assert simulated == []  # all cells restored from the run directory
    assert summary["failed"] == 0
    assert summary["run_dir"].endswith("run-001")


def test_resume_finishes_only_the_missing_cells(tmp_path):
    exp = cheap_experiment(modes=("ooo", "crisp"))
    first = execute_run(exp, out=tmp_path / "runs")
    # Lose one finished cell, as if the run had been killed mid-flight.
    run_dir = first["run_dir"]
    manifest = load_manifest(run_dir)
    victim = next(
        key for key, meta in manifest["cells"].items()
        if meta["instance"] == "crisp"
    )
    (pathlib.Path(run_dir) / "cells" / f"{victim}.json").unlink()

    simulated = []
    summary = execute_run(
        cheap_experiment(modes=("ooo", "crisp")), out=tmp_path / "runs",
        resume=True, on_cell=lambda key, result: simulated.append(key),
    )
    assert simulated == [victim]
    assert summary["failed"] == 0


def test_resume_without_a_run_directory_fails(tmp_path):
    with pytest.raises(FileNotFoundError, match="no resumable run"):
        execute_run(cheap_experiment(), out=tmp_path / "runs", resume=True)


def test_explicit_run_dir_refuses_silent_overwrite(tmp_path):
    target = tmp_path / "runs" / "suite" / "run-001"
    execute_run(cheap_experiment(), out=tmp_path / "runs")
    with pytest.raises(RunIdentityError, match="--resume"):
        execute_run(cheap_experiment(), run_dir=target)


# -- the identity contract -----------------------------------------------------


def test_resume_rejects_a_different_engine(tmp_path):
    execute_run(cheap_experiment(), out=tmp_path / "runs")
    with pytest.raises(RunIdentityError, match="instance.engine"):
        execute_run(cheap_experiment(), out=tmp_path / "runs",
                    resume=True, engine=other_engine())


def test_resume_rejects_a_different_sample_spec(tmp_path):
    execute_run(cheap_experiment(), out=tmp_path / "runs")
    with pytest.raises(RunIdentityError, match="instance.sample"):
        execute_run(cheap_experiment(), out=tmp_path / "runs",
                    resume=True, sample="smarts:100/1000")


def test_resume_rejects_different_args(tmp_path):
    execute_run(cheap_experiment(), out=tmp_path / "runs")
    with pytest.raises(RunIdentityError) as excinfo:
        execute_run(cheap_experiment(seeds=2), out=tmp_path / "runs",
                    resume=True)
    message = str(excinfo.value)
    assert "args" in message and "cell keys diverge" in message


# -- report_run ----------------------------------------------------------------


def test_report_rerenders_identically_from_disk(tmp_path):
    summary = execute_run(cheap_experiment(), out=tmp_path / "runs")
    stored = json.loads(
        (pathlib.Path(summary["run_dir"]) / "report.json").read_text()
    )
    report = report_run(summary["run_dir"])
    assert report["figure"] == stored["figure"]
    assert report["aggregate"] == stored["aggregate"]
    assert report["identity"] == stored["identity"]


def test_report_surfaces_missing_cells_as_failures(tmp_path):
    summary = execute_run(cheap_experiment(), out=tmp_path / "runs")
    run_dir = pathlib.Path(summary["run_dir"])
    for cell in (run_dir / "cells").glob("*.json"):
        cell.unlink()
    report = report_run(run_dir)
    assert report["figure"] is None
    assert len(report["failed"]) == 1
    assert report["failed"][0]["error"] == "missing"


def test_report_rejects_a_foreign_cache_schema(tmp_path):
    summary = execute_run(cheap_experiment(), out=tmp_path / "runs")
    path = manifest_path(summary["run_dir"])
    manifest = json.loads(path.read_text())
    manifest["instance"]["cache_schema"] = -1
    path.write_text(json.dumps(manifest))
    with pytest.raises(RunIdentityError, match="cache schema"):
        report_run(summary["run_dir"])


# -- status and old run dirs ----------------------------------------------------


def test_a_table_that_raises_leaves_the_run_partial(tmp_path, monkeypatch):
    """The manifest says ``complete`` only once the report is written."""

    def broken(self, plan, results):
        raise RuntimeError("figure failed")

    monkeypatch.setattr(SuiteMatrix, "table", broken)
    with pytest.raises(RuntimeError, match="figure failed"):
        execute_run(cheap_experiment(), out=tmp_path / "runs")
    run_dir = tmp_path / "runs" / "suite" / "run-001"
    manifest = load_manifest(run_dir)
    assert manifest["status"] == "partial"
    assert manifest["cells_done"] == 1
    assert not (run_dir / "report.md").exists()
    assert not (run_dir / "report.json").exists()

    # --resume renders the figure from the stored cells, simulating nothing.
    monkeypatch.undo()
    simulated = []
    summary = execute_run(
        cheap_experiment(), out=tmp_path / "runs", resume=True,
        on_cell=lambda key, result: simulated.append(key))
    assert simulated == []
    assert summary["figure"].row_for("pointer_chase")
    assert load_manifest(run_dir)["status"] == "complete"


def test_a_run_dir_recording_kind_still_resumes(tmp_path):
    """Run dirs written before ``kind`` left the manifest stay resumable."""
    first = execute_run(cheap_experiment(modes=("ooo", "crisp")),
                        out=tmp_path / "runs")
    path = manifest_path(first["run_dir"])
    manifest = json.loads(path.read_text())
    manifest["kind"] = "matrix"
    path.write_text(json.dumps(manifest))
    victim = next(key for key, meta in manifest["cells"].items()
                  if meta["instance"] == "crisp")
    (pathlib.Path(first["run_dir"]) / "cells" / f"{victim}.json").unlink()

    simulated = []
    summary = execute_run(
        cheap_experiment(modes=("ooo", "crisp")), out=tmp_path / "runs",
        resume=True, on_cell=lambda key, result: simulated.append(key))
    assert simulated == [victim]
    assert summary["failed"] == 0


def test_a_cell_less_fig8_run_dir_is_refused_by_resume(tmp_path):
    """fig8 used to run whole, storing no cells; it now plans cells, so
    such a run dir fails the cell-key-set check instead of resuming."""
    fig8 = get_experiment("fig8")(scale=FAST, workloads=["pointer_chase"])
    run_dir = new_run_dir(tmp_path / "runs", "fig8")
    manifest = build_manifest(fig8, [])  # what a cell-less run recorded
    manifest.update(kind="legacy", status="complete")
    atomic_write_json(manifest_path(run_dir), manifest)

    with pytest.raises(RunIdentityError, match="4 newly planned"):
        execute_run(fig8, run_dir=run_dir, resume=True)


# -- experiments that plan no cells --------------------------------------------


def test_cell_less_experiment_runs_whole_and_reports(tmp_path, monkeypatch):
    summary = execute_run(get_experiment("table1")(), out=tmp_path / "runs")
    manifest = load_manifest(summary["run_dir"])
    assert manifest["status"] == "complete"
    assert manifest["cells"] == {}
    assert summary["figure"].row_for("ROB") == ["ROB", "224 entries"]
    # The figure only: no empty aggregate table.
    assert summary["aggregate"] is None
    stored = json.loads(
        (pathlib.Path(summary["run_dir"]) / "report.json").read_text())
    assert stored["aggregate"] is None
    assert "aggregate" not in (
        pathlib.Path(summary["run_dir"]) / "report.md").read_text()

    # report_run replays the stored report instead of calling table().
    def recompute(self, plan, results):
        raise AssertionError("report must not recompute a cell-less figure")

    monkeypatch.setattr(get_experiment("table1"), "table", recompute)
    report = report_run(summary["run_dir"])
    assert report == stored


# -- the fig7 acceptance property ----------------------------------------------


def test_orchestrated_fig7_matches_run_inline_bit_identically(tmp_path):
    def fig7():
        return get_experiment("fig7")(
            scale=0.1, workloads=["pointer_chase"], modes=("crisp",))

    inline = fig7().run_inline()
    summary = execute_run(fig7(), out=tmp_path / "runs",
                          cache=ResultCache(str(tmp_path / "cache")))
    figure = summary["figure"]
    assert figure.headers == inline.headers
    assert figure.rows == inline.rows  # bit-identical, not approximately

    # And a re-report from disk reproduces the same rows again.
    report = report_run(summary["run_dir"])
    assert report["figure"]["rows"] == [list(r) for r in inline.rows]
