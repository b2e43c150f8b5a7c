"""python -m repro.orchestrate: list / run / report, end to end."""

from __future__ import annotations

import json
import pathlib

from repro.orchestrate import experiment_names
from repro.orchestrate.__main__ import main
from repro.sim.simulator import resolve_engine


def run_cli(*argv) -> int:
    return main(list(argv))


def test_list_prints_the_whole_registry(capsys):
    assert run_cli("list") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == experiment_names()
    assert any(line.startswith("table1") and "Table 1" in line
               for line in lines)


def test_list_json_is_machine_readable(capsys):
    assert run_cli("list", "--json") == 0
    entries = json.loads(capsys.readouterr().out)
    by_name = {e["name"]: e for e in entries}
    assert sorted(by_name) == experiment_names()
    assert by_name["suite"] == {
        "name": "suite", "title": "Suite matrix: IPC per workload x mode"}


def test_run_resume_report_flow(tmp_path, capsys):
    out = str(tmp_path / "runs")
    cache = str(tmp_path / "cache")
    base = ["run", "--experiment", "suite", "--workloads", "pointer_chase",
            "--scale", "0.05", "--out", out, "--cache-dir", cache]

    assert run_cli(*base) == 0
    printed = capsys.readouterr().out
    run_dir = tmp_path / "runs" / "suite" / "run-001"
    assert str(run_dir) in printed
    assert "pointer_chase" in printed

    # Resume re-simulates nothing and reports the same directory.
    assert run_cli(*base, "--resume") == 0
    resumed = capsys.readouterr().out
    assert str(run_dir) in resumed

    # report --experiment picks the latest run under --out.
    assert run_cli("report", "--experiment", "suite", "--out", out) == 0
    md = capsys.readouterr().out
    assert "pointer_chase" in md and "identity:" in md

    assert run_cli("report", "--run-dir", str(run_dir), "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "suite"
    assert report["identity"]["engine"] == resolve_engine(None)


def test_resume_with_a_different_engine_is_an_error(tmp_path, capsys):
    out = str(tmp_path / "runs")
    base = ["run", "--experiment", "suite", "--workloads", "pointer_chase",
            "--scale", "0.05", "--out", out, "--no-cache"]
    assert run_cli(*base) == 0
    capsys.readouterr()

    other = "array" if resolve_engine(None) == "obj" else "obj"
    assert run_cli(*base, "--resume", "--engine", other) == 1
    err = capsys.readouterr().err
    assert "identity mismatch" in err and "instance.engine" in err


def test_report_without_runs_is_an_error(tmp_path, capsys):
    assert run_cli("report", "--experiment", "suite",
                   "--out", str(tmp_path / "none")) == 1
    assert "no runs" in capsys.readouterr().err


def test_report_exits_1_when_a_cell_is_missing(tmp_path, capsys):
    """Like run, report exits 1 for a run dir with failed or missing cells."""
    out = tmp_path / "runs"
    assert run_cli("run", "--experiment", "suite", "--workloads",
                   "pointer_chase", "--scale", "0.05", "--out", str(out),
                   "--no-cache") == 0
    (run_dir,) = (out / "suite").glob("run-*")
    assert run_cli("report", "--run-dir", str(run_dir)) == 0
    capsys.readouterr()

    next((run_dir / "cells").glob("*.json")).unlink()
    assert run_cli("report", "--run-dir", str(run_dir), "--json") == 1
    (row,) = json.loads(capsys.readouterr().out)["failed"]
    assert row["error"] == "missing"


def test_run_writes_cells_incrementally(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("run", "--experiment", "suite", "--workloads",
                   "pointer_chase", "--scale", "0.05", "--out", out,
                   "--no-cache") == 0
    cells = list(pathlib.Path(out, "suite", "run-001", "cells").glob("*.json"))
    assert len(cells) == 2  # ooo + crisp
    for cell in cells:
        payload = json.loads(cell.read_text())
        assert payload["status"] == "done"
        assert payload["workload"] == "pointer_chase"


def test_fixed_workload_experiment_with_a_selection_is_an_error(tmp_path,
                                                                capsys):
    assert run_cli("run", "--experiment", "discussion_smt", "--workloads",
                   "mcf", "--scale", "0.05", "--out", str(tmp_path / "runs"),
                   "--no-cache") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "runs").exists()  # refused before any run dir
