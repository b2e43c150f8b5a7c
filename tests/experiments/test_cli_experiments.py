"""Figure experiments through ``python -m repro.orchestrate run``."""

import pytest

from repro.orchestrate.__main__ import main


def run_cli(tmp_path, *argv) -> int:
    return main(["run", *argv, "--out", str(tmp_path / "runs"), "--no-cache"])


def test_table1_via_cli(tmp_path, capsys):
    assert run_cli(tmp_path, "--experiment", "table1") == 0
    out = capsys.readouterr().out
    assert "224 entries" in out


def test_workload_filter_via_cli(tmp_path, capsys):
    assert run_cli(tmp_path, "--experiment", "fig11", "--scale", "0.25",
                   "--workloads", "mcf") == 0
    out = capsys.readouterr().out
    table = out.split("note:")[0]  # footer notes may mention other apps
    assert "mcf" in table
    assert "moses" not in table


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(tmp_path, "--experiment", "fig99")


def test_scale_flag_passes_through(tmp_path, capsys):
    assert run_cli(tmp_path, "--experiment", "sec31", "--scale", "0.3") == 0
    assert "manual __builtin_prefetch" in capsys.readouterr().out
