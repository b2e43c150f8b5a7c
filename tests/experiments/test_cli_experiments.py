"""The experiments CLI (`python -m repro.experiments`)."""

import pytest

from repro.experiments.__main__ import main


def test_table1_via_cli(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "224 entries" in out


def test_workload_filter_via_cli(capsys):
    assert main(["fig11", "--scale", "0.25", "--workloads", "mcf"]) == 0
    out = capsys.readouterr().out
    table = out.split("note:")[0]  # footer notes may mention other apps
    assert "mcf" in table
    assert "moses" not in table


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_scale_flag_passes_through(capsys):
    assert main(["sec31", "--scale", "0.3"]) == 0
    assert "manual __builtin_prefetch" in capsys.readouterr().out


def test_sweep_is_not_a_subcommand(capsys):
    """Resumable suite runs go through ``python -m repro.orchestrate run``."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
