"""Top-level CLI smoke tests."""

import pytest

from repro.__main__ import main


def test_workloads_lists_suite(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "moses" in out and "pointer_chase" in out


def test_simulate_runs(capsys):
    assert main(["simulate", "mcf", "--scale", "0.2"]) == 0
    assert "IPC" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--sample", "smarts:1000/100"],
    ["--sample", "smarts:100/1000", "--trace"],
    ["--sample", "smarts:100/1000", "--report"],
], ids=["bad-spec", "trace", "report"])
def test_simulate_sample_usage_errors_exit_2(flags, capsys, tmp_path,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)  # --trace/--report would write here
    assert main(["simulate", "mcf", "--scale", "0.2", *flags]) == 2
    assert capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_runs(capsys):
    assert main(["compare", "mcf", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "delinquent" in out
    assert "crisp" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
