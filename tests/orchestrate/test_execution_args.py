"""Execution settings are arguments: ``run_inline`` and ``execute_run``
hand ``jobs``, ``cache``, ``sample`` and ``engine`` to ``run_cells``.

Sampled runs use mcf at scale 0.05 (two parents, well under a second);
pooled ones pointer_chase and lbm, so a pool of two has work for both.
"""

from __future__ import annotations

import sys

import pytest

from repro.orchestrate import execute_run, report_run
from repro.orchestrate.__main__ import main
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import load_cells, load_manifest
from repro.parallel import ResultCache, cellkey, executor

SAMPLE = "smarts:100/1000"


def sampled_experiment():
    return SuiteMatrix(scale=0.05, workloads=["mcf"])


def pooled_experiment():
    return SuiteMatrix(scale=0.05, workloads=["pointer_chase", "lbm"])


def forbid_simulation(monkeypatch) -> None:
    def simulate(spec):
        raise AssertionError(f"{spec.label()} was simulated")

    monkeypatch.setattr(executor, "run_cell_spec", simulate)


def count_cell_keys(monkeypatch) -> list:
    """Record every ``cell_key`` call, through whichever module binds it."""
    calls = []
    real = cellkey.cell_key

    def counting(spec):
        calls.append(spec)
        return real(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "cell_key", None) is real:
            monkeypatch.setattr(module, "cell_key", counting)
    return calls


def test_sampled_run_dir_is_keyed_by_the_planned_cells(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    summary = execute_run(sampled_experiment(), run_dir=run_dir, sample=SAMPLE)
    assert summary["failed"] == 0
    manifest = load_manifest(run_dir)
    assert manifest["instance"]["sample"] == SAMPLE
    stored = load_cells(run_dir)
    assert set(stored) == set(manifest["cells"])
    for key, payload in stored.items():
        assert payload["sampled"]["policy"] == "smarts"
        # The sampled parent's cache key is recorded, not used as the name.
        assert payload["result_key"] != key

    report = report_run(run_dir)
    assert report["failed"] == []
    assert report["figure"]["rows"] == [list(r) for r in summary["figure"].rows]

    forbid_simulation(monkeypatch)
    assert main(["run", "--resume", "--run-dir", str(run_dir),
                 "--sample", SAMPLE, "--no-cache"]) == 0
    assert load_manifest(run_dir)["status"] == "complete"


def test_run_inline_with_a_pool_and_cache_equals_the_default_table(tmp_path):
    default = pooled_experiment().run_inline()
    cache = ResultCache(str(tmp_path / "cache"))
    pooled = pooled_experiment().run_inline(jobs=2, cache=cache)
    assert pooled.rows == default.rows
    assert (cache.stats.hits, cache.stats.stores) == (0, 4)

    warm = pooled_experiment().run_inline(jobs=2, cache=cache)
    assert warm.rows == default.rows
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (4, 4, 4)


def test_run_inline_sampled_equals_the_orchestrated_figure(tmp_path):
    inline = sampled_experiment().run_inline(sample=SAMPLE)
    summary = execute_run(sampled_experiment(), out=tmp_path / "runs",
                          sample=SAMPLE)
    assert summary["figure"].rows == inline.rows
    # Sampling changed the answer: the figure is not the full run's.
    assert inline.rows != sampled_experiment().run_inline().rows


def test_run_inline_runs_each_cell_on_the_given_engine(monkeypatch):
    seen = []
    real = executor.run_cell_spec

    def recording(spec):
        seen.append(spec.engine)
        return real(spec)

    monkeypatch.setattr(executor, "run_cell_spec", recording)
    SuiteMatrix(scale=0.05, workloads=["pointer_chase"]).run_inline(engine="obj")
    assert seen == ["obj", "obj"]


@pytest.mark.parametrize("sample", ["off", SAMPLE])
def test_a_warm_run_hashes_each_planned_key_twice(tmp_path, monkeypatch, sample):
    """Once to plan it, once to look it up in the cache; storing the cell
    in the run dir reuses the planned key."""
    cache = ResultCache(str(tmp_path / "cache"))
    execute_run(sampled_experiment(), out=tmp_path / "runs", cache=cache,
                sample=sample)
    calls = count_cell_keys(monkeypatch)
    forbid_simulation(monkeypatch)
    summary = execute_run(sampled_experiment(), out=tmp_path / "runs",
                          cache=cache, sample=sample)
    planned = len(sampled_experiment().plan())
    assert summary["failed"] == 0
    assert len(calls) == 2 * planned
    assert set(load_cells(summary["run_dir"])) == set(
        load_manifest(summary["run_dir"])["cells"])
