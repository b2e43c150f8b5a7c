"""Suite runs on the parallel layer: --jobs, cache, resume composition."""

from __future__ import annotations

from repro.orchestrate import execute_run
from repro.orchestrate.__main__ import main as orchestrate_main
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import load_cells, load_manifest
from repro.parallel import ResultCache

FAST = dict(workloads=["mcf", "lbm"], modes=("ooo", "crisp"), scale=0.05)


def cells_of(run_dir):
    return {
        f"{cell['workload']}/{cell['mode']}": (
            cell["ipc"], cell["stats"]["cycles"], cell["stats"]["retired"])
        for cell in load_cells(run_dir).values()
    }


def run(run_dir, **kw):
    return execute_run(SuiteMatrix(**FAST), run_dir=run_dir, **kw)


def test_parallel_sweep_matches_serial(tmp_path):
    run(tmp_path / "serial")
    pooled = run(tmp_path / "pooled", jobs=2)
    assert pooled["failed"] == 0
    assert len(cells_of(tmp_path / "pooled")) == 4
    assert cells_of(tmp_path / "serial") == cells_of(tmp_path / "pooled")


def test_second_sweep_hits_cache_for_every_cell(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    run(tmp_path / "a", jobs=2, cache=cache)
    assert cache.stats.hits == 0

    seen = []
    run(tmp_path / "b", jobs=2, cache=cache,
        on_cell=lambda key, result: seen.append(result))
    assert cache.stats.hits == 4  # acceptance: every cell hits
    assert cells_of(tmp_path / "a") == cells_of(tmp_path / "b")
    assert [result.from_cache for result in seen] == [True] * 4


def test_resume_composes_with_jobs_and_cache(tmp_path):
    run_dir = tmp_path / "run"
    run(run_dir, jobs=2, cache=ResultCache(str(tmp_path / "cache")))

    # Drop two finished cells from the run dir, as a crash would.
    for key, cell in load_cells(run_dir).items():
        if cell["workload"] == "lbm":
            (run_dir / "cells" / f"{key}.json").unlink()

    cache = ResultCache(str(tmp_path / "cache"))
    seen = []
    summary = run(run_dir, jobs=2, cache=cache, resume=True,
                  on_cell=lambda key, result: seen.append(result))
    assert summary["failed"] == 0
    assert len(load_cells(run_dir)) == 4
    # The two re-run cells came straight from the cache.
    assert sorted(r.spec.label() for r in seen) == ["lbm/crisp", "lbm/ooo"]
    assert all(r.from_cache for r in seen)
    assert cache.stats.hits == 2 and cache.stats.misses == 0


def test_cli_smoke_two_workloads_jobs_two(tmp_path, capsys):
    """Tier-1 smoke: the documented CLI path end to end on a temp cache."""
    argv = [
        "run", "--experiment", "suite",
        "--workloads", "mcf,lbm",
        "--scale", "0.05",
        "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--run-dir", str(tmp_path / "first"),
    ]
    assert orchestrate_main(argv) == 0
    out = capsys.readouterr().out
    assert "(cached)" not in out
    assert load_manifest(tmp_path / "first")["status"] == "complete"
    assert len(cells_of(tmp_path / "first")) == 4

    # Same experiment again: every unchanged cell is answered by the cache.
    argv[-1] = str(tmp_path / "second")
    assert orchestrate_main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("(cached)") == 4
    assert cells_of(tmp_path / "first") == cells_of(tmp_path / "second")
