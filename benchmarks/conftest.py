"""Benchmark harness configuration.

Each ``benchmarks/test_*.py`` regenerates one table/figure of the paper
(see DESIGN.md's per-experiment index): it runs the experiment module at a
benchmark-friendly scale, prints the regenerated rows (run with ``-s`` to
see them inline), and records wall time via pytest-benchmark. Full-scale
numbers are recorded in EXPERIMENTS.md.

Results are also written to ``benchmarks/results/<experiment>.txt`` so the
tables survive the run.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Workload scale for benchmark runs (trade precision for wall time).
BENCH_SCALE = 0.5

#: Subset used by the quadratic-cost sweeps (fig8/fig9/fig10).
SWEEP_WORKLOADS = ["mcf", "lbm", "moses", "xhpcg", "deepsjeng", "memcached", "namd", "cactus"]


@pytest.fixture(scope="session")
def bench_execution() -> dict:
    """How benchmark runs execute cells: ``run_inline(**bench_execution)``.

    ``REPRO_BENCH_JOBS=N`` fans cells out over N worker processes and
    ``REPRO_BENCH_CACHE=DIR`` reuses results across benchmark invocations
    (docs/PARALLEL.md). Both default off so a plain ``pytest benchmarks/``
    still measures the serial, uncached numbers recorded in EXPERIMENTS.md.
    """
    from repro.parallel import ResultCache

    cache_dir = os.environ.get("REPRO_BENCH_CACHE")
    return {"jobs": int(os.environ.get("REPRO_BENCH_JOBS", "1")),
            "cache": ResultCache(cache_dir) if cache_dir else None}


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Print the regenerated table and persist it under results/."""

    def _record(result):
        text = result.to_text()
        print("\n" + text)
        (results_dir / f"{result.experiment}.txt").write_text(text + "\n")
        return result

    return _record
