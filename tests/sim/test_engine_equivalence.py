"""The engine equivalence contract (docs/ENGINE.md).

For every workload x mode cell the array engine must produce a SimStats
whose digest() is *identical* to the object engine's — not close,
identical — and the same CRISP FDO profile, so a cell's engine (which
runs both its profile and its ref run) cannot move an annotation. This
suite is the contract's tier-1 enforcement; the measured speedup lives
in BENCH_sweep.json / scripts/bench_sweep.py.
"""

from __future__ import annotations

import pytest

from repro.core.fdo import run_crisp_flow
from repro.parallel import CellSpec, ResultCache, cell_key, run_cells
from repro.parallel.executor import run_cell_spec
from repro.sim import ENGINES, simulate
from repro.sim.simulator import pipeline_class, resolve_engine
from repro.uarch.array_engine import ArrayPipeline
from repro.uarch.pipeline import Pipeline
from repro.workloads import get_workload, suite_names

SCALE = 0.25
WORKLOADS = ("mcf", "lbm", "deepsjeng", "xz")


@pytest.fixture(scope="module")
def critical_pcs():
    """One FDO derivation per workload, shared across both engines."""
    return {
        name: run_crisp_flow(name, scale=SCALE).critical_pcs
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("mode", ("ooo", "crisp"))
def test_digests_identical(name, mode, critical_pcs):
    workload = get_workload(name, scale=SCALE)
    kwargs = {"critical_pcs": critical_pcs[name]} if mode == "crisp" else {}
    obj = simulate(workload, mode, engine="obj", **kwargs).stats
    arr = simulate(workload, mode, engine="array", **kwargs).stats
    assert obj.digest() == arr.digest()


def test_ibda_mode_digests_identical():
    workload = get_workload("mcf", scale=SCALE)
    obj = simulate(workload, "ibda-1k", engine="obj").stats
    arr = simulate(workload, "ibda-1k", engine="array").stats
    assert obj.digest() == arr.digest()


def test_engine_resolution_chain(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine(None) == "array"
    assert resolve_engine("obj") == "obj"
    assert pipeline_class(None) is ArrayPipeline
    monkeypatch.setenv("REPRO_ENGINE", "obj")
    assert resolve_engine(None) == "obj"
    assert resolve_engine("array") == "array"  # explicit beats env
    assert pipeline_class(None) is Pipeline
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("jit")
    assert set(ENGINES) == {"obj", "array"}


def test_engine_not_part_of_cell_key():
    base = CellSpec("mcf", "ooo", scale=SCALE)
    assert cell_key(base) == cell_key(
        CellSpec("mcf", "ooo", scale=SCALE, engine="array")
    )


def test_engines_share_cache_cells(tmp_path):
    """An array run must answer a cell cached by an object run."""
    cache = ResultCache(str(tmp_path / "cache"))
    obj_spec = CellSpec("mcf", "ooo", scale=SCALE, engine="obj")
    arr_spec = CellSpec("mcf", "ooo", scale=SCALE, engine="array")

    (first,) = run_cells([obj_spec], cache=cache)
    assert first.ok and not first.from_cache

    (second,) = run_cells([arr_spec], cache=cache)
    assert second.ok and second.from_cache
    assert second.stats.digest() == first.stats.digest()


@pytest.mark.parametrize("name", suite_names())
def test_fdo_profile_identical_across_engines(name):
    """The profile, and so the annotation, cannot depend on the engine."""
    obj = run_crisp_flow(name, scale=0.1, engine="obj")
    arr = run_crisp_flow(name, scale=0.1, engine="array")
    # Every per-PC table (loads, branches, ROB-head stalls) and total.
    assert obj.profile == arr.profile
    assert obj.critical_pcs == arr.critical_pcs


@pytest.mark.parametrize("engine, other", (("array", Pipeline), ("obj", ArrayPipeline)))
def test_crisp_cell_runs_fdo_on_its_engine(monkeypatch, engine, other):
    """A crisp cell's FDO profile and its ref run both use ``spec.engine``."""
    def refuse(self, max_cycles=None):
        raise AssertionError(f"{other.__name__}.run called in an {engine} cell")

    monkeypatch.setattr(other, "run", refuse)
    payload = run_cell_spec(CellSpec("mcf", "crisp", scale=0.1, engine=engine))
    assert payload["critical_pcs"]
