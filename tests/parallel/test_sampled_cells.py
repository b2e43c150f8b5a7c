"""Interval cells through the pool + cache (ISSUE acceptance criteria).

Sampled runs must compose with run_cells(): interval cells are ordinary
content-addressed cells, pooled execution is bit-identical to serial, and
re-running a sampled workload hits the cache for every interval.
"""

from __future__ import annotations

import pytest

import repro.workloads as workloads
from repro.core import slicer
from repro.parallel import CellSpec, PoolStats, ResultCache
from repro.parallel.executor import run_cell_spec
from repro.sampling import cells, parse_sample, run_cells_sampled, sampler, simulate_sampled
from repro.sampling.cells import expand_spec
from repro.workloads import base, get_workload

PLAN = parse_sample("smarts:400/2000")
FAST = dict(scale=0.2)
GEN = "gen:pcd4,mlp2,ent0.50,ws256,sl3,lf0.30#0"


@pytest.fixture(autouse=True)
def empty_parent_memo():
    # Direct expand_spec / run_cell_spec calls leave the memo filled.
    cells.clear_parent_workload()


def spec(workload="mcf", mode="ooo", **kw):
    kw = {**FAST, **kw}
    return CellSpec(workload=workload, mode=mode, **kw)


def test_pooled_sampled_run_is_bit_identical_to_serial():
    # The crisp parent runs its FDO flow in a pool worker when pooled.
    specs = [spec("mcf"), spec("xz"), spec("mcf", "crisp"), spec(GEN)]
    serial = run_cells_sampled(specs, PLAN, jobs=1)
    pooled = run_cells_sampled(specs, PLAN, jobs=2)
    for s, p in zip(serial, pooled):
        assert s.ok and p.ok
        assert p.spec == s.spec
        assert p.ipc == s.ipc
        assert p.critical_pcs == s.critical_pcs
        assert p.stats.to_dict() == s.stats.to_dict()
        assert p.estimate.brief() == s.estimate.brief()
    assert serial[2].critical_pcs


def test_sampled_cells_match_the_serial_sampler():
    results = run_cells_sampled([spec("mcf")], PLAN, jobs=1)
    direct = simulate_sampled(get_workload("mcf", **FAST), "ooo", plan=PLAN)
    assert results[0].ipc == direct.ipc
    assert results[0].stats.to_dict() == direct.extrapolated.to_dict()


def test_interval_cells_hit_cache_on_rerun(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    specs = [spec("mcf")]

    cold = run_cells_sampled(specs, PLAN, jobs=1, cache=cache)
    assert not cold[0].from_cache
    stored = cache.stats.stores
    assert stored > 1  # one entry per interval cell

    warm = run_cells_sampled(specs, PLAN, jobs=1, cache=cache)
    assert warm[0].from_cache  # every child interval was a hit
    assert cache.stats.hits == stored
    assert warm[0].ipc == cold[0].ipc
    assert warm[0].stats.to_dict() == cold[0].stats.to_dict()


def test_off_plan_falls_back_to_plain_cells():
    results = run_cells_sampled([spec("mcf")], parse_sample("off"), jobs=1)
    assert results[0].ok
    assert results[0].estimate is None


def test_crisp_mode_derives_annotation_once_per_parent():
    intervals, children, total, critical = expand_spec(spec("mcf", "crisp"), PLAN)
    assert len(children) == len(intervals)
    assert total > 0
    assert critical  # FDO flow ran and produced PCs
    for child in children:
        assert child.critical_pcs == critical  # embedded, not re-derived
        assert child.interval is not None


def test_expand_rejects_specs_that_already_carry_intervals():
    nested = spec("mcf", interval=(0, 100))
    with pytest.raises(ValueError):
        expand_spec(nested, PLAN)


def test_failed_interval_fails_the_parent():
    stats = PoolStats()
    bad = spec("mcf", cycle_budget=1)  # every interval blows the budget
    results = run_cells_sampled([bad], PLAN, jobs=1, stats=stats, retries=0)
    assert not results[0].ok
    assert results[0].error_type
    assert results[0].estimate is None


def test_each_parent_reaches_on_result_when_its_last_interval_resolves(monkeypatch):
    events = []
    real = sampler.simulate_interval

    def logged(workload, *args, **kwargs):
        events.append(("interval", workload.name))
        return real(workload, *args, **kwargs)

    monkeypatch.setattr(sampler, "simulate_interval", logged)
    results = run_cells_sampled(
        [spec("mcf"), spec("xz")], PLAN, jobs=1,
        on_result=lambda r: events.append(("parent", r.spec.workload)),
    )
    assert [r.spec.workload for r in results] == ["mcf", "xz"]
    assert events.index(("parent", "mcf")) < events.index(("interval", "xz"))
    assert events[-1] == ("parent", "xz")


def test_interval_cells_reuse_the_parent_trace(monkeypatch):
    calls = []
    real = base.execute

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(base, "execute", counting)
    results = run_cells_sampled([spec("mcf")], PLAN, jobs=1)
    assert results[0].estimate.intervals >= 3
    assert len(calls) == 1  # not once more per interval cell


def test_parent_memo_holds_one_workload_and_is_cleared(monkeypatch):
    held_at_build = []
    real = workloads.get_workload

    def recording(name, variant="ref", scale=1.0):
        held_at_build.append(cells._PARENT)
        return real(name, variant=variant, scale=scale)

    monkeypatch.setattr(workloads, "get_workload", recording)
    run_cells_sampled([spec("mcf"), spec("xz"), spec("mcf", "crisp")], PLAN, jobs=1)
    assert len(held_at_build) >= 3
    assert all(held is None for held in held_at_build)  # old one dropped first
    assert cells._PARENT is None


def test_reused_parent_matches_fresh_builds(monkeypatch):
    specs = [spec("mcf"), spec("mcf", "crisp"), spec("xz")]
    reused = run_cells_sampled(specs, PLAN, jobs=1)
    monkeypatch.setattr(
        cells, "parent_workload",
        lambda name, variant, scale: get_workload(name, variant=variant, scale=scale),
    )
    fresh = run_cells_sampled(specs, PLAN, jobs=1)
    for r, f in zip(reused, fresh):
        assert r.ok and f.ok
        assert r.critical_pcs == f.critical_pcs
        assert r.stats.digest() == f.stats.digest()


def test_crisp_cell_fdo_never_measures_dynamic_cones(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the FDO flow measured a Figure 4 cone")

    monkeypatch.setattr(slicer, "dynamic_cone_size", forbidden)
    payload = run_cell_spec(spec("mcf", "crisp"))
    assert payload["critical_pcs"]
