"""Sampled parents through the pool + cache.

Sampled runs must compose with run_cells(): each parent is one ordinary
content-addressed cell, pooled execution is bit-identical to serial, every
interval matches a self-warming reference run, and re-running a sampled
workload answers each parent with one cache read.
"""

from __future__ import annotations

import pytest

from repro.core import fdo, slicer
from repro.parallel import CellSpec, PoolStats, ResultCache
from repro.parallel.executor import run_cell_spec
from repro.resilience.policy import RetryPolicy
from repro.sampling import parse_sample, run_cells_sampled, sampler, simulate_sampled
from repro.sampling.cells import expand_spec
from repro.workloads import base, get_workload

PLAN = parse_sample("smarts:400/2000")
SIMPOINT = parse_sample("simpoint:3/500")
FAST = dict(scale=0.2)
GEN = "gen:pcd4,mlp2,ent0.50,ws256,sl3,lf0.30#0"


def spec(workload="mcf", mode="ooo", **kw):
    kw = {**FAST, **kw}
    return CellSpec(workload=workload, mode=mode, **kw)


def test_pooled_sampled_run_is_bit_identical_to_serial():
    # The crisp parent runs its FDO flow in a pool worker when pooled.
    specs = [spec("mcf"), spec("xz"), spec("mcf", "crisp"), spec(GEN)]
    for plan in (PLAN, SIMPOINT):
        serial = run_cells_sampled(specs, plan, jobs=1)
        pooled = run_cells_sampled(specs, plan, jobs=2)
        for caller, s, p in zip(specs, serial, pooled):
            assert s.ok and p.ok
            assert s.spec is caller and p.spec is caller
            assert p.ipc == s.ipc
            assert p.critical_pcs == s.critical_pcs
            assert p.stats.to_dict() == s.stats.to_dict()
            assert p.estimate.brief() == s.estimate.brief()
            assert p.estimate.stats.to_dict() == s.estimate.stats.to_dict()
        assert serial[2].critical_pcs


def test_grouped_sampled_run_matches_serial_and_one_parent_per_call():
    # Four inputs on two workers: the pool runs one task per input, and
    # the ooo and crisp parents of an input share its build and trace.
    specs = [spec(w, m) for w in ("mcf", "xz", "lbm", GEN) for m in ("ooo", "crisp")]
    pooled = run_cells_sampled(specs, PLAN, jobs=2)
    serial = run_cells_sampled(specs, PLAN, jobs=1)
    alone = [run_cells_sampled([cell], PLAN, jobs=1)[0] for cell in specs]
    for caller, p, s, a in zip(specs, pooled, serial, alone):
        assert p.ok and s.ok and a.ok
        assert p.spec is caller and s.spec is caller
        assert p.ipc == s.ipc == a.ipc
        assert p.critical_pcs == s.critical_pcs == a.critical_pcs
        assert p.stats.digest() == s.stats.digest() == a.stats.digest()
        assert p.estimate == s.estimate == a.estimate


@pytest.mark.parametrize("reverse", [False, True], ids=["plan-order", "reversed"])
def test_every_interval_matches_the_self_warming_reference(monkeypatch, reverse):
    """The one-pass warmer gives each interval the stats of an interval
    that warms ``[0, start)`` itself, in whatever order the plan lists
    intervals."""
    if reverse:
        planned = sampler.plan_for_trace
        monkeypatch.setattr(sampler, "plan_for_trace",
                            lambda plan, trace: planned(plan, trace)[::-1])
    runs = []
    real = sampler.simulate_interval

    def recording(workload, mode, **kwargs):
        result = real(workload, mode, **kwargs)
        runs.append((workload, mode, kwargs["interval"], kwargs["critical_pcs"],
                     result.stats))
        return result

    monkeypatch.setattr(sampler, "simulate_interval", recording)
    for plan in (PLAN, SIMPOINT):
        runs.clear()
        [ooo, crisp] = run_cells_sampled([spec("mcf"), spec("mcf", "crisp")], plan)
        assert len(runs) == ooo.estimate.intervals + crisp.estimate.intervals
        starts = [interval[0] for _, mode, interval, _, _ in runs if mode == "ooo"]
        assert starts == sorted(starts)  # warmed forward, one pass
        for workload, mode, interval, critical, stats in runs:
            reference = real(workload, mode, interval=interval, critical_pcs=critical)
            assert stats.digest() == reference.stats.digest(), (plan, mode, interval)


def test_sampled_cells_match_the_serial_sampler():
    results = run_cells_sampled([spec("mcf")], PLAN, jobs=1)
    direct = simulate_sampled(get_workload("mcf", **FAST), "ooo", plan=PLAN)
    assert results[0].ipc == direct.ipc
    assert results[0].stats.to_dict() == direct.extrapolated.to_dict()


def test_interval_cells_hit_cache_on_rerun(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    specs = [spec("mcf"), spec("mcf", "crisp")]

    cold = run_cells_sampled(specs, PLAN, jobs=1, cache=cache)
    assert not any(r.from_cache for r in cold)
    assert cache.stats.stores == len(specs)  # one entry per parent

    warm = run_cells_sampled(specs, PLAN, jobs=1, cache=cache)
    assert all(r.from_cache for r in warm)
    assert cache.stats.hits == len(specs)
    for c, w in zip(cold, warm):
        assert w.ipc == c.ipc
        assert w.critical_pcs == c.critical_pcs
        assert w.stats.to_dict() == c.stats.to_dict()
        # The estimate survives the cache payload's JSON round trip.
        assert w.estimate.brief() == c.estimate.brief()
        assert w.estimate.stats.to_dict() == c.estimate.stats.to_dict()
        assert w.estimate.extrapolated.to_dict() == c.estimate.extrapolated.to_dict()
        assert w.estimate == c.estimate


def test_warm_sampled_rerun_does_no_work(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "cache"))
    specs = [spec("mcf"), spec("xz"), spec("mcf", "crisp")]
    cold = run_cells_sampled(specs, PLAN, jobs=1, cache=cache)

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm sampled re-run emulated or ran FDO")

    monkeypatch.setattr(base, "execute", forbidden)
    monkeypatch.setattr(fdo, "run_crisp_flow", forbidden)
    hits = cache.stats.hits
    warm = run_cells_sampled(specs, PLAN, jobs=1, cache=cache)
    assert cache.stats.hits - hits == len(specs)  # one read per parent
    assert [w.estimate.brief() for w in warm] == [c.estimate.brief() for c in cold]


def test_off_plan_falls_back_to_plain_cells():
    results = run_cells_sampled([spec("mcf")], parse_sample("off"), jobs=1)
    assert results[0].ok
    assert results[0].estimate is None


def test_crisp_mode_derives_annotation_once_per_parent():
    workload, critical = expand_spec(spec("mcf", "crisp"))
    assert workload.name == "mcf"
    assert critical  # FDO flow ran and produced PCs
    assert expand_spec(spec("mcf"))[1] == frozenset()


def test_crisp_parent_runs_the_fdo_flow_once(monkeypatch):
    calls = []
    real = fdo.run_crisp_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fdo, "run_crisp_flow", counting)
    [result] = run_cells_sampled([spec("mcf", "crisp")], PLAN, jobs=1)
    assert result.estimate.intervals >= 3
    assert len(calls) == 1


def test_failed_interval_fails_the_parent():
    stats = PoolStats()
    bad = spec("mcf", cycle_budget=1)  # every interval blows the budget
    results = run_cells_sampled([bad], PLAN, jobs=1, stats=stats,
                                policy=RetryPolicy.immediate(0))
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


def test_crisp_cell_fdo_never_measures_dynamic_cones(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the FDO flow measured a Figure 4 cone")

    monkeypatch.setattr(slicer, "dynamic_cone_size", forbidden)
    payload = run_cell_spec(spec("mcf", "crisp"))
    assert payload["critical_pcs"]
