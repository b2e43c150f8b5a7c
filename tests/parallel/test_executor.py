"""Executor: determinism, ordering, caching, retries, failure policy."""

from __future__ import annotations

import random

import pytest

from repro.core import fdo
from repro.parallel import CellSpec, PoolStats, ResultCache, run_cells
from repro.parallel.executor import _pool_run_cell, run_cell_spec
from repro.resilience.policy import RetryPolicy
from repro.workloads import base

FAST = dict(scale=0.05)
#: Four inputs: on two workers, two groups per worker, so the pool groups.
GROUPED = ("mcf", "lbm", "xz", "moses")


def spec(workload="mcf", mode="ooo", **kw):
    kw = {**FAST, **kw}
    return CellSpec(workload=workload, mode=mode, **kw)


def test_results_keep_input_order_and_identity():
    specs = [spec("mcf"), spec("lbm"), spec("mcf", "crisp")]
    results = run_cells(specs, jobs=1)
    assert [r.spec for r in results] == specs
    assert all(r.ok for r in results)
    assert results[0].stats != results[1].stats


def test_subprocess_worker_matches_in_process_run():
    """Cross-process determinism: pool workers reproduce in-process stats
    bit-for-bit (guards against RNG/global-state leaks in workload
    generation)."""
    specs = [spec("mcf"), spec("mcf", "crisp"), spec("lbm")]
    serial = run_cells(specs, jobs=1)
    pooled = run_cells(specs, jobs=2)
    for s, p in zip(serial, pooled):
        assert p.stats == s.stats
        assert p.ipc == s.ipc
        assert p.critical_pcs == s.critical_pcs


def test_worker_is_immune_to_global_rng_state():
    """run_cell_spec must not depend on ambient `random` module state."""
    random.seed(1)
    first = run_cell_spec(spec("mcf"))
    random.seed(999)
    random.random()
    second = run_cell_spec(spec("mcf"))
    assert first == second


def test_second_run_hits_cache_for_every_cell(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    specs = [spec("mcf"), spec("lbm"), spec("mcf", "crisp")]
    cold = run_cells(specs, jobs=1, cache=cache)
    assert cache.stats.hits == 0 and cache.stats.stores == len(specs)

    warm = run_cells(specs, jobs=1, cache=cache)
    # The acceptance bar: every unchanged cell is a hit on re-invocation.
    assert cache.stats.hits == len(specs)
    for c, w in zip(cold, warm):
        assert w.from_cache and not c.from_cache
        assert w.stats == c.stats


def test_cached_results_survive_pool_boundary(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    specs = [spec("mcf"), spec("lbm")]
    cold = run_cells(specs, jobs=2, cache=cache)
    warm = run_cells(specs, jobs=2, cache=cache)
    assert [r.stats for r in warm] == [r.stats for r in cold]
    assert all(r.from_cache for r in warm)


def test_pool_stats_accounting(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    stats = PoolStats()
    specs = [spec("mcf"), spec("lbm")]
    run_cells(specs, jobs=1, cache=cache, stats=stats)
    run_cells(specs, jobs=1, cache=cache, stats=stats)
    assert stats.cells_total == 4
    assert stats.cells_executed == 2
    assert stats.cells_cached == 2
    assert stats.hard_failures == 0


def test_cycle_budget_times_out_and_retries():
    stats = PoolStats()
    results = run_cells([spec(cycle_budget=50)], jobs=1,
                        policy=RetryPolicy.immediate(2), stats=stats)
    cell = results[0]
    assert cell.status == "failed"
    assert cell.error_type == "CellTimeout"
    assert cell.attempts == 3
    assert stats.timeouts == 3
    assert stats.retries == 2
    assert stats.hard_failures == 1


def test_cycle_budget_times_out_in_pool_worker():
    cell = run_cells([spec(cycle_budget=50)], jobs=2, policy=RetryPolicy.immediate(0))[0]
    assert cell.status == "failed"
    assert cell.error_type == "CellTimeout"
    assert cell.attempts == 1


def test_generous_cycle_budget_changes_nothing():
    plain, budgeted = run_cells(
        [spec(), spec(cycle_budget=10_000_000)], jobs=1
    )
    assert plain.stats == budgeted.stats
    assert plain.key == budgeted.key  # budget is not part of the identity


def test_configuration_error_propagates_serial():
    with pytest.raises(ValueError, match="unknown mode"):
        run_cells([spec(mode="turbo")], jobs=1)


def test_configuration_error_propagates_pooled():
    with pytest.raises(ValueError, match="unknown mode"):
        run_cells([spec(mode="turbo"), spec("lbm")], jobs=2)


def test_failed_cells_do_not_poison_the_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    run_cells([spec(cycle_budget=50)], jobs=1, policy=RetryPolicy.immediate(0),
              cache=cache)
    assert cache.stats.stores == 0
    assert len(cache) == 0


def test_worker_entry_reports_hard_failures_as_dicts():
    """Simulator exceptions never cross the pickle boundary raw."""
    outcome = _pool_run_cell(spec(cycle_budget=50))
    assert outcome["ok"] is False
    assert outcome["transient"] is True
    assert outcome["error_type"] == "CellTimeout"


def test_explicit_critical_pcs_are_honoured():
    derived = run_cells([spec("mcf", "crisp")], jobs=1)[0]
    assert derived.critical_pcs, "expected the FDO flow to tag instructions"
    explicit = run_cells(
        [spec("mcf", "crisp", critical_pcs=tuple(derived.critical_pcs))], jobs=1
    )[0]
    assert explicit.stats == derived.stats
    assert explicit.key != derived.key  # explicit annotation, different identity


# -- worker-crash supervision --------------------------------------------------
#
# The pool uses the fork start method on Linux and creates workers lazily
# at first submit, so monkeypatching the worker entry point in the parent
# process is visible inside the workers (functions pickle by qualified
# name and resolve against the forked module state). A sentinel file makes
# the fault fire a bounded number of times.

import os  # noqa: E402
import signal  # noqa: E402

from repro.parallel import executor as executor_module  # noqa: E402

_real_pool_run_cell = _pool_run_cell


def _suicidal_pool_run_cell(cell_spec):
    """Worker entry that SIGKILLs its own process once, then behaves."""
    sentinel = os.environ["REPRO_TEST_CRASH_SENTINEL"]
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _real_pool_run_cell(cell_spec)
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _always_dying_pool_run_cell(cell_spec):
    os.kill(os.getpid(), signal.SIGKILL)


def test_worker_crash_rebuilds_pool_and_recovers(tmp_path, monkeypatch):
    """SIGKILLing a worker mid-run must cost retries, not the batch."""
    specs = [spec("mcf"), spec("lbm"), spec("mcf", "crisp")]
    clean = run_cells(specs, jobs=1)

    monkeypatch.setenv(
        "REPRO_TEST_CRASH_SENTINEL", str(tmp_path / "crashed-once"))
    monkeypatch.setattr(
        executor_module, "_pool_run_cell", _suicidal_pool_run_cell)
    stats = PoolStats()
    survived = run_cells(specs, jobs=2, policy=RetryPolicy.immediate(2), stats=stats)

    assert all(r.ok for r in survived)
    assert stats.worker_crashes >= 1
    assert stats.pool_rebuilds >= 1
    assert stats.retries >= 1
    # Bit-identical to the unfaulted run: crashes are invisible in results.
    for c, s in zip(clean, survived):
        assert s.stats == c.stats
        assert s.ipc == c.ipc
    assert any(r.attempts > 1 for r in survived)


def test_worker_crashes_exhaust_retry_budget_cleanly(monkeypatch):
    """A cell whose worker always dies fails as WorkerCrash, in budget."""
    monkeypatch.setattr(
        executor_module, "_pool_run_cell", _always_dying_pool_run_cell)
    stats = PoolStats()
    cell = run_cells([spec("mcf")], jobs=2, policy=RetryPolicy.immediate(1),
                     stats=stats)[0]
    assert cell.status == "failed"
    assert cell.error_type == "WorkerCrash"
    assert cell.attempts == 2  # 1 + retries, exactly
    assert stats.worker_crashes == 2
    assert stats.pool_rebuilds == 2
    assert stats.hard_failures == 1


def test_grouped_crash_retries_each_lost_cell_on_its_own(tmp_path, monkeypatch):
    """A worker dying mid-group costs one retry of every cell it took
    down with it; each lost cell reruns as a task of its own and the
    results stay bit-identical."""
    specs = [spec(w, m) for w in GROUPED for m in ("ooo", "crisp")]
    clean = run_cells(specs, jobs=1)

    monkeypatch.setenv(
        "REPRO_TEST_CRASH_SENTINEL", str(tmp_path / "crashed-once"))
    monkeypatch.setattr(
        executor_module, "_pool_run_cell", _suicidal_pool_run_cell)
    submitted = _record_submissions(monkeypatch)
    stats = PoolStats()
    survived = run_cells(specs, jobs=2, policy=RetryPolicy.immediate(1), stats=stats)

    assert stats.pool_rebuilds == 1
    assert stats.worker_crashes >= 2  # at least the dead worker's group
    assert stats.retries == stats.worker_crashes
    assert sum(r.attempts == 2 for r in survived) == stats.worker_crashes
    assert [len(task) for task in submitted] == [2] * 4 + [1] * stats.worker_crashes
    for c, s in zip(clean, survived):
        assert s.ok and s.stats == c.stats and s.ipc == c.ipc


# -- cells that share an input share its work ----------------------------------


def test_in_process_run_builds_and_emulates_each_input_once(monkeypatch):
    builds, executes = [], []
    real_build, real_execute = base.WorkloadRegistry.build, base.execute

    def build(self, name, variant="ref", scale=1.0):
        builds.append((name, variant))
        return real_build(self, name, variant, scale)

    def execute(program, **kwargs):
        executes.append(program)
        return real_execute(program, **kwargs)

    monkeypatch.setattr(base.WorkloadRegistry, "build", build)
    monkeypatch.setattr(base, "execute", execute)
    specs = [spec(w, m) for w in ("mcf", "lbm") for m in ("ooo", "crisp", "ibda-1k")]
    assert all(r.ok for r in run_cells(specs, jobs=1))
    assert sorted(builds) == sorted(
        (w, v) for w in ("mcf", "lbm") for v in ("ref", "train"))
    assert len(executes) == len(builds)


def _record_submissions(monkeypatch) -> list:
    """The cell specs of every task the executor submits to a pool."""
    submitted = []

    class RecordingPool(executor_module.ProcessPoolExecutor):
        def submit(self, fn, specs, *args, **kwargs):
            submitted.append(specs)
            return super().submit(fn, specs, *args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordingPool)
    return submitted


def _append_event(path, *event):
    with open(path, "a") as handle:
        handle.write(" ".join(map(str, event)) + "\n")


def test_grouped_worker_builds_the_shared_input_after_the_fdo_flow(
        tmp_path, monkeypatch):
    events = tmp_path / "events"
    real_build, real_flow = base.WorkloadRegistry.build, fdo.run_crisp_flow

    def build(self, name, variant="ref", scale=1.0):
        _append_event(events, os.getpid(), "build", name, variant)
        return real_build(self, name, variant, scale)

    def flow(name, *args, **kwargs):
        result = real_flow(name, *args, **kwargs)
        _append_event(events, os.getpid(), "fdo-done", name, "train")
        return result

    monkeypatch.setattr(base.WorkloadRegistry, "build", build)
    monkeypatch.setattr(fdo, "run_crisp_flow", flow)
    specs = [spec(w, m) for w in GROUPED for m in ("ooo", "crisp")]
    assert all(r.ok for r in run_cells(specs, jobs=2))

    lines = [line.split() for line in events.read_text().splitlines()]
    for workload in GROUPED:
        pids = {pid for pid, _, name, _ in lines if name == workload}
        assert len(pids) == 1  # one task, one worker
        steps = [(what, variant) for _, what, name, variant in lines
                 if name == workload]
        assert steps.count(("build", "ref")) == 1
        assert steps.index(("fdo-done", "train")) < steps.index(("build", "ref"))


@pytest.mark.parametrize("workloads, tasks", [
    # Three groups on two workers: one task per cell, FDO cells first.
    (GROUPED[:3], [[f"{w}/crisp"] for w in GROUPED[:3]]
                  + [[f"{w}/ooo"] for w in GROUPED[:3]]),
    # Four groups: one task per group, its FDO cell first.
    (GROUPED, [[f"{w}/crisp", f"{w}/ooo"] for w in GROUPED]),
], ids=["per-cell", "grouped"])
def test_pool_groups_only_with_two_groups_per_worker(
        monkeypatch, workloads, tasks):
    submitted = _record_submissions(monkeypatch)
    specs = [spec(w, m) for w in workloads for m in ("ooo", "crisp")]
    assert all(r.ok for r in run_cells(specs, jobs=2))
    assert [[cell.label() for cell in task] for task in submitted] == tasks


def test_grouped_pool_run_matches_serial_and_one_cell_per_call():
    specs = [spec(w, m) for w in GROUPED for m in ("ooo", "crisp")]
    specs.append(spec("mcf", "ibda-1k"))
    pooled = run_cells(specs, jobs=2)
    serial = run_cells(specs, jobs=1)
    alone = [run_cells([cell], jobs=1)[0] for cell in specs]
    for p, s, a in zip(pooled, serial, alone):
        assert p.ok and s.ok and a.ok
        assert p.stats.digest() == s.stats.digest() == a.stats.digest()
        assert p.ipc == s.ipc == a.ipc
        assert p.critical_pcs == s.critical_pcs == a.critical_pcs
