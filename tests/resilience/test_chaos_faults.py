"""ChaosInjector: seeded process-level chaos against the pool and cache.

Each CHAOS_CLASSES entry is exercised here against the real substrate:

* ``killed_worker`` — SIGKILL a live pool worker mid-batch; the pool
  supervisor in ``run_cells`` must rebuild the pool and deliver results
  bit-identical to an unfaulted run.
* ``corrupt_cache_entry`` — mangle a stored entry; the next lookup must
  degrade to a counted miss and the re-simulation must overwrite it.
* ``hung_worker`` — exercised end-to-end by the serve supervisor tests
  (``tests/serve/test_chaos.py``); here we pin down the deterministic
  choice machinery it shares with the other classes.

Determinism is part of the contract: the same seed picks the same
victims, so a failing chaos schedule replays exactly.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.parallel import CellSpec, PoolStats, ResultCache, run_cells
from repro.resilience import CHAOS_CLASSES, ChaosInjector, RetryPolicy

FAST = dict(scale=0.05)


def spec(workload="mcf", mode="ooo", **kw):
    return CellSpec(workload=workload, mode=mode, **{**FAST, **kw})


def test_catalog_names_every_chaos_class():
    assert set(CHAOS_CLASSES) == {
        "killed_worker", "hung_worker", "corrupt_cache_entry"
    }
    for name, description in CHAOS_CLASSES.items():
        assert "caught by" in description, name


def test_chaos_choices_are_seed_deterministic(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    for n in range(5):
        cache.put(f"{n:064x}", {"ipc": 1.0})
    picks = [ChaosInjector(seed=7).corrupt_cache_entry(cache) for _ in range(2)]
    assert picks[0] == picks[1]
    other = ChaosInjector(seed=8)
    # A different seed replays a different (still deterministic) schedule.
    assert [other.corrupt_cache_entry(cache) for _ in range(2)] != picks


def test_kill_worker_targets_a_live_pool_worker():
    injector = ChaosInjector(seed=3)
    with ProcessPoolExecutor(max_workers=2) as pool:
        pool.submit(sum, (1, 2)).result()  # force worker spawn
        pids = injector.worker_pids(pool)
        assert len(pids) >= 1
        victim = injector.kill_worker(pool)
        assert victim in pids
        deadline = time.monotonic() + 10
        while victim in injector.worker_pids(pool):
            assert time.monotonic() < deadline, "victim survived SIGKILL"
            time.sleep(0.05)
    assert injector.actions[0][0] == "killed_worker"


def test_kill_worker_on_empty_pool_is_a_noop():
    injector = ChaosInjector(seed=3)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert injector.kill_worker(pool) is None  # no workers spawned yet
    assert injector.actions == []


def test_killed_worker_chaos_is_invisible_in_results(tmp_path):
    """The headline chaos property: SIGKILL mid-run, identical results."""
    specs = [spec("mcf"), spec("lbm"), spec("mcf", "crisp")]
    clean = run_cells(specs, jobs=1)

    injector = ChaosInjector(seed=11)
    stats = PoolStats()

    # run_cells owns its pool, so chaos grabs a handle by remembering
    # every pool the executor creates, then kills a worker on the first
    # completed cell — while the other cells are still in flight.
    from repro.parallel import executor as executor_module

    pools = []
    real_executor = executor_module.ProcessPoolExecutor

    class RememberingPool(real_executor):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            pools.append(self)

    executor_module.ProcessPoolExecutor = RememberingPool
    try:
        def on_result(result):
            if not injector.actions and pools:
                injector.kill_worker(pools[-1])

        survived = run_cells(
            specs, jobs=2, policy=RetryPolicy.immediate(2), stats=stats,
            on_result=on_result)
    finally:
        executor_module.ProcessPoolExecutor = real_executor

    assert all(r.ok for r in survived)
    assert injector.actions, "chaos never fired"
    assert stats.worker_crashes >= 1 and stats.pool_rebuilds >= 1
    for c, s in zip(clean, survived):
        assert s.stats == c.stats
        assert s.ipc == c.ipc


def test_corrupt_cache_entry_degrades_to_counted_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    specs = [spec("mcf")]
    cold = run_cells(specs, jobs=1, cache=cache)

    injector = ChaosInjector(seed=5)
    path = injector.corrupt_cache_entry(cache)
    assert path is not None
    with open(path, "rb") as handle, pytest.raises(ValueError):
        # JSONDecodeError or UnicodeDecodeError: genuinely mangled on disk
        json.loads(handle.read())

    rerun = run_cells(specs, jobs=1, cache=cache)
    assert cache.stats.corrupt == 1
    assert rerun[0].ok and not rerun[0].from_cache  # re-simulated
    assert rerun[0].stats == cold[0].stats  # and bit-identical

    warm = run_cells(specs, jobs=1, cache=cache)
    assert warm[0].from_cache  # the entry healed by overwrite
    assert cache.stats.corrupt == 1


def test_corrupt_cache_entry_on_empty_cache_is_a_noop(tmp_path):
    injector = ChaosInjector(seed=5)
    assert injector.corrupt_cache_entry(
        ResultCache(str(tmp_path / "empty"))) is None
    assert injector.actions == []


def test_hung_worker_class_is_documented_for_the_serve_supervisor():
    """hung_worker is detected by wall-clock deadline in repro.serve; the
    end-to-end kill-and-retry path lives in tests/serve/test_chaos.py."""
    assert "deadline" in CHAOS_CLASSES["hung_worker"]
    assert "retried" in CHAOS_CLASSES["hung_worker"]
