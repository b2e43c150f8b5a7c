"""Process-pool execution of simulation cells.

``run_cells`` takes a list of :class:`~repro.parallel.cellkey.CellSpec`,
with the pool size, cache, retry policy, sample plan and engine as
arguments, and returns one :class:`CellResult` per spec **in input
order**, regardless of which worker finished first — callers index results
positionally and get deterministic tables.

Execution path per cell:

1. Compute the content hash (:func:`~repro.parallel.cellkey.cell_key`) and
   consult the :class:`~repro.parallel.cache.ResultCache` if one is given;
   a hit skips simulation entirely.
2. Misses are grouped by input ``(workload, variant, scale)`` and each
   group runs as one task — one in-process pass when ``jobs <= 1``,
   otherwise one task on a :class:`concurrent.futures.ProcessPoolExecutor`
   (see :func:`_tasks` for when a pool groups). Tasks carry only picklable
   specs. The first cell of a group that needs the input builds it by name
   through the same deterministic builder an in-process run uses
   (:func:`cell_input`); the group's later cells reuse it with its trace
   and the array engine's decode tables. Each cell re-seeds the global RNG
   from its own key first, so no ambient RNG state can leak between cells
   (guarded by ``tests/parallel/test_executor.py``'s cross-process
   determinism check).
3. Failures follow the shared :class:`~repro.resilience.policy.RetryPolicy`
   (docs/RESILIENCE.md): :class:`~repro.resilience.errors.SimulationError`
   is a *hard* failure (recorded, never retried);
   :class:`~repro.resilience.errors.CellTimeout` (cycle budget, see
   :class:`~repro.resilience.watchdog.CycleBudgetWatchdog`) and ``OSError``
   are *transient* (retried within the policy's budget, after its
   deterministic backoff delay); ``ValueError`` is a configuration error
   and propagates immediately. A retried cell runs as a task of its own. A
   worker process dying mid-task (``BrokenProcessPool``) is a transient
   failure of every cell in every in-flight task: the pool is rebuilt and
   only the lost cells are re-enqueued — one dead worker no longer aborts
   the whole batch.
4. A successful cell returns one record (:func:`cell_record`), its stats
   encoded once in the process that ran it. The cache stores the record
   as-is, a run dir copies its stats, and :class:`CellResult` reads it,
   decoding the stats only when asked.

Workers never let simulator exceptions cross the pickle boundary — some
carry keyword-only constructor signatures that do not survive
round-tripping — they return a tagged failure dict instead.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cached_property

from ..resilience.errors import CellTimeout, SimulationError
from ..resilience.policy import RetryPolicy
from ..uarch.stats import SimStats
from .cache import ResultCache
from .cellkey import CellSpec, cell_key

#: Cell states (shared vocabulary with run-dir cells and serve rows).
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@dataclass
class PoolStats:
    """Execution counters for one ``run_cells`` call (or a whole server)."""

    cells_total: int = 0
    cells_cached: int = 0
    cells_executed: int = 0
    retries: int = 0
    timeouts: int = 0
    hard_failures: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0

    def register_into(self, registry) -> None:
        """Register collector-backed counters (docs/METRICS.md contract)."""
        spec = (
            ("parallel.pool.cells_total", "cells_total",
             "simulation cells submitted to the executor"),
            ("parallel.pool.cells_cached", "cells_cached",
             "cells answered by the result cache without simulating"),
            ("parallel.pool.cells_executed", "cells_executed",
             "cells that ran a fresh simulation (worker or in-process)"),
            ("parallel.pool.retries", "retries",
             "re-submissions after a transient cell failure"),
            ("parallel.pool.timeouts", "timeouts",
             "cell attempts ended by the cycle-budget watchdog"),
            ("parallel.pool.hard_failures", "hard_failures",
             "cells recorded as failed (hard error or retries exhausted)"),
            ("parallel.pool.worker_crashes", "worker_crashes",
             "in-flight cells lost to a dying worker process"),
            ("parallel.pool.rebuilds", "pool_rebuilds",
             "process pools respawned after a worker crash"),
        )
        for name, field_name, desc in spec:
            registry.counter(
                name,
                unit="events",
                desc=desc,
                owner="process pool",
                figure="",
                collect=lambda f=field_name: getattr(self, f),
            )


@dataclass
class CellResult:
    """Outcome of one cell, cached or freshly simulated.

    A done cell keeps its record (:func:`cell_record`) as its worker
    returned it, or as the cache or a run dir stored it, and reads
    ``ipc``, ``critical_pcs`` and ``extra`` from it. ``stats`` and a
    sampled parent's ``estimate`` are decoded on first use, once.
    """

    spec: CellSpec
    key: str
    status: str
    attempts: int = 0
    from_cache: bool = False
    #: The cell's record; ``None`` for a failed cell.
    record: dict | None = None
    error: str | None = None
    error_type: str | None = None
    crash_bundle: str | None = None

    @classmethod
    def done(cls, spec, key, record, *, attempts, from_cache) -> "CellResult":
        return cls(spec=spec, key=key, status=STATUS_DONE, attempts=attempts,
                   from_cache=from_cache, record=record)

    @classmethod
    def failed(cls, spec, key, outcome, *, attempts) -> "CellResult":
        """A failed cell from a failure outcome or a stored failed cell."""
        return cls(spec=spec, key=key, status=STATUS_FAILED, attempts=attempts,
                   error=outcome.get("error"), error_type=outcome.get("error_type"),
                   crash_bundle=outcome.get("crash_bundle"))

    @property
    def ok(self) -> bool:
        return self.status == STATUS_DONE

    @property
    def ipc(self) -> float | None:
        return None if self.record is None else self.record["ipc"]

    @property
    def critical_pcs(self) -> tuple[int, ...]:
        return () if self.record is None else tuple(self.record["critical_pcs"])

    @property
    def extra(self) -> dict:
        """Structured side-channel: co-run cells put per-core SimStats and
        the MulticoreStats under ``extra["corun"]``, SMT cells their
        per-thread rows under ``extra["smt"]``, sampled parents their
        estimate under ``extra["sampled"]``. Empty for ordinary cells."""
        return {} if self.record is None else self.record.get("extra", {})

    @cached_property
    def stats(self) -> SimStats | None:
        return None if self.record is None else SimStats.from_dict(self.record["stats"])

    @cached_property
    def estimate(self):
        """A sampled parent's :class:`~repro.sampling.estimate.SampledEstimate`,
        which its ``stats`` and ``ipc`` come from; ``None`` otherwise."""
        sampled = self.extra.get("sampled")
        if sampled is None:
            return None
        from ..sampling.estimate import SampledEstimate

        return SampledEstimate.from_dict(sampled)

    def require_stats(self) -> SimStats:
        """Stats of a successful cell; raises on a failed one."""
        if not self.ok:
            raise RuntimeError(
                f"cell {self.spec.label()} failed "
                f"[{self.error_type or '?'}]: {self.error or 'no result'}"
            )
        return self.stats

    def wait_row(self) -> dict:
        """The compact per-cell row a serve ``wait`` response carries."""
        row = {"status": self.status, "attempts": self.attempts, "key": self.key}
        if self.ok:
            stats = self.record["stats"]
            row.update(
                ipc=self.ipc, cycles=stats["cycles"], retired=stats["retired"],
                cached=self.from_cache,
            )
            if self.estimate is not None:
                row["sampled"] = self.estimate.brief()
        else:
            row.update(error=self.error, error_type=self.error_type)
            if self.crash_bundle:
                row["crash_bundle"] = self.crash_bundle
        return row


# -- worker side ---------------------------------------------------------------

#: Inputs built by the cell group running in this context, keyed like
#: :func:`_input_key`; ``None`` outside a group (see :func:`_shared_inputs`).
_GROUP_INPUTS: ContextVar[dict | None] = ContextVar("group_inputs", default=None)


def _input_key(spec: CellSpec) -> tuple:
    """The cell's first input (:meth:`~repro.parallel.cellkey.CellSpec.inputs`)
    at its scale: what :func:`cell_input` builds and :func:`_groups`
    groups by, so a co-run or SMT cell joins the group of its first core
    or thread."""
    workload, variant = spec.inputs()[0]
    return (workload, variant, spec.scale)


def _runs_fdo(spec: CellSpec) -> bool:
    """Whether the cell runs the CRISP FDO flow (see :func:`cell_annotation`)."""
    return spec.mode == "crisp" and spec.critical_pcs is None


@contextmanager
def _shared_inputs():
    """Let the cells run inside the block share their built inputs; a
    block opened inside another shares the outer block's."""
    if _GROUP_INPUTS.get() is not None:
        yield
        return
    token = _GROUP_INPUTS.set({})
    try:
        yield
    finally:
        _GROUP_INPUTS.reset(token)


def cell_input(spec: CellSpec):
    """The cell's input workload, built by name.

    Inside a group (:func:`_shared_inputs`) the first cell that asks builds
    it and later cells get the same object, with its memoized trace and
    the array engine's decode tables; outside one, every call builds.
    Co-run cores and SMT threads ask with a spec of their own input, so
    they share it with each other and with the rest of the group.
    """
    from ..workloads import get_workload

    inputs = _GROUP_INPUTS.get()
    key = _input_key(spec)
    if inputs is not None and key in inputs:
        return inputs[key]
    workload = get_workload(*key)
    if inputs is not None:
        inputs[key] = workload
    return workload


def cell_record(spec: CellSpec, ipc: float, stats: SimStats,
                critical_pcs=(), extra: dict | None = None) -> dict:
    """The record a cell returns: the JSON the cache stores as-is and a
    :class:`CellResult` reads. ``stats`` is encoded here, in the process
    that ran the cell, and nowhere else."""
    record = {
        "workload": spec.workload,
        "mode": spec.mode,
        "ipc": ipc,
        "critical_pcs": sorted(critical_pcs),
        "stats": stats.to_dict(),
    }
    if extra:
        record["extra"] = extra
    return record


def cell_annotation(spec: CellSpec) -> frozenset[int]:
    """The critical PCs a cell simulates with: none outside ``crisp``
    mode, else the explicit annotation or the FDO flow's on the train
    input.

    The one source of a crisp run's annotation: cells, co-run cores, the
    ``simulate`` CLI and every experiment that pins PCs take it from here,
    so each gives the cell path's answer. A ``variant="train"`` cell
    profiles its own input (:func:`cell_input`), which its group then
    simulates without building it again.
    """
    if spec.mode != "crisp":
        return frozenset()
    if spec.critical_pcs is not None:
        return frozenset(spec.critical_pcs)
    from ..core.fdo import run_crisp_flow

    # Only the PCs are kept: the flow's slices hold the train trace.
    return run_crisp_flow(
        spec.workload,
        spec.crisp_config,
        core_config=spec.core_config(),
        scale=spec.scale,
        train_workload=cell_input(spec) if spec.variant == "train" else None,
        engine=spec.engine,
    ).critical_pcs


def run_cell_spec(spec: CellSpec) -> dict:
    """Simulate one cell and return its record (:func:`cell_record`).

    Runs identically in-process and inside a pool worker: the input comes
    from :func:`cell_input` (built by name, or shared with earlier cells of
    the group), and the *global* RNG is re-seeded deterministically from
    the cell key first so any builder that (illegitimately) touched
    ``random`` module state would still behave reproducibly per cell rather
    than depending on worker scheduling history.
    """
    from ..resilience.watchdog import cell_watchdog
    from ..sim.simulator import simulate

    key = cell_key(spec)
    random.seed(int(key[:16], 16))

    if spec.corun is not None:
        # Composite cells (repro.multicore): one co-run / SMT run is one
        # cell; dispatch before mode resolution — their top-level mode is
        # display-only and the per-core modes live inside the sub-spec.
        from ..multicore.cells import run_corun_cell

        return run_corun_cell(spec)
    if spec.smt is not None:
        from ..multicore.smt import run_smt_cell

        return run_smt_cell(spec)

    context = {"workload": spec.workload, "mode": spec.mode,
               "variant": spec.variant, "scale": spec.scale}
    watchdog = cell_watchdog(spec.cycle_budget, spec.crash_dir, context)

    if spec.sample != "off":
        # Sampled parent (repro.sampling): dispatch before the annotation
        # step; the sampled cell runs a crisp parent's FDO flow once itself.
        from ..sampling.cells import run_sampled_cell

        return run_sampled_cell(spec, watchdog)

    # The annotation first: a group's FDO cell frees the train input before
    # the shared input is built.
    critical = cell_annotation(spec)
    workload = cell_input(spec)
    result = simulate(
        workload,
        spec.mode,
        config=spec.core_config(),
        critical_pcs=critical,
        invariants=spec.invariants,
        watchdog=watchdog,
        engine=spec.engine,
    )
    return cell_record(spec, result.ipc, result.stats, critical)


def _pool_run_cell(spec: CellSpec) -> dict:
    """Worker entry point: run one cell, return a tagged outcome dict.

    A cell run outside a group, as the job server runs each cell, is a
    group of its own: co-run cores or SMT threads that run one input
    build it once.
    """
    try:
        with _shared_inputs():
            return {"ok": True, "record": run_cell_spec(spec)}
    except (CellTimeout, OSError) as exc:
        return {"ok": False, "transient": True,
                "error": str(exc), "error_type": type(exc).__name__}
    except SimulationError as exc:
        return {"ok": False, "transient": False,
                "error": str(exc), "error_type": type(exc).__name__,
                "crash_bundle": exc.bundle_path}
    # ValueError (configuration error) intentionally propagates: every cell
    # would fail identically, so the whole run should stop. It pickles fine.


def _pool_run_group(specs: list[CellSpec]) -> list[dict]:
    """Worker entry point: run one task's cells in order, sharing inputs."""
    with _shared_inputs():
        return [_pool_run_cell(spec) for spec in specs]


# -- driver side ---------------------------------------------------------------


@dataclass
class _Pending:
    index: int
    spec: CellSpec
    key: str
    attempts: int = 0
    #: Wall-clock start of the first attempt (policy deadline accounting).
    started: float = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.started if self.started else 0.0


def run_cells(
    specs: list[CellSpec],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    policy: RetryPolicy | None = None,
    sample: str = "off",
    engine: str | None = None,
    stats: PoolStats | None = None,
    on_result=None,
) -> list[CellResult]:
    """Run every cell; returns results in input order.

    The one cell runner: ``run_inline()`` and ``execute_run`` pass their
    execution settings here as arguments, and no process-wide setting is
    read. ``jobs <= 1`` runs in-process (no pool, no pickling); higher
    values use a process pool with at most ``jobs`` workers. Cells that
    share an input share its build, trace and decode tables (see
    :func:`_tasks`). ``engine`` is stamped on every spec that pins none;
    it is execution-only, so no key moves (docs/ENGINE.md).
    ``sample`` other than ``"off"`` runs each non-composite spec as one
    sampled parent (:mod:`repro.sampling.cells`): its ``ipc`` is the
    sampled estimate, ``stats`` the extrapolated full-run-shaped counters
    and ``estimate`` the :class:`~repro.sampling.estimate.SampledEstimate`.

    Every result, and every ``on_result`` call, carries the spec its
    caller passed. ``on_result`` is called with each :class:`CellResult`
    *as it resolves* (completion order — run directories persist cells
    through it; a pooled task's cells resolve when the task returns); the
    returned list is always in input order.

    Retry behaviour is governed by ``policy``
    (:class:`~repro.resilience.policy.RetryPolicy`: budget, backoff,
    deterministic jitter, deadline); the default retries a transient
    failure once, without backoff.
    """
    specs = list(specs)
    cells = specs
    if engine is not None:
        cells = [replace(s, engine=engine) if s.engine is None else s for s in cells]
    if sample != "off":
        from ..sampling.cells import sampled_parents

        cells = sampled_parents(cells, sample)
    if policy is None:
        policy = RetryPolicy.immediate(1)
    stats = stats if stats is not None else PoolStats()
    stats.cells_total += len(cells)
    results: list[CellResult | None] = [None] * len(cells)
    pending: list[_Pending] = []

    def resolve(index: int, result: CellResult) -> None:
        if result.status == STATUS_FAILED:
            stats.hard_failures += 1
        if result.ok and cache is not None and not result.from_cache:
            cache.put(result.key, result.record)
        # Under the caller's spec, not the engine-stamped or sampled one.
        result.spec = specs[index]
        results[index] = result
        if on_result is not None:
            on_result(result)

    for index, spec in enumerate(cells):
        key = cell_key(spec)
        if cache is not None:
            record = cache.get(key)
            if record is not None:
                stats.cells_cached += 1
                resolve(index, CellResult.done(
                    spec, key, record, attempts=0, from_cache=True))
                continue
        pending.append(_Pending(index, spec, key))

    if pending and jobs <= 1:
        # Groups and their cells run in input order: callers observe the
        # order cells run in, and only a pool has a tail to shorten.
        for group in _groups(pending):
            with _shared_inputs():
                for item in group:
                    _run_serial(item, policy, stats, resolve)
    elif pending:
        _run_pooled(_tasks(pending, jobs), jobs, policy, stats, resolve)

    return results  # type: ignore[return-value]


def _groups(pending: list[_Pending]) -> list[list[_Pending]]:
    """Pending cells by input (:func:`_input_key`), groups and cells in
    input order."""
    groups: dict = {}
    for item in pending:
        groups.setdefault(_input_key(item.spec), []).append(item)
    return list(groups.values())


def _tasks(pending: list[_Pending], jobs: int) -> list[list[_Pending]]:
    """The pool tasks for ``pending``, in submission order.

    A pool runs one task per input group only with at least two groups per
    worker: with fewer, groups of unequal length leave workers idle at the
    end, so each cell is its own task. Inside a group the FDO cells go
    first, so a worker builds the shared input only after the FDO flow has
    freed the train input; tasks holding an FDO cell, the longest, are
    submitted first to shorten the pool's tail.
    """
    groups = _groups(pending)
    if len(groups) < 2 * jobs:
        tasks = [[item] for item in pending]
    else:
        tasks = [sorted(group, key=lambda item: not _runs_fdo(item.spec))
                 for group in groups]
    return sorted(tasks, key=lambda task: not any(_runs_fdo(i.spec) for i in task))


def _record_attempt_failure(outcome: dict, stats: PoolStats) -> None:
    if outcome.get("error_type") == "CellTimeout":
        stats.timeouts += 1


def _retryable(item: _Pending, outcome: dict, policy: RetryPolicy) -> bool:
    return bool(outcome.get("transient")) and policy.should_retry(
        item.attempts, elapsed=item.elapsed()
    )


def _run_serial(item: _Pending, policy: RetryPolicy, stats, resolve) -> None:
    item.started = time.monotonic()
    outcome: dict = {}
    while True:
        item.attempts += 1
        stats.cells_executed += 1
        outcome = _pool_run_cell(item.spec)
        if outcome["ok"]:
            resolve(item.index, CellResult.done(
                item.spec, item.key, outcome["record"],
                attempts=item.attempts, from_cache=False))
            return
        _record_attempt_failure(outcome, stats)
        if not _retryable(item, outcome, policy):
            break
        stats.retries += 1
        delay = policy.delay(item.attempts, item.key)
        if delay:
            time.sleep(delay)
    resolve(item.index, CellResult.failed(
        item.spec, item.key, outcome, attempts=item.attempts))


#: Synthesized outcome dict for a cell lost to a dying worker process.
def _crash_outcome() -> dict:
    return {"ok": False, "transient": True, "error_type": "WorkerCrash",
            "error": "worker process died mid-cell (pool broken)"}


def _run_pooled(tasks, jobs, policy: RetryPolicy, stats, resolve) -> None:
    """Pool driver with crash supervision and deterministic backoff.

    Three item pools: ``futures`` (tasks in flight), ``deferred`` (cells
    waiting out a backoff delay as ``(ready_time, item)``), and the
    implicit done set. Every cell of a task counts one attempt; a retried
    cell is a task of its own. A ``BrokenProcessPool`` from any future
    means a worker died: every cell of every in-flight task is lost at
    once, so the pool is respawned and each lost cell is retried as a
    transient failure — or recorded as failed when its budget is spent.
    Configuration errors (``ValueError``) still propagate and abort the run.
    """
    pool = ProcessPoolExecutor(max_workers=jobs)
    futures: dict = {}
    deferred: list[tuple[float, _Pending]] = []

    def submit(task: list[_Pending]) -> None:
        for item in task:
            if not item.started:
                item.started = time.monotonic()
            item.attempts += 1
            stats.cells_executed += 1
        futures[pool.submit(_pool_run_group, [item.spec for item in task])] = task

    def retry_or_fail(item: _Pending, outcome: dict) -> None:
        if _retryable(item, outcome, policy):
            stats.retries += 1
            delay = policy.delay(item.attempts, item.key)
            deferred.append((time.monotonic() + delay, item))
        else:
            resolve(item.index, CellResult.failed(
                item.spec, item.key, outcome, attempts=item.attempts))

    try:
        for task in tasks:
            submit(task)
        while futures or deferred:
            now = time.monotonic()
            due = [item for ready, item in deferred if ready <= now]
            if due:
                deferred = [(r, i) for r, i in deferred if i not in due]
                for item in due:
                    submit([item])
            if not futures:
                # Only backoff timers left: sleep until the earliest.
                time.sleep(max(0.0, min(r for r, _ in deferred) - now))
                continue
            timeout = None
            if deferred:
                timeout = max(0.0, min(r for r, _ in deferred) - now)
            finished, _ = wait(
                futures, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in finished:
                task = futures.pop(future)
                try:
                    # Configuration errors (ValueError) propagate from
                    # .result() by design: every cell would fail the same.
                    outcomes = future.result()
                except BrokenProcessPool:
                    # A worker died. Every other in-flight future is dead
                    # too: drain them all, respawn the pool once, and send
                    # each lost cell through the normal transient path.
                    lost = task + [item for other in futures.values()
                                   for item in other]
                    futures.clear()
                    stats.worker_crashes += len(lost)
                    stats.pool_rebuilds += 1
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=jobs)
                    for lost_item in lost:
                        retry_or_fail(lost_item, _crash_outcome())
                    break
                for item, outcome in zip(task, outcomes):
                    if outcome["ok"]:
                        resolve(item.index, CellResult.done(
                            item.spec, item.key, outcome["record"],
                            attempts=item.attempts, from_cache=False))
                        continue
                    _record_attempt_failure(outcome, stats)
                    retry_or_fail(item, outcome)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
